"""Every field of `ScenarioConfig` and of its config sections is read by
the package.

The sections are the dataclasses that a config field's default factory
builds, and theirs in turn: `SensorNoise`, `SourceErrorModel` and the three
odometry error models. The scene section's are `SceneSpec` and its terrain
primitives. A field counts as read when some module in
`src/elevsim/` loads it as an attribute outside a `__post_init__` or
`from_dict`, which only validate and parse it. A knob that nothing reads
is accepted by the config and changes no output. A stdlib `ast` check: it
matches attribute names, not the objects they are read from.

Every top-level `ScenarioConfig` field is also set by some run that the
repository makes: a golden case, a benchmark workload, the acceptance gate
or `elevsim run`'s overrides. A field that no run sets holds one value in
every run, and is a constant of its module instead.
"""

import ast
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from benchworkloads import load_workloads
from elevsim.pipeline import ScenarioConfig
from elevsim.scene import PRIMITIVE_TYPES
from test_golden import CASES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "elevsim"
MODULES = sorted(SRC.glob("*.py"))
PARSE_ONLY = {"__post_init__", "from_dict"}
# config keys that set a field of another name
KEY_FIELDS = {"scene": "scene_spec", "command": "profile"}


def _fields(tree: ast.AST, cls: str) -> list[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return [
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    return []


def _attributes_read(node: ast.AST, read: set[str]) -> set[str]:
    if isinstance(node, ast.FunctionDef) and node.name in PARSE_ONLY:
        return read
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        read.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _attributes_read(child, read)
    return read


def _unread_fields(sources: list[str], cls: str = "ScenarioConfig") -> list[str]:
    trees = [ast.parse(source) for source in sources]
    fields = [name for tree in trees for name in _fields(tree, cls)]
    assert fields, f"no class {cls} with fields"
    read: set[str] = set()
    for tree in trees:
        _attributes_read(tree, read)
    return [name for name in fields if name not in read]


def _sections(cls: type) -> list[str]:
    """The names of the dataclasses that `cls`'s default factories build,
    and of theirs in turn."""
    made = [f.default_factory for f in fields(cls) if is_dataclass(f.default_factory)]
    return [name for sub in made for name in (sub.__name__, *_sections(sub))]


SECTIONS = _sections(ScenarioConfig)
SCENE = ["SceneSpec", *(cls.__name__ for cls in PRIMITIVE_TYPES.values())]


def test_every_scenario_config_field_is_read():
    assert _unread_fields([p.read_text() for p in MODULES]) == []


def test_sections_found():
    assert sorted(SECTIONS) == sorted(
        ["SensorNoise", "SourceErrorModel", "EstimatorErrors", "ImuErrors", "VioErrors"]
    )


def test_scene_sections_found():
    assert sorted(SCENE) == ["FlatRegion", "Platform", "SceneSpec", "Step"]


@pytest.mark.parametrize("cls", SECTIONS + SCENE)
def test_every_section_field_is_read(cls):
    assert _unread_fields([p.read_text() for p in MODULES], cls) == []


def test_check_finds_a_field_read_only_while_parsing():
    source = (
        "class ScenarioConfig:\n"
        "    seed: int = 0\n"
        "    gate: float = 0.03\n"
        "    def __post_init__(self):\n"
        "        assert self.gate > 0\n"
        "    @classmethod\n"
        "    def from_dict(cls, d):\n"
        "        return cls(gate=d.gate)\n"
        "def run(cfg):\n"
        "    return cfg.seed\n"
    )
    assert _unread_fields([source]) == ["gate"]


def test_check_finds_a_field_added_to_the_package():
    sources = [p.read_text() for p in MODULES]
    k = next(i for i, s in enumerate(sources) if "class ScenarioConfig" in s)
    last = '    tag: str = ""\n'
    assert last in sources[k]
    sources[k] = sources[k].replace(last, last + "    drift_gate: float = 0.03\n")
    assert _unread_fields(sources) == ["drift_gate"]


def test_check_finds_a_field_added_to_a_section():
    sources = [p.read_text() for p in MODULES]
    k = next(i for i, s in enumerate(sources) if "class SensorNoise" in s)
    last = "    dropout: float = rule(UNIT, default=0.0)\n"
    assert last in sources[k]
    sources[k] = sources[k].replace(last, last + "    speckle: float = 0.0\n")
    assert _unread_fields(sources, "SensorNoise") == ["speckle"]


def test_check_finds_a_field_added_to_a_primitive():
    sources = [p.read_text() for p in MODULES]
    k = next(i for i, s in enumerate(sources) if "class Step" in s)
    last = "    depth: float = rule(POSITIVE)\n"
    assert last in sources[k]
    sources[k] = sources[k].replace(last, last + "    nosing: float = rule(FINITE, default=0.0)\n")
    assert _unread_fields(sources, "Step") == ["nosing"]


def _keys_set(tree: ast.AST) -> set[str]:
    """The keys that a source sets: the string keys of its dict literals and
    of its `d["key"] = ...` stores, and the keywords of its `replace` calls."""
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys.update(k.value for k in node.keys if isinstance(k, ast.Constant))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            if isinstance(node.slice, ast.Constant):
                keys.add(node.slice.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "replace":
            keys.update(kw.arg for kw in node.keywords if kw.arg)
    return keys


def _workload_configs() -> list[dict]:
    """Each benchmark workload's config, from `perfbench/workloads.py` run in
    memory as the benchmark digests test runs it."""
    return [w.config(0, "out") if w.sweep else w.config(0) for w in load_workloads().values()]


def _fields_set_by_runs() -> set[str]:
    """The `ScenarioConfig` fields that the golden cases, the benchmark
    workloads, the acceptance gate and `cli.cmd_run`'s overrides set."""
    keys = {key for config in [*CASES.values(), *_workload_configs()] for key in config}
    keys |= _keys_set(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    cli = ast.parse((SRC / "cli.py").read_text())
    keys |= _keys_set(next(node for node in ast.walk(cli)
                           if isinstance(node, ast.FunctionDef) and node.name == "cmd_run"))
    return {KEY_FIELDS.get(key, key) for key in keys}


def _unset_fields(pipeline_source: str) -> list[str]:
    fields_set = _fields_set_by_runs()
    return [f for f in _fields(ast.parse(pipeline_source), "ScenarioConfig") if f not in fields_set]


def test_every_scenario_config_field_is_set_by_a_run():
    assert _unset_fields((SRC / "pipeline.py").read_text()) == []


def test_check_finds_a_field_that_no_run_sets():
    source = (SRC / "pipeline.py").read_text()
    last = '    tag: str = ""\n'
    assert last in source
    source = source.replace(last, last + "    start_yaw: float = rule(FINITE, default=0.0)\n")
    assert _unset_fields(source) == ["start_yaw"]
