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
"""

import ast
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from elevsim.pipeline import ScenarioConfig
from elevsim.scene import PRIMITIVE_TYPES

SRC = Path(__file__).resolve().parents[1] / "src" / "elevsim"
MODULES = sorted(SRC.glob("*.py"))
PARSE_ONLY = {"__post_init__", "from_dict"}


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
