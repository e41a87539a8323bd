"""Every defaulted parameter in the package is set by some package call.

A parameter of a `src/elevsim` function or method, or a field of one of its
dataclasses, whose default no call in `src/elevsim` overrides has one value
in use: it only doubles the configurations that tests must reason about, and
belongs in a module constant. A call passes a value by position, by keyword,
through a `*` or `**` splat, or, for a dataclass field, as a keyword of
`dataclasses.replace`. A stdlib `ast` check: calls match definitions by name
(`f(...)`, `obj.f(...)`, `Cls(...)`, and `cls(...)` inside `Cls`), not by the
object they are made on, so a shared name can hide a knob but never invent one.
`schema.build(Cls, ...)` constructs `Cls`, and the sections that the default
factories of its fields name, through one `cls(**kwargs)`, so it counts as a
`**` splat call of each of them.

The parameters that stay with a single package value are listed in `KEPT`,
each with the test or the state that keeps it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "elevsim"
MODULES = sorted(SRC.glob("*.py"))

KEPT = {
    "ElevationMap(size)": "AC02, AC09 and AC11 pass their own map sizes",
    **{
        f"SensorVarianceModel({name})": "AC02 passes its own variance model"
        for name in ("base_variance", "range_coeff", "time_variance_rate")
    },
    **{
        f"RewardConfig({name})": "AC08 builds a RewardConfig for total and compute_terms"
        for name in ("weights", "tracking_sigma", "air_time_target", "negative_scale", "tau_limit")
    },
    "rte(segment_length)": "AC06 passes segment_length by keyword",
    "HeightNoiseState(bias)": "state: the bias drawn at the last resample",
    "HeightNoiseState(last_resample)": "state: the time of the last resample",
    "main(argv)": "the command line: the console script passes none, tests pass theirs",
}


def _has_default(value: ast.expr | None) -> bool:
    """Whether a dataclass field's value gives it a default: a plain value,
    or a `field(...)` or `rule(...)` call with `default` or `default_factory`."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("field", "rule"):
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return value is not None


class _Definitions(ast.NodeVisitor):
    """Defaulted parameters of every function, method and dataclass, keyed by
    the name a call uses: (label, parameter, position) triples, where the
    position counts after `self` or `cls` and is None for a keyword-only one."""

    def __init__(self):
        self.params: dict[str, list[tuple[str, str, int | None]]] = {}
        self.sections: dict[str, list[str]] = {}  # dataclass: its fields' factories
        self.owner: str | None = None

    def _add(self, key: str, label: str, name: str, position: int | None) -> None:
        self.params.setdefault(key, []).append((label, name, position))

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            fields = [
                stmt for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
            for position, stmt in enumerate(fields):
                name = stmt.target.id
                if _has_default(stmt.value):
                    self._add(node.name, f"{node.name}({name})", name, position)
                factory = [kw.value for kw in getattr(stmt.value, "keywords", [])
                           if kw.arg == "default_factory" and isinstance(kw.value, ast.Name)]
                self.sections.setdefault(node.name, []).extend(f.id for f in factory)
        outer, self.owner = self.owner, node.name
        self.generic_visit(node)
        self.owner = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        skip = 1 if self.owner and not static else 0
        if node.name == "__init__":
            key, prefix = self.owner, self.owner
        else:
            key = node.name
            prefix = f"{self.owner}.{node.name}" if self.owner else node.name
        first_default = len(positional) - len(args.defaults)
        for position, arg in enumerate(positional):
            if position >= max(first_default, skip):
                self._add(key, f"{prefix}({arg.arg})", arg.arg, position - skip)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self._add(key, f"{prefix}({arg.arg})", arg.arg, None)
        outer, self.owner = self.owner, None
        self.generic_visit(node)
        self.owner = outer


class _Calls(ast.NodeVisitor):
    """What each call passes, keyed by the callee's name: the number of
    positional arguments (None after a `*` splat), the keyword names, and
    whether a `**` splat is present. `replace` keywords are kept apart, and
    so are the classes that `build` is called on."""

    def __init__(self):
        self.calls: dict[str, list[tuple[int | None, set[str], bool]]] = {}
        self.replaced: set[str] = set()
        self.built: set[str] = set()
        self.owner: str | None = None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer, self.owner = self.owner, node.name
        self.generic_visit(node)
        self.owner = outer

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "cls" and self.owner:
            name = self.owner
        keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
        if name == "build" and node.args:
            target = node.args[0]
            built = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
            self.built.add(self.owner if built == "cls" else built)
        if name == "replace":
            self.replaced |= keywords
        elif name is not None:
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            splat = any(kw.arg is None for kw in node.keywords)
            self.calls.setdefault(name, []).append(
                (None if starred else len(node.args), keywords, splat)
            )
        self.generic_visit(node)


def _unpassed(sources: list[str]) -> list[str]:
    definitions, calls = _Definitions(), _Calls()
    for source in sources:
        tree = ast.parse(source)
        definitions.visit(tree)
        calls.visit(tree)
    todo = list(calls.built)
    while todo:
        built = todo.pop()
        calls.calls.setdefault(built, []).append((None, set(), True))
        todo += definitions.sections.get(built, [])

    def passed(key: str, name: str, position: int | None, dataclass_field: bool) -> bool:
        if dataclass_field and name in calls.replaced:
            return True
        for count, keywords, splat in calls.calls.get(key, []):
            if splat or name in keywords:
                return True
            if position is not None and (count is None or position < count):
                return True
        return False

    return sorted(
        label
        for key, params in definitions.params.items()
        for label, name, position in params
        if not passed(key, name, position, label == f"{key}({name})")
    )


def test_every_defaulted_parameter_is_passed_or_kept():
    assert _unpassed([p.read_text() for p in MODULES]) == sorted(KEPT)


def test_check_counts_each_way_of_passing_a_value():
    source = (
        "from dataclasses import dataclass, field, replace\n"
        "@dataclass\n"
        "class Cfg:\n"
        "    a: int\n"
        "    b: int = 1\n"
        "    c: list = field(default_factory=list)\n"
        "    d: int = 3\n"
        "    e: int = 4\n"
        "    f: float = rule(FINITE)\n"
        "    g: float = rule(FINITE, default=0.0)\n"
        "    h: list = field(metadata={})\n"
        "    @classmethod\n"
        "    def make(cls, d):\n"
        "        return cls(0, 1, c=[])\n"
        "def f(x, y=1, z=2, *, w=3):\n"
        "    return x\n"
        "def g(x, y=1):\n"
        "    return x\n"
        "class M:\n"
        "    def __init__(self, p=0, q=1):\n"
        "        self.p = p\n"
        "    def m(self, r=0, s=1):\n"
        "        return r\n"
        "def run(obj, args, kw):\n"
        "    cfg = replace(Cfg.make(None), d=2)\n"
        "    f(0, **kw)\n"
        "    g(*args)\n"
        "    obj.m(1)\n"
        "    return M(q=2), cfg\n"
    )
    # f and h have no default, so only g of the three is a knob
    assert _unpassed([source]) == ["Cfg(e)", "Cfg(g)", "M(p)", "M.m(s)"]


def test_check_finds_a_knob_added_to_the_package():
    sources = [p.read_text() for p in MODULES]
    k = next(i for i, s in enumerate(sources) if "def remove_outliers(" in s)
    signature = (
        "    cloud: PointCloud, camera: CameraModel | None = None, "
        "ranges: np.ndarray | None = None\n"
    )
    assert signature in sources[k]
    sources[k] = sources[k].replace(signature, signature[:-1] + ", k: int = 8\n")
    assert _unpassed(sources) == sorted([*KEPT, "remove_outliers(k)"])


def test_check_follows_build_into_sections():
    source = (
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class Noise:\n"
        "    sigma: float = 0.0\n"
        "@dataclass\n"
        "class Cfg:\n"
        "    noise: Noise = field(default_factory=Noise)\n"
        "    seed: int = 0\n"
        "    @classmethod\n"
        "    def from_dict(cls, d):\n"
        "        return build(cls, d)\n"
        "@dataclass\n"
        "class Other:\n"
        "    gain: float = 1.0\n"
    )
    assert _unpassed([source]) == ["Other(gain)"]
    assert _unpassed([source.replace("build(cls, d)", "cls()")]) == [
        "Cfg(noise)", "Cfg(seed)", "Noise(sigma)", "Other(gain)"
    ]
