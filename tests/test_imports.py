"""Every name a package, test or benchmark module imports is used in that
module, a config built from a dict does not import YAML, and a run does not
import scipy.

A stdlib `ast` stand-in for a linter's unused-import rule. Package
`__init__.py` files are skipped, since their imports are the re-exported API,
and so are `from __future__` imports. `tests/test_acceptance.py` is the one
exemption: the acceptance gate is contract, and is not edited.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "elevsim"
EXEMPT = {"__init__.py", "test_acceptance.py"}
MODULES = sorted(
    p for d in (SRC, ROOT / "tests", ROOT / "perfbench") for p in d.glob("*.py")
    if p.name not in EXEMPT
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport numpy as np\nnp.zeros(1)\n"
    assert _unused_imports(source) == ["line 2: json"]


def test_config_from_dict_does_not_import_yaml():
    # only `ScenarioConfig.from_yaml` reads YAML; the import costs a cold
    # `import elevsim` about 15 ms
    code = (
        "import sys\n"
        "from elevsim.pipeline import ScenarioConfig\n"
        "ScenarioConfig.from_dict({'scene': 'obstacle', 'command': [[3.0, [0.5, 0.0, 0.0]]]})\n"
        "print('yaml' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_run_does_not_import_scipy():
    # the nearest neighbours of the outlier filter and the chamfer are numpy;
    # scipy.spatial would cost a cold `elevsim run` about 0.4 s and 30 MB
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import elevsim\n"
        "from elevsim.pipeline import ScenarioConfig, run_scenario\n"
        "cfg = ScenarioConfig.from_dict({'scene': 'obstacle', 'command': [[1.0, [0.5, 0.0, 0.0]]],"
        " 'use_rear_camera': True, 'seed': 0})\n"
        "run_scenario(cfg)\n"
        "pts = np.random.default_rng(0).normal(0.0, 1.0, (200, 3))\n"
        "elevsim.chamfer_one_way(pts[:100], pts[100:])\n"
        "elevsim.remove_outliers(elevsim.PointCloud(t=0.0, frame='world', points=pts))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
