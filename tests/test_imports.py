"""Every name a package module imports is used in that module, and a
config built from a dict does not import YAML.

A stdlib `ast` stand-in for a linter's unused-import rule. Package
`__init__.py` files are skipped, since their imports are the re-exported API,
and so are `from __future__` imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "elevsim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
