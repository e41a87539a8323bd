"""`run_scenario` does no sensing: the camera list, rendering, sensor noise
and the cloud filters live in the frame stage (`pipeline._frames`), so the
body of `run_scenario`, its map loop included, holds only the stages that
read or write the map.

A stdlib `ast` check, like `test_imports.py`. It flags, inside the body of
`run_scenario`, the names `render_depth` and `inject_sensor_noise`, any
`cloudfilter` attribute, and a camera factory (`CameraModel` or a
`default_*_camera` function).
"""

import ast
from pathlib import Path

PIPELINE = Path(__file__).resolve().parents[1] / "src" / "elevsim" / "pipeline.py"
SENSING = {"render_depth", "inject_sensor_noise", "CameraModel"}


def _sensing_in(source: str, function: str = "run_scenario") -> list[str]:
    """The sensing names in the body of the module-level `function`, by line."""
    tree = ast.parse(source)
    (body,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    found = []
    for node in ast.walk(body):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cloudfilter":
            found.append((node.lineno, f"cloudfilter.{node.attr}"))
        elif isinstance(node, ast.Name) and (
            node.id in SENSING or node.id.startswith("default_") and node.id.endswith("_camera")
        ):
            found.append((node.lineno, node.id))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_run_scenario_does_no_sensing():
    assert _sensing_in(PIPELINE.read_text()) == []


def test_check_finds_planted_sensing():
    source = (
        "def run_scenario(cfg):\n"
        "    cam = default_rear_camera()\n"
        "    for i in range(3):\n"
        "        cloud = inject_sensor_noise(render_depth(cam, i), cfg)\n"
        "        cloud = cloudfilter.voxel_downsample(cloud, 0.1)\n"
        "\n"
        "def _frames(cfg):\n"
        "    yield cloudfilter.body_filter(render_depth(default_front_camera()))\n"
    )
    assert _sensing_in(source) == [
        "line 2: default_rear_camera",
        "line 4: inject_sensor_noise",
        "line 4: render_depth",
        "line 5: cloudfilter.voxel_downsample",
    ]
    # the frame stage itself may sense
    assert _sensing_in(source, "_frames") == [
        "line 8: cloudfilter.body_filter",
        "line 8: default_front_camera",
        "line 8: render_depth",
    ]
