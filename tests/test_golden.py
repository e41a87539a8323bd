"""Golden reports: small fixed scenarios whose outputs must not move.

Each case runs one config and compares its report files byte for byte with
the copies under `tests/golden/<case>/`: `metrics.csv`, `metrics.json` and
the sha256 of `trajectory_gt.csv` / `trajectory_est.csv`. The sweep case
stores the sweep's `metrics.csv` and its full rows as `metrics.json`.

A change that moves any of them regenerates them and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from elevsim.pipeline import ScenarioConfig, run_scenario, run_step_sweep

# a failure also reports this host's BLAS core and SIMD targets (conftest.py)
pytestmark = pytest.mark.host_bits

GOLDEN_DIR = Path(__file__).parent / "golden"

SENSOR_NOISE = {"sigma0": 0.003, "k": 0.005, "dropout": 0.02}
HEIGHT_NOISE = {"sample_sigma": 0.005, "bias_sigma": [0.01, 0.01, 0.01]}

CASES = {
    "gt_two_cameras": {
        "scene": "obstacle",
        "command": [[3.0, [0.5, 0.0, 0.0]]],
        "odometry": "gt",
        "start_xy": [2.0, 1.5],
        "seed": 0,
    },
    "ekf_vio_noisy_turn": {
        "scene": "obstacle",
        "command": [
            [1.0, [0.5, 0.0, 0.0]],
            [1.0, [0.4, 0.0, 0.3]],
            [1.0, [0.5, 0.0, 0.0]],
        ],
        "odometry": "ekf-vio",
        "use_rear_camera": False,
        "sensor_noise": SENSOR_NOISE,
        "height_noise": HEIGHT_NOISE,
        "start_xy": [1.6, 1.45],
        "seed": 1,
    },
    "ekf_novio_drift": {
        "scene": "obstacle",
        "command": [[3.0, [0.5, 0.0, 0.0]]],
        "odometry": "ekf-novio",
        "injected_drift": [0.01, 0.0, 0.0],
        "drift_compensation": True,
        "seed": 2,
    },
    "step_sweep": {
        "scene": {
            "extent": [8.0, 3.0],
            "primitives": [
                {"type": "flat", "z": 0.0},
                {"type": "step", "x_start": 1.5, "height": 0.1, "depth": 0.8},
            ],
        },
        "command": [[2.0, [0.6, 0.0, 0.0]]],
        "odometry": "ekf-vio",
        "sweep_step_heights": [0.075, 0.125],
        "seed": 3,
    },
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def produce(case: str, out: Path) -> dict[str, bytes]:
    """Run one case into `out`; return its golden files by name."""
    cfg = ScenarioConfig.from_dict({**CASES[case], "out_dir": str(out)})
    if cfg.sweep_step_heights:
        rows = run_step_sweep(cfg)
        for row in rows:
            row.pop("wall_time_s")
        rows_json = json.dumps(rows, indent=2, sort_keys=True) + "\n"
        return {
            "metrics.csv": (out / "metrics.csv").read_bytes(),
            "metrics.json": rows_json.encode(),
        }
    run_scenario(cfg)
    hashes = {name: _sha256(out / name) for name in ("trajectory_gt.csv", "trajectory_est.csv")}
    return {
        "metrics.csv": (out / "metrics.csv").read_bytes(),
        "metrics.json": (out / "metrics.json").read_bytes(),
        "trajectory.sha256": "".join(f"{h}  {n}\n" for n, h in hashes.items()).encode(),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, tmp_path):
    files = produce(case, tmp_path / case)
    stored = sorted(p.name for p in (GOLDEN_DIR / case).iterdir())
    assert stored == sorted(files)
    for name, blob in files.items():
        assert blob == (GOLDEN_DIR / case / name).read_bytes(), f"{case}/{name} changed"


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            target = GOLDEN_DIR / case
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for name, blob in produce(case, Path(tmp) / case).items():
                (target / name).write_bytes(blob)
            print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
