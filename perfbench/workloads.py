"""Benchmark workloads: each maps a seed to the scenario config dict that
elevsim receives through `ScenarioConfig.from_dict`.

Standard library only, so the set-up probe can build a config before it
starts timing the import of elevsim (and with it numpy and scipy).
The seed sets the config's `seed` (sensor noise, odometry noise, height
noise) and a small lateral start offset; it never changes how many simulated
seconds a pass covers, so every seed does the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# Sub-run length of the sweep. `run_step_sweep` never reads
# `ScenarioConfig.sweep_duration`, so the length is set through `command`.
SWEEP_HEIGHTS = (0.05, 0.10, 0.15)
SWEEP_SUBRUN_S = 2.0

STEP_SCENE = {
    "extent": [8.0, 3.0],
    "primitives": [
        {"type": "flat", "z": 0.0},
        {"type": "step", "x_start": 1.5, "height": 0.10, "depth": 0.8},
    ],
}
SENSOR_NOISE = {"sigma0": 0.003, "k": 0.005, "dropout": 0.02}
HEIGHT_NOISE = {"sample_sigma": 0.005, "bias_sigma": [0.01, 0.01, 0.01]}


def _start_xy(rng: random.Random, x: float = 0.8) -> list[float]:
    # the 3 m-wide terrain leaves room for +-0.1 m around its centre line
    return [x, 1.5 + rng.uniform(-0.1, 0.1)]


def perception_gt(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "scene": "obstacle",
        "command": [[3.0, [0.5, 0.0, 0.0]]],
        "odometry": "gt",
        # starts 1 m short of the first rise and ends on the second
        "start_xy": _start_xy(rng, x=2.0),
        "seed": seed,
    }


def fusion_vio_noisy(seed: int) -> dict:
    rng = random.Random(seed)
    turn = 0.3 * rng.choice((1.0, -1.0))
    # turn out and back: yaw peaks at 0.45 rad and the robot ends about
    # 0.3 m off its start line, well inside the terrain
    return {
        "scene": "obstacle",
        "command": [
            [1.5, [0.5, 0.0, 0.0]],
            [1.5, [0.4, 0.0, turn]],
            [1.5, [0.4, 0.0, -turn]],
            [1.5, [0.5, 0.0, 0.0]],
        ],
        "odometry": "ekf-vio",
        "use_rear_camera": False,
        "sensor_noise": dict(SENSOR_NOISE),
        "height_noise": dict(HEIGHT_NOISE),
        "start_xy": _start_xy(rng, x=1.5),
        "seed": seed,
    }


def sweep_fine_map(seed: int, out_dir: str | None = None) -> dict:
    rng = random.Random(seed)
    d = {
        "scene": STEP_SCENE,
        "command": [[SWEEP_SUBRUN_S, [0.6, 0.0, 0.0]]],
        "odometry": "ekf-novio",
        "map_resolution": 0.0125,
        "sweep_step_heights": list(SWEEP_HEIGHTS),
        "start_xy": _start_xy(rng),
        "seed": seed,
    }
    if out_dir is not None:
        d["out_dir"] = out_dir
    return d


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[..., dict]
    sweep: bool  # runs through run_step_sweep, one scenario per height
    chamfer_floor_cm: float | None  # AC7 floor, where it applies
    rte_band_m: tuple[float, float] | None  # AC5 band, EKF workloads only

    def scenarios_per_pass(self) -> int:
        return len(SWEEP_HEIGHTS) if self.sweep else 1

    def sim_seconds_per_pass(self, seed: int) -> float:
        per_run = sum(float(dur) for dur, _ in self.config(seed)["command"])
        return per_run * self.scenarios_per_pass()


AC5_BAND = (0.02, 0.15)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("perception_gt", perception_gt, False, 1.5, None),
        Workload("fusion_vio_noisy", fusion_vio_noisy, False, None, AC5_BAND),
        Workload("sweep_fine_map", sweep_fine_map, True, None, AC5_BAND),
    )
}
