"""Policy-facing observation assembly.

Height samples come from an 11 x 7 grid (0.05 m pitch, long axis forward) in
the yaw-aligned base frame, expressed relative to base height; unobserved
cells are filled with a default relative height. Two noise modalities can be
applied: per-sample Gaussian noise every step, and a constant (x, y, z) bias
redrawn on a fixed period. Frames are concatenated through a 10-step history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elevmap import ElevationMap
from .geometry import Pose, yaw_aligned_grid
from .schema import FINITE, NON_NEGATIVE, Validated, rule
from .sensorsim import TRUNK_HEIGHT

HEIGHT_GRID = (11, 7)  # samples along forward (x) and lateral (y)
HEIGHT_PITCH = 0.05
N_HEIGHT_SAMPLES = HEIGHT_GRID[0] * HEIGHT_GRID[1]  # 77
FRAME_DIM = 3 + 12 + 12 + 3 + N_HEIGHT_SAMPLES  # 107
HISTORY_STEPS = 10
DEFAULT_RELATIVE_HEIGHT = -TRUNK_HEIGHT
BIAS_RESAMPLE_PERIOD = 7.0


@dataclass
class ObservationFrame:
    command: np.ndarray  # (3,)
    q: np.ndarray  # (12,)
    dq: np.ndarray  # (12,)
    gravity: np.ndarray  # (3,) unit, body frame
    heights: np.ndarray  # (77,) relative to base height

    def __post_init__(self):
        self.command = np.asarray(self.command, dtype=float).reshape(3)
        self.q = np.asarray(self.q, dtype=float).reshape(12)
        self.dq = np.asarray(self.dq, dtype=float).reshape(12)
        self.gravity = np.asarray(self.gravity, dtype=float).reshape(3)
        if abs(np.linalg.norm(self.gravity) - 1.0) > 1e-6:
            raise ValueError("projected gravity must be a unit vector")
        self.heights = np.asarray(self.heights, dtype=float).reshape(N_HEIGHT_SAMPLES)

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.command, self.q, self.dq, self.gravity, self.heights])


def sample_grid_positions(base_pose: Pose) -> np.ndarray:
    """World xy of the 77 sample positions, yaw-aligned, centered on the base."""
    return yaw_aligned_grid(base_pose, *HEIGHT_GRID, HEIGHT_PITCH)


def sample_heights(
    emap: ElevationMap, base_pose: Pose
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (77 relative heights, world xy positions, default-fill mask)."""
    positions = sample_grid_positions(base_pose)
    heights, valid = emap.query_heights(positions)
    values = np.where(valid, heights - base_pose.position[2], DEFAULT_RELATIVE_HEIGHT)
    return values, positions, ~valid


@dataclass
class HeightNoiseState(Validated):
    sample_sigma: float = rule(NON_NEGATIVE, default=0.01)
    bias_sigma: np.ndarray = rule(NON_NEGATIVE, 3, default=(0.02, 0.02, 0.02))
    bias: np.ndarray = rule(FINITE, 3, default=(0.0, 0.0, 0.0))
    last_resample: float | None = None

    def maybe_resample(self, t: float, rng: np.random.Generator) -> None:
        if self.last_resample is None or t - self.last_resample >= BIAS_RESAMPLE_PERIOD:
            self.bias = rng.normal(0.0, 1.0, 3) * self.bias_sigma
            self.last_resample = t


def apply_height_noise(
    samples: np.ndarray,
    positions: np.ndarray,
    state: HeightNoiseState,
    t: float,
    emap: ElevationMap,
    rng: np.random.Generator,
    base_z: float,
) -> np.ndarray:
    """Bias-shifted re-sampling of the map plus per-sample Gaussian noise.

    The xy bias shifts the query positions (map-frame drift semantics); the z
    bias and the per-sample noise are additive. Deterministic given the rng.
    """
    state.maybe_resample(t, rng)
    if state.sample_sigma == 0 and not state.bias.any():
        return np.asarray(samples, dtype=float).copy()
    shifted = np.asarray(positions, dtype=float) + state.bias[:2]
    heights, valid = emap.query_heights(shifted)
    values = np.where(valid, heights - base_z, DEFAULT_RELATIVE_HEIGHT)
    values = values + state.bias[2]
    values = values + rng.normal(0.0, 1.0, len(values)) * state.sample_sigma
    return values


class HistoryBuffer:
    """Ring of the last HISTORY_STEPS frames; flattens oldest-first. Before
    the buffer is warm, missing slots replicate the earliest frame.
    """

    def __init__(self):
        self.frames: list[ObservationFrame] = []

    def push_and_flatten(self, frame: ObservationFrame) -> np.ndarray:
        self.frames.append(frame)
        if len(self.frames) > HISTORY_STEPS:
            self.frames.pop(0)
        pad = [self.frames[0]] * (HISTORY_STEPS - len(self.frames))
        return np.concatenate([f.flatten() for f in pad + self.frames])

