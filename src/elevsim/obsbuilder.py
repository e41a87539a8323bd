"""Policy-facing observation assembly.

Height samples come from an 11 x 7 grid (0.05 m pitch, long axis forward) in
the yaw-aligned base frame, expressed relative to base height; unobserved
cells are filled with a default relative height. Two noise modalities can be
applied: per-sample Gaussian noise every step, and a constant (x, y, z) bias
redrawn on a fixed period. Frames are concatenated through a 10-step history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elevmap import ElevationMap
from .geometry import Pose, quat_conj, quat_rotate, yaw_aligned_grid
from .sensorsim import TRUNK_HEIGHT

HEIGHT_GRID = (11, 7)  # samples along forward (x) and lateral (y)
HEIGHT_PITCH = 0.05
N_HEIGHT_SAMPLES = HEIGHT_GRID[0] * HEIGHT_GRID[1]  # 77
FRAME_DIM = 3 + 12 + 12 + 3 + N_HEIGHT_SAMPLES  # 107
HISTORY_STEPS = 10
N_ESTIMATED = 3 + 1 + 4  # velocity, friction, contacts
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


def projected_gravity(quat: np.ndarray) -> np.ndarray:
    return quat_rotate(quat_conj(quat), np.array([0.0, 0.0, -1.0]))


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
class HeightNoiseState:
    sample_sigma: float = 0.01
    bias_sigma: np.ndarray = field(default_factory=lambda: np.array([0.02, 0.02, 0.02]))
    period: float = BIAS_RESAMPLE_PERIOD
    bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    last_resample: float | None = None

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("bias resample period must be positive")
        self.bias_sigma = np.asarray(self.bias_sigma, dtype=float).reshape(3)
        self.bias = np.asarray(self.bias, dtype=float).reshape(3)

    def maybe_resample(self, t: float, rng: np.random.Generator) -> None:
        if self.last_resample is None or t - self.last_resample >= self.period:
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
    """Ring of the last 10 frames; flattens oldest-first. Before the buffer
    is warm, missing slots replicate the earliest frame.
    """

    def __init__(self, capacity: int = HISTORY_STEPS):
        self.capacity = capacity
        self.frames: list[ObservationFrame] = []

    def push_and_flatten(self, frame: ObservationFrame) -> np.ndarray:
        self.frames.append(frame)
        if len(self.frames) > self.capacity:
            self.frames.pop(0)
        pad = [self.frames[0]] * (self.capacity - len(self.frames))
        return np.concatenate([f.flatten() for f in pad + self.frames])


@dataclass
class EstimationTargets:
    lin_vel: np.ndarray  # (3,) body frame
    friction: float
    contacts: np.ndarray  # (4,) booleans

    def __post_init__(self):
        self.lin_vel = np.asarray(self.lin_vel, dtype=float).reshape(3)
        self.contacts = np.asarray(self.contacts).astype(bool).reshape(4)

    def vector(self) -> np.ndarray:
        return np.concatenate(
            [self.lin_vel, [self.friction], self.contacts.astype(float)]
        )


def assemble_inputs(
    obs: np.ndarray, est: EstimationTargets, priv: EstimationTargets
) -> dict[str, np.ndarray]:
    """Actor gets observations + estimated variables, critic gets privileged
    ones; the privileged vector is also the estimator's training target.
    """
    obs = np.asarray(obs, dtype=float)
    if obs.shape != (HISTORY_STEPS * FRAME_DIM,):
        raise ValueError(
            f"expected flat observation of length {HISTORY_STEPS * FRAME_DIM}, got {obs.shape}"
        )
    ev, pv = est.vector(), priv.vector()
    if ev.shape != (N_ESTIMATED,) or pv.shape != (N_ESTIMATED,):
        raise ValueError("estimated/privileged vectors must have 8 entries")
    return {
        "actor": np.concatenate([obs, ev]),
        "critic": np.concatenate([obs, pv]),
        "estimator_target": pv,
    }
