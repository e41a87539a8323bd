"""Per-tick reward ledger: tracking kernels, penalty terms, weighted total.

Each term is computed as a non-negative magnitude (or a signed credit for the
air-time term) and its signed weight carries the penalty. A negative weighted
sum is scaled down by a fixed factor so penalties cannot dominate the
tracking objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import FINITE, POSITIVE, Validated, interval, rule
from .sensorsim import Q_STAND, TRUNK_HEIGHT, RobotState

# Unitree Go1 joint torque limit (vendor spec, body joints)
GO1_TORQUE_LIMIT = 23.7

DEFAULT_WEIGHTS = {
    "lin_vel_track": 1.0,
    "ang_vel_track": 0.5,
    "feet_air_time": 3.0,
    "lin_vel_z": -2.0,
    "ang_vel_xy": -0.05,
    "joint_position": -0.1,
    "joint_acceleration": -2.5e-7,
    "joint_torques": -0.0002,
    "action_rate": -0.01,
    "collisions": -1.0,
    "trunk_height": -5.0,
    "torque_limits": -10.0,
}


@dataclass(frozen=True)
class RewardConfig(Validated):
    weights: dict[str, float] = rule(FINITE, dict, default_factory=lambda: dict(DEFAULT_WEIGHTS))
    tracking_sigma: float = rule(POSITIVE, default=0.25)
    air_time_target: float = rule(FINITE, default=0.25)
    negative_scale: float = rule(interval("in (0, 1]", 0.0, 1.0, hi_closed=True), default=0.25)
    tau_limit: float = rule(FINITE, default=GO1_TORQUE_LIMIT)


def phi(x, sigma: float = 0.25) -> float | np.ndarray:
    """Tracking kernel exp(-||x||^2 / sigma^2); 1 at zero error. One error x
    gives a float, an (N, k) stack of N errors gives N values."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k = np.exp(-np.vecdot(x, x) / sigma**2)
    return float(k) if k.ndim == 0 else k


def _square(x: np.ndarray) -> np.ndarray:
    """x ** 2 rounded as libm's pow, which a float's `** 2` calls; an
    array's `** 2` is x * x, which rounds apart about once in 1,000."""
    return np.float_power(x, 2)


@dataclass
class RewardBreakdown:
    """Floats for one tick, (N,) arrays for a stack of N."""

    raw: dict[str, float | np.ndarray]
    weighted: dict[str, float | np.ndarray]
    pre_scale_sum: float | np.ndarray
    total: float | np.ndarray


def compute_terms(
    state: RobotState,
    cmd: np.ndarray,
    action: np.ndarray,
    prev_action: np.ndarray,
    torques: np.ndarray,
    collisions: int,
    cfg: RewardConfig,
    joint_accel: np.ndarray | None = None,
    terrain_height: float = 0.0,
) -> RewardBreakdown:
    """Evaluate every reward term for one control tick, or for N at once.

    For N ticks `state` is a stack of N rows, as `Trajectory.state(ticks)`
    gives, and each other argument is N rows or one value for all of them;
    each row of the result has the bits of a call on that tick alone.
    `terrain_height` is the local ground height used to turn the world base z
    into a trunk height. Air-time credit is granted at touchdown events.
    """
    action, prev_action = np.asarray(action, dtype=float), np.asarray(prev_action, dtype=float)
    if action.shape != prev_action.shape:
        raise ValueError("action / prev_action shape mismatch")
    n = np.shape(state.position)[:-1]  # () for one tick, (N,) for a stack
    cmd, tau = np.asarray(cmd, dtype=float), np.asarray(torques, dtype=float)
    qdd = np.zeros(12) if joint_accel is None else np.asarray(joint_accel, dtype=float)
    v, w, td = state.lin_vel_body, state.ang_vel_body, state.foot_touchdown_air
    sigma = cfg.tracking_sigma

    raw = {
        "lin_vel_track": phi(cmd[..., :2] - v[..., :2], sigma),
        "ang_vel_track": phi(cmd[..., 2:] - w[..., 2:], sigma),
        # a foot off its touchdown tick adds 0.0, which leaves the sum as is
        "feet_air_time": np.sum(np.where(td > 0, td - cfg.air_time_target, 0.0), axis=-1),
        "lin_vel_z": _square(v[..., 2]),
        "ang_vel_xy": _square(w[..., 0]) + _square(w[..., 1]),
        "joint_position": np.sum((state.q - Q_STAND) ** 2, axis=-1),
        "joint_acceleration": np.vecdot(qdd, qdd),
        "joint_torques": np.vecdot(tau, tau),
        "action_rate": np.sum((action - prev_action) ** 2, axis=-1),
        "collisions": np.asarray(collisions, dtype=float),
        "trunk_height": _square(state.position[..., 2] - terrain_height - TRUNK_HEIGHT),
        "torque_limits": np.sum(np.maximum(0.0, np.abs(tau) - cfg.tau_limit), axis=-1),
    }
    raw = {name: np.broadcast_to(val, n) if n else float(val) for name, val in raw.items()}
    weighted = {name: cfg.weights[name] * val for name, val in raw.items()}
    b = RewardBreakdown(raw, weighted, pre_scale_sum=sum(weighted.values()), total=None)
    b.total = total(b, cfg)
    return b


def total(breakdown: RewardBreakdown, cfg: RewardConfig) -> float | np.ndarray:
    """Weighted sum with the negative branch scaled down; the one home of
    that rule."""
    s = breakdown.pre_scale_sum
    t = np.where(s >= 0, s, cfg.negative_scale * s)
    return float(t) if t.ndim == 0 else t
