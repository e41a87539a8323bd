"""Per-tick reward ledger: tracking kernels, penalty terms, weighted total.

Each term is computed as a non-negative magnitude (or a signed credit for the
air-time term) and its signed weight carries the penalty. A negative weighted
sum is scaled down by a fixed factor so penalties cannot dominate the
tracking objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


@dataclass
class RewardConfig:
    weights: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))
    tracking_sigma: float = 0.25
    air_time_target: float = 0.25
    negative_scale: float = 0.25
    tau_limit: float = GO1_TORQUE_LIMIT

    def __post_init__(self):
        if self.tracking_sigma <= 0:
            raise ValueError("tracking sigma must be positive")
        if not (0 < self.negative_scale <= 1):
            raise ValueError("negative-total scale must be in (0, 1]")


def phi(x, sigma: float = 0.25) -> float:
    """Tracking kernel exp(-||x||^2 / sigma^2); 1 at zero error."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(np.exp(-(x @ x) / sigma**2))


@dataclass
class RewardBreakdown:
    raw: dict[str, float]
    weighted: dict[str, float]
    pre_scale_sum: float
    total: float


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
    """Evaluate every reward term for one control tick.

    `terrain_height` is the local ground height used to turn the world base z
    into a trunk height. Air-time credit is granted at touchdown events.
    """
    cmd = np.asarray(cmd, dtype=float).reshape(3)
    action = np.asarray(action, dtype=float)
    prev_action = np.asarray(prev_action, dtype=float)
    torques = np.asarray(torques, dtype=float).reshape(12)
    if action.shape != prev_action.shape:
        raise ValueError("action / prev_action shape mismatch")
    qdd = np.zeros(12) if joint_accel is None else np.asarray(joint_accel).reshape(12)

    v = state.lin_vel_body
    w = state.ang_vel_body
    td = state.foot_touchdown_air
    sigma = cfg.tracking_sigma

    raw = {
        "lin_vel_track": phi(cmd[:2] - v[:2], sigma),
        "ang_vel_track": phi(cmd[2] - w[2], sigma),
        "feet_air_time": float(np.sum((td[td > 0] - cfg.air_time_target))),
        "lin_vel_z": float(v[2] ** 2),
        "ang_vel_xy": float(w[0] ** 2 + w[1] ** 2),
        "joint_position": float(np.sum((state.q - Q_STAND) ** 2)),
        "joint_acceleration": float(qdd @ qdd),
        "joint_torques": float(torques @ torques),
        "action_rate": float(np.sum((action - prev_action) ** 2)),
        "collisions": float(collisions),
        "trunk_height": float((state.position[2] - terrain_height - TRUNK_HEIGHT) ** 2),
        "torque_limits": float(np.sum(np.maximum(0.0, np.abs(torques) - cfg.tau_limit))),
    }
    weighted = {name: cfg.weights[name] * val for name, val in raw.items()}
    pre = float(sum(weighted.values()))
    return RewardBreakdown(
        raw=raw,
        weighted=weighted,
        pre_scale_sum=pre,
        total=pre if pre >= 0 else cfg.negative_scale * pre,
    )


def total(breakdown: RewardBreakdown, cfg: RewardConfig) -> float:
    """Weighted sum with the negative branch scaled down."""
    s = breakdown.pre_scale_sum
    return s if s >= 0 else cfg.negative_scale * s
