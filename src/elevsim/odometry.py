"""Synthetic odometry sources and their loosely-coupled EKF fusion.

Three sources are derived from the ground-truth trajectory: a body-frame
velocity estimator (50 Hz), an IMU orientation stream (200 Hz), and a
drifting pose source standing in for visual-inertial odometry (90 Hz, with
dropout windows). The EKF treats IMU orientation as a direct input, predicts
position from the fused velocity, and applies velocity / pose measurement
updates with Mahalanobis gating. Removing the pose source changes nothing but
skipping its update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import quat_mul, quat_normalize, quat_rotate
from .schema import FINITE, NON_NEGATIVE, Validated, rule
from .sensorsim import Trajectory


@dataclass(frozen=True)
class EstimatorErrors(Validated):
    vel_sigma: np.ndarray = rule(NON_NEGATIVE, 3, default=(0.02, 0.02, 0.01))
    bias: np.ndarray = rule(FINITE, 3, default=(0.03, 0.02, 0.02))


@dataclass(frozen=True)
class ImuErrors(Validated):
    orient_sigma: float = rule(NON_NEGATIVE, default=0.002)  # rad, per-axis small-angle


@dataclass(frozen=True)
class VioErrors(Validated):
    walk_rate: float = rule(NON_NEGATIVE, default=0.005)  # m / sqrt(s) position random walk
    sample_sigma: float = rule(NON_NEGATIVE, default=0.01)  # m per-sample noise
    dropouts: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "dropouts", tuple(tuple(w) for w in self.dropouts))
        for w in self.dropouts:
            if len(w) != 2 or not (np.isfinite(w).all() and w[0] < w[1]):
                raise ValueError(f"vio dropouts must be finite (t0, t1) pairs with t0 < t1: {w}")


@dataclass(frozen=True)
class SourceErrorModel:
    estimator: EstimatorErrors = field(default_factory=EstimatorErrors)
    imu: ImuErrors = field(default_factory=ImuErrors)
    vio: VioErrors = field(default_factory=VioErrors)


@dataclass
class SourceStreams:
    """The three sampled sources, one row per sample."""

    est_t: np.ndarray  # (Ne,)
    est_v: np.ndarray  # (Ne, 3) body-frame velocity
    imu_t: np.ndarray  # (Ni,)
    imu_quat: np.ndarray  # (Ni, 4)
    vio_t: np.ndarray  # (Nv,) outside the dropout windows
    vio_pos: np.ndarray  # (Nv, 3)


SOURCE_RATES = (50.0, 200.0, 90.0)  # Hz: velocity estimator, IMU, VIO
INITIAL_COV = 1e-6  # per-state variance of the filter's initial covariance
Q_POS = 1e-8  # process noise densities (per second)
Q_VEL = 1e-3
R_VEL = 2.5e-3  # velocity measurement variance, m^2/s^2
R_POS = 1e-4  # pose measurement variance, m^2
GATE = 9.0  # Mahalanobis rejection threshold


def _nearest_states(ts: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Index of the tick in `ts` nearest to each of `times`."""
    idx = np.clip(np.searchsorted(ts, times), 0, len(ts) - 1)
    left = np.clip(idx - 1, 0, len(ts) - 1)
    return np.where(np.abs(ts[left] - times) < np.abs(ts[idx] - times), left, idx)


def make_source_streams(
    traj: Trajectory,
    model: SourceErrorModel,
    seed: int,
) -> SourceStreams:
    """Sample the three sources from ground truth. Deterministic per seed.

    Each source draws its noise row by row, in the order a per-sample loop
    would, so a stream's values do not depend on how it is computed.
    """
    if len(traj) == 0:
        raise ValueError("empty ground-truth stream")
    t_end = traj.t[-1]
    root = np.random.SeedSequence(seed)
    rng_est, rng_imu, rng_vio = (np.random.default_rng(s) for s in root.spawn(3))

    est_rate, imu_rate, vio_rate = SOURCE_RATES
    est_t = np.arange(0.0, t_end + 1e-9, 1.0 / est_rate)
    imu_t = np.arange(0.0, t_end + 1e-9, 1.0 / imu_rate)
    vio_t = np.arange(0.0, t_end + 1e-9, 1.0 / vio_rate)

    k = _nearest_states(traj.t, est_t)
    est_v = traj.v_body[k] + model.estimator.bias
    est_v = est_v + rng_est.normal(0.0, 1.0, (len(k), 3)) * model.estimator.vel_sigma

    k = _nearest_states(traj.t, imu_t)
    imu_quat = traj.quat[k]
    if model.imu.orient_sigma > 0:
        # per sample: 3 orientation draws, then 3 gyro draws that the fusion
        # does not read but that keep the seeded noise sequence
        z = rng_imu.normal(0.0, 1.0, (len(k), 6))
        dtheta = model.imu.orient_sigma * z[:, :3]
        dq = np.column_stack([np.ones(len(k)), 0.5 * dtheta])
        imu_quat = quat_normalize(quat_mul(imu_quat, dq))

    k = _nearest_states(traj.t, vio_t)
    # per sample: 3 random-walk draws, then 3 sample-noise draws
    z = rng_vio.normal(0.0, 1.0, (len(k), 6))
    walk_step = z[:, :3] * model.vio.walk_rate * np.sqrt(1.0 / vio_rate)
    walk = np.cumsum(walk_step, axis=0)
    vio_pos = traj.pos[k] + walk + z[:, 3:] * model.vio.sample_sigma
    keep = np.ones(len(k), dtype=bool)
    for t0, t1 in model.vio.dropouts:
        keep &= ~((t0 <= vio_t) & (vio_t < t1))

    return SourceStreams(
        est_t=est_t,
        est_v=est_v,
        imu_t=imu_t,
        imu_quat=imu_quat,
        vio_t=vio_t[keep],
        vio_pos=vio_pos[keep],
    )


def _check_psd(P, context: str) -> np.ndarray:
    """Symmetrize a 2x2 covariance, given as an array or as nested lists;
    its smaller eigenvalue must not be below -1e-9. Returns an array with
    the bits of 0.5 * (P + P.T), computed on scalars."""
    (a, b), (b_t, c) = P
    a, b, c = 0.5 * (a + a), 0.5 * (b + b_t), 0.5 * (c + c)
    if 0.5 * (a + c) - math.hypot(0.5 * (a - c), b) < -1e-9:
        raise RuntimeError(f"covariance lost positive semi-definiteness in {context}")
    return np.array([[a, b], [b, c]])


class OdometryEkf:
    """Loosely-coupled fusion: IMU orientation in, velocity and optional
    pose measurement updates. Fixed per-tick order: predict, velocity, pose.

    The state is world-frame position and velocity. Every model matrix is
    isotropic, so the three axes share one 2x2 (position, velocity)
    covariance `cov`, and the Mahalanobis gate couples them: a rejected
    update skips all three. `quat` is the latest IMU orientation; it rotates
    body-frame velocity samples into the world frame and is not estimated.

    The fused bits are those of the full 6x6 filter. They depend on storing
    every quaternion through `quat_normalize` exactly once (`quat_rotate`
    normalizes once more, and a second normalization can change the last
    bit): the constructor normalizes its quaternion, and `predict` stores a
    unit quaternion as given, which `fuse_streams` normalizes with the rest
    of the IMU stream. They also depend on multiplying by 1 / s rather than
    dividing by s, and on keeping the 2x2 products and the gate's dot in
    numpy, whose BLAS may fuse a multiply and an add where scalar arithmetic
    rounds twice; the rest of the bookkeeping is on Python floats.
    """

    def __init__(self, position, velocity, quat, t: float = 0.0):
        self.position = np.array(position, dtype=float).reshape(3)
        self.velocity = np.array(velocity, dtype=float).reshape(3)
        self.quat = quat_normalize(quat)
        self.t = t
        self.cov = np.eye(2) * INITIAL_COV
        self.rejected_velocity = 0
        self.rejected_pose = 0

    def predict(self, imu_quat: np.ndarray, dt: float) -> None:
        """Advance by dt and take `imu_quat`, a unit quaternion, as the
        orientation."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        F = np.array([[1.0, dt], [0.0, 1.0]])
        (a, b), (b_t, d) = (F @ self.cov @ F.T).tolist()
        # + Q = diag(q_pos dt, q_vel dt); its zeros turn a -0.0 into +0.0
        P = [[a + Q_POS * dt, b + 0.0], [b_t + 0.0, d + Q_VEL * dt]]
        self.cov = _check_psd(P, "predict")
        self.position = self.position + self.velocity * dt
        self.quat = imu_quat
        self.t = self.t + dt

    def _update(self, j: int, innovation: np.ndarray, r: float) -> bool:
        """Measurement of state row `j` (0 position, 1 velocity) on every
        axis, with variance `r` per axis."""
        P = self.cov
        rows = P.tolist()
        inv_s = 1.0 / (rows[j][j] + r)
        if innovation @ (innovation * inv_s) > GATE:
            return False
        # the gain, the same on every axis: k0 for position, k1 for velocity
        k0, k1 = rows[0][j] * inv_s, rows[1][j] * inv_s
        I_KH = [[1.0, 0.0], [0.0, 1.0]]
        I_KH[0][j] -= k0
        I_KH[1][j] -= k1
        I_KH = np.array(I_KH)
        k = np.array([[k0], [k1]])
        P = I_KH @ P @ I_KH.T + (k * r) @ k.T  # Joseph form
        self.cov = _check_psd(P.tolist(), "update")
        self.position = self.position + k0 * innovation
        self.velocity = self.velocity + k1 * innovation
        return True

    def update_velocity(self, v_body: np.ndarray) -> bool:
        """World-frame velocity update from a body-frame estimator sample."""
        z = quat_rotate(self.quat, np.asarray(v_body, dtype=float))
        if self._update(1, z - self.velocity, R_VEL):
            return True
        self.rejected_velocity += 1
        return False

    def update_pose(self, position: np.ndarray) -> bool:
        """Position update from the drifting pose (VIO stand-in) source."""
        innovation = np.asarray(position, dtype=float) - self.position
        if self._update(0, innovation, R_POS):
            return True
        self.rejected_pose += 1
        return False


@dataclass
class FusedTrajectory:
    t: np.ndarray
    positions: np.ndarray  # (N, 3)
    velocities: np.ndarray  # (N, 3) world frame


def fuse_streams(
    streams: SourceStreams, traj: Trajectory, use_vio: bool = True
) -> FusedTrajectory:
    """Run the EKF from the trajectory's first row over the timestamp-merged
    streams, one output row per event. Within one tick, events are applied
    in the fixed order: IMU orientation (predict), velocity, pose.
    """
    ekf = OdometryEkf(
        traj.pos[0], quat_rotate(traj.quat[0], traj.v_body[0]), traj.quat[0], float(traj.t[0])
    )
    # each row normalizes to the bits of a single call
    imu_quat = quat_normalize(streams.imu_quat)
    grids = [streams.imu_t, streams.est_t] + ([streams.vio_t] if use_vio else [])
    sizes = [len(g) for g in grids]
    t_all = np.concatenate(grids)
    kind = np.repeat(np.arange(len(grids)), sizes)
    order = np.lexsort((kind, t_all))
    kinds = kind[order]
    rows = order - np.cumsum([0] + sizes)[kinds]

    ts = np.empty(len(order))
    positions = np.empty((len(order), 3))
    velocities = np.empty((len(order), 3))
    for i, (t, k, row) in enumerate(zip(t_all[order].tolist(), kinds.tolist(), rows.tolist())):
        if k == 0:
            dt = t - ekf.t
            if dt > 0:
                ekf.predict(imu_quat[row], dt)
            else:
                ekf.quat = imu_quat[row]
        elif k == 1:
            ekf.update_velocity(streams.est_v[row])
        else:
            ekf.update_pose(streams.vio_pos[row])
        ts[i] = ekf.t
        positions[i] = ekf.position
        velocities[i] = ekf.velocity
    return FusedTrajectory(t=ts, positions=positions, velocities=velocities)
