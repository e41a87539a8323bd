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

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import quat_mul, quat_normalize, quat_rotate
from .sensorsim import RobotState, Trajectory


@dataclass
class EstimatorErrors:
    vel_sigma: np.ndarray = field(default_factory=lambda: np.array([0.02, 0.02, 0.01]))
    bias: np.ndarray = field(default_factory=lambda: np.array([0.03, 0.02, 0.02]))

    def __post_init__(self):
        self.vel_sigma = np.asarray(self.vel_sigma, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if (self.vel_sigma < 0).any():
            raise ValueError("sigma must be non-negative")


@dataclass
class ImuErrors:
    orient_sigma: float = 0.002  # rad, per-axis small-angle

    def __post_init__(self):
        if self.orient_sigma < 0:
            raise ValueError("sigma must be non-negative")


@dataclass
class VioErrors:
    walk_rate: float = 0.005  # m / sqrt(s) position random walk
    sample_sigma: float = 0.01  # m per-sample noise
    dropouts: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.walk_rate < 0 or self.sample_sigma < 0:
            raise ValueError("sigma must be non-negative")
        for w in self.dropouts:
            if len(w) != 2 or not (np.isfinite(w).all() and w[0] < w[1]):
                raise ValueError(f"vio dropouts must be finite (t0, t1) pairs with t0 < t1: {w}")


@dataclass
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


@dataclass
class EkfConfig:
    q_pos: float = 1e-8  # process noise densities (per second)
    q_vel: float = 1e-3
    r_vel: float = 2.5e-3  # velocity measurement variance, m^2/s^2
    r_pos: float = 1e-4  # pose measurement variance, m^2
    gate: float = 9.0  # Mahalanobis rejection threshold


@dataclass
class EkfState:
    """Fused position/velocity with a 6x6 covariance over (position,
    velocity). `quat` is the latest IMU orientation; it rotates body-frame
    velocity samples into the world frame and is not estimated."""

    position: np.ndarray
    velocity: np.ndarray
    quat: np.ndarray
    cov: np.ndarray
    t: float

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        self.velocity = np.asarray(self.velocity, dtype=float).reshape(3)
        self.quat = quat_normalize(self.quat)
        self.cov = np.asarray(self.cov, dtype=float).reshape(6, 6)


def _check_psd(P: np.ndarray, context: str) -> np.ndarray:
    P = 0.5 * (P + P.T)
    w = np.linalg.eigvalsh(P)
    if w.min() < -1e-9:
        raise RuntimeError(f"covariance lost positive semi-definiteness in {context}")
    return P


class OdometryEkf:
    """Loosely-coupled fusion: IMU orientation in, velocity and optional
    pose measurement updates. Fixed per-tick order: predict, velocity, pose.
    """

    def __init__(self, initial: EkfState, cfg: EkfConfig | None = None):
        self.state = initial
        self.cfg = cfg or EkfConfig()
        self.rejected_velocity = 0
        self.rejected_pose = 0

    def predict(self, imu_quat: np.ndarray, dt: float) -> EkfState:
        if dt <= 0:
            raise ValueError("dt must be positive")
        s, c = self.state, self.cfg
        F = np.eye(6)
        F[0:3, 3:6] = dt * np.eye(3)
        Q = np.zeros((6, 6))
        Q[0:3, 0:3] = c.q_pos * dt * np.eye(3)
        Q[3:6, 3:6] = c.q_vel * dt * np.eye(3)
        P = F @ s.cov @ F.T + Q
        P = _check_psd(P, "predict")
        self.state = EkfState(
            position=s.position + s.velocity * dt,
            velocity=s.velocity,
            quat=imu_quat,
            cov=P,
            t=s.t + dt,
        )
        return self.state

    def _update(self, H: np.ndarray, innovation: np.ndarray, R: np.ndarray) -> bool:
        s, c = self.state, self.cfg
        S = H @ s.cov @ H.T + R
        maha = float(innovation @ np.linalg.solve(S, innovation))
        if maha > c.gate:
            return False
        K = s.cov @ H.T @ np.linalg.inv(S)
        dx = K @ innovation
        I_KH = np.eye(6) - K @ H
        P = I_KH @ s.cov @ I_KH.T + K @ R @ K.T  # Joseph form
        P = _check_psd(P, "update")
        self.state = replace(
            s,
            position=s.position + dx[0:3],
            velocity=s.velocity + dx[3:6],
            cov=P,
        )
        return True

    def update_velocity(self, v_body: np.ndarray) -> bool:
        """World-frame velocity update from a body-frame estimator sample."""
        z = quat_rotate(self.state.quat, np.asarray(v_body, dtype=float))
        H = np.zeros((3, 6))
        H[:, 3:6] = np.eye(3)
        ok = self._update(H, z - self.state.velocity, self.cfg.r_vel * np.eye(3))
        if not ok:
            self.rejected_velocity += 1
        return ok

    def update_pose(self, position: np.ndarray) -> bool:
        """Position update from the drifting pose (VIO stand-in) source."""
        H = np.zeros((3, 6))
        H[:, 0:3] = np.eye(3)
        ok = self._update(
            H, np.asarray(position, dtype=float) - self.state.position,
            self.cfg.r_pos * np.eye(3),
        )
        if not ok:
            self.rejected_pose += 1
        return ok


@dataclass
class FusedTrajectory:
    t: np.ndarray
    positions: np.ndarray  # (N, 3)
    velocities: np.ndarray  # (N, 3) world frame


def fuse_streams(
    streams: SourceStreams,
    initial: EkfState,
    cfg: EkfConfig | None = None,
    use_vio: bool = True,
) -> FusedTrajectory:
    """Run the EKF over timestamp-merged streams. Within one tick, updates
    are applied in the fixed order: predict, velocity, pose.
    """
    ekf = OdometryEkf(initial, cfg)
    # (t, kind, row): IMU orientation, body velocity, VIO position
    events = [(t, 0, q) for t, q in zip(streams.imu_t.tolist(), streams.imu_quat)]
    events += [(t, 1, v) for t, v in zip(streams.est_t.tolist(), streams.est_v)]
    if use_vio:
        events += [(t, 2, p) for t, p in zip(streams.vio_t.tolist(), streams.vio_pos)]
    events.sort(key=lambda e: (e[0], e[1]))

    ts, ps, vs = [], [], []
    for t, kind, row in events:
        if kind == 0:
            dt = t - ekf.state.t
            if dt > 0:
                ekf.predict(row, dt)
            else:
                ekf.state = replace(ekf.state, quat=row)
        elif kind == 1:
            ekf.update_velocity(row)
        else:
            ekf.update_pose(row)
        ts.append(ekf.state.t)
        ps.append(ekf.state.position.copy())
        vs.append(ekf.state.velocity.copy())
    return FusedTrajectory(t=np.array(ts), positions=np.array(ps), velocities=np.array(vs))


def initial_state_from(state: RobotState) -> EkfState:
    v_world = quat_rotate(state.quat, state.lin_vel_body)
    return EkfState(
        position=state.position.copy(),
        velocity=v_world,
        quat=state.quat.copy(),
        cov=np.eye(6) * INITIAL_COV,
        t=state.t,
    )
