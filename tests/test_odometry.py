from dataclasses import dataclass, replace

import numpy as np
import pytest

from elevsim import odometry
from elevsim.geometry import quat_from_yaw, quat_mul, quat_normalize, quat_rotate
from elevsim.odometry import (
    EkfConfig,
    EkfState,
    EstimatorErrors,
    ImuErrors,
    OdometryEkf,
    SourceErrorModel,
    VioErrors,
    fuse_streams,
    initial_state_from,
    make_source_streams,
)


def _noiseless_model(bias=(0.0, 0.0, 0.0)):
    return SourceErrorModel(
        estimator=EstimatorErrors(vel_sigma=np.zeros(3), bias=np.array(bias)),
        imu=ImuErrors(orient_sigma=0.0),
        vio=VioErrors(walk_rate=0.0, sample_sigma=0.0),
    )


def _initial(position=(0, 0, 0), velocity=(0, 0, 0), quat=None, cov=1e-6):
    return EkfState(
        position=np.asarray(position, dtype=float),
        velocity=np.asarray(velocity, dtype=float),
        quat=np.array([1.0, 0, 0, 0]) if quat is None else quat,
        cov=np.eye(6) * cov,
        t=0.0,
    )


def _reference_streams(traj, model, seed):
    """Sample-by-sample source generation, the oracle for the array version."""
    rng_est, rng_imu, rng_vio = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    est_t, imu_t, vio_times = (np.arange(0.0, traj.t[-1] + 1e-9, 1.0 / r) for r in (50, 200, 90))

    def nearest(t):
        return int(np.argmin(np.abs(traj.t - t)))

    est_v = []
    for t in est_t:
        v = traj.v_body[nearest(t)] + model.estimator.bias
        est_v.append(v + rng_est.normal(0.0, 1.0, 3) * model.estimator.vel_sigma)
    imu_quat = []
    for t in imu_t:
        q = traj.quat[nearest(t)]
        if model.imu.orient_sigma > 0:
            dtheta = rng_imu.normal(0.0, model.imu.orient_sigma, 3)
            q = quat_normalize(quat_mul(q, np.concatenate([[1.0], 0.5 * dtheta])))
            rng_imu.normal(0.0, 1.0, 3)  # gyro noise, drawn but not streamed
        imu_quat.append(q)
    vio_t, vio_pos = [], []
    walk = np.zeros(3)
    for t in vio_times:
        walk = walk + rng_vio.normal(0.0, 1.0, 3) * model.vio.walk_rate * np.sqrt(1.0 / 90)
        noise = rng_vio.normal(0.0, 1.0, 3) * model.vio.sample_sigma
        if not any(t0 <= t < t1 for t0, t1 in model.vio.dropouts):
            vio_t.append(t)
            vio_pos.append(traj.pos[nearest(t)] + walk + noise)
    columns = dict(est_t=est_t, est_v=est_v, imu_t=imu_t, imu_quat=imu_quat)
    columns.update(vio_t=vio_t, vio_pos=vio_pos)
    return {name: np.array(col) for name, col in columns.items()}


@dataclass
class _NineState:
    """EkfState with a 9x9 covariance over (position, velocity, attitude
    error); like EkfState, it normalizes the quaternion on construction."""

    position: np.ndarray
    velocity: np.ndarray
    quat: np.ndarray
    cov: np.ndarray
    t: float

    def __post_init__(self):
        self.quat = quat_normalize(self.quat)


class _NineStateEkf(OdometryEkf):
    """The earlier nine-state filter, the oracle for the six-state one: its
    attitude block is reset on every predict and read by no update."""

    R_ATT = 1e-5  # attitude pseudo-measurement variance, rad^2

    def __init__(self, initial, cfg=None):
        # the IMU sample at t = 0 replaces the initial quaternion before any
        # update reads it
        super().__init__(_NineState(initial.position, initial.velocity, initial.quat,
                                    np.eye(9) * odometry.INITIAL_COV, initial.t), cfg)

    def predict(self, imu_quat, dt):
        s, c = self.state, self.cfg
        F = np.eye(9)
        F[0:3, 3:6] = dt * np.eye(3)
        Q = np.zeros((9, 9))
        Q[0:3, 0:3] = c.q_pos * dt * np.eye(3)
        Q[3:6, 3:6] = c.q_vel * dt * np.eye(3)
        P = F @ s.cov @ F.T + Q
        P[6:9, 6:9] = np.eye(3) * self.R_ATT
        P[0:6, 6:9] = 0.0
        P[6:9, 0:6] = 0.0
        P = odometry._check_psd(P, "predict")
        self.state = _NineState(s.position + s.velocity * dt, s.velocity, imu_quat, P, s.t + dt)
        return self.state

    def _update(self, H, innovation, R):
        s, c = self.state, self.cfg
        H = np.hstack([H, np.zeros((3, 3))])
        S = H @ s.cov @ H.T + R
        maha = float(innovation @ np.linalg.solve(S, innovation))
        if maha > c.gate:
            return False
        K = s.cov @ H.T @ np.linalg.inv(S)
        dx = K @ innovation
        I_KH = np.eye(9) - K @ H
        P = I_KH @ s.cov @ I_KH.T + K @ R @ K.T
        P = odometry._check_psd(P, "update")
        self.state = replace(
            s, position=s.position + dx[0:3], velocity=s.velocity + dx[3:6], cov=P
        )
        return True


def _fuse_with(monkeypatch, ekf_cls, streams, initial, use_vio):
    """`fuse_streams` run with `ekf_cls` as its filter; returns the fused
    trajectory and the filter, for its reject counters."""
    made = []

    class Recorded(ekf_cls):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(odometry, "OdometryEkf", Recorded)
    fused = fuse_streams(streams, initial, use_vio=use_vio)
    return fused, made[0]


class TestSourceStreams:
    @pytest.mark.parametrize("noisy", [True, False])
    def test_matches_sample_by_sample_reference(self, short_trajectory, noisy):
        model = SourceErrorModel() if noisy else _noiseless_model(bias=(0.01, 0.0, 0.0))
        model.vio.dropouts = ((0.5, 1.0),)
        streams = make_source_streams(short_trajectory, model, seed=7)
        for name, expected in _reference_streams(short_trajectory, model, seed=7).items():
            got = getattr(streams, name)
            # same bits, signed zeros included
            assert got.dtype == expected.dtype and got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), name

    def test_rates_and_determinism(self, short_trajectory):
        model = SourceErrorModel()
        a = make_source_streams(short_trajectory, model, seed=5)
        b = make_source_streams(short_trajectory, model, seed=5)
        t_end = short_trajectory.t[-1]
        assert len(a.est_t) == len(a.est_v) == int(t_end * 50) + 1
        assert len(a.imu_t) == len(a.imu_quat) == int(t_end * 200) + 1
        assert len(a.vio_t) == len(a.vio_pos) == int(t_end * 90) + 1
        np.testing.assert_array_equal(a.est_v, b.est_v)
        np.testing.assert_array_equal(a.imu_quat, b.imu_quat)
        np.testing.assert_array_equal(a.vio_pos, b.vio_pos)

    def test_fixed_bias_enters_every_velocity_sample(self, short_trajectory):
        bias = (0.03, -0.01, 0.02)
        streams = make_source_streams(short_trajectory, _noiseless_model(bias), seed=0)
        errs = []
        ts = short_trajectory.t
        for t, v in zip(streams.est_t, streams.est_v):
            errs.append(v - short_trajectory.v_body[int(np.argmin(np.abs(ts - t)))])
        errs = np.array(errs)
        np.testing.assert_allclose(errs, np.broadcast_to(bias, errs.shape), atol=1e-12)

    def test_vio_dropout_windows_excluded(self, short_trajectory):
        model = _noiseless_model()
        model.vio.dropouts = ((0.5, 1.0),)
        streams = make_source_streams(short_trajectory, model, seed=0)
        ts = streams.vio_t
        assert len(ts) == len(streams.vio_pos)
        assert not np.any((ts >= 0.5) & (ts < 1.0))


class TestEkfCore:
    def test_scalar_kalman_oracle_single_axis(self):
        # one velocity update on a still filter matches the scalar formula
        cfg = EkfConfig(q_vel=0.0)
        p0 = 0.04
        ekf = OdometryEkf(_initial(cov=p0), cfg)
        z = np.array([0.3, 0.0, 0.0])
        ekf.update_velocity(z)
        k = p0 / (p0 + cfg.r_vel)
        assert ekf.state.velocity[0] == pytest.approx(k * 0.3, rel=1e-12)
        # Joseph form posterior variance
        expect_var = (1 - k) ** 2 * p0 + k**2 * cfg.r_vel
        assert ekf.state.cov[3, 3] == pytest.approx(expect_var, rel=1e-12)

    def test_predict_integrates_position(self):
        ekf = OdometryEkf(_initial(velocity=(1.0, 0.0, 0.0)))
        ekf.predict(np.array([1.0, 0, 0, 0]), dt=0.1)
        np.testing.assert_allclose(ekf.state.position, [0.1, 0, 0], atol=1e-15)
        assert ekf.state.t == pytest.approx(0.1)

    def test_predict_rejects_nonpositive_dt(self):
        ekf = OdometryEkf(_initial())
        with pytest.raises(ValueError):
            ekf.predict(np.array([1.0, 0, 0, 0]), dt=0.0)

    def test_velocity_update_rotates_body_frame(self):
        quat = quat_from_yaw(np.pi / 2)
        ekf = OdometryEkf(_initial(quat=quat, cov=1.0), EkfConfig(r_vel=1e-12))
        ekf.update_velocity(np.array([1.0, 0.0, 0.0]))
        # body +x at yaw 90 degrees is world +y
        np.testing.assert_allclose(ekf.state.velocity, [0, 1, 0], atol=1e-5)

    def test_mahalanobis_gate_rejects_outlier(self):
        ekf = OdometryEkf(_initial(cov=1e-6))
        ok = ekf.update_pose(np.array([10.0, 0.0, 0.0]))
        assert not ok
        assert ekf.rejected_pose == 1
        np.testing.assert_allclose(ekf.state.position, [0, 0, 0])

    def test_covariance_stays_psd_over_long_run(self, rng):
        ekf = OdometryEkf(_initial())
        for i in range(500):
            ekf.predict(np.array([1.0, 0, 0, 0]), dt=0.005)
            if i % 4 == 0:
                ekf.update_velocity(rng.normal(0.0, 0.1, 3))
            if i % 9 == 0:
                ekf.update_pose(ekf.state.position + rng.normal(0.0, 0.01, 3))
        w = np.linalg.eigvalsh(ekf.state.cov)
        assert w.min() >= -1e-9


class TestFusion:
    def test_zero_noise_fusion_tracks_ground_truth(self, short_trajectory):
        streams = make_source_streams(short_trajectory, _noiseless_model(), seed=0)
        fused = fuse_streams(streams, initial_state_from(short_trajectory.state(0)))
        ts = short_trajectory.t
        gt_pos = short_trajectory.pos
        est = np.stack(
            [np.interp(ts, fused.t, fused.positions[:, i]) for i in range(3)], axis=1
        )
        err = np.linalg.norm(est - gt_pos, axis=1)
        assert err.max() < 0.02

    def test_novio_drifts_with_bias(self, short_trajectory):
        streams = make_source_streams(
            short_trajectory, _noiseless_model(bias=(0.05, 0.0, 0.0)), seed=0
        )
        fused = fuse_streams(
            streams, initial_state_from(short_trajectory.state(0)), use_vio=False
        )
        t_end = short_trajectory.t[-1]
        drift = fused.positions[-1] - short_trajectory.pos[-1]
        assert drift[0] == pytest.approx(0.05 * t_end, rel=0.15)

    def test_vio_bounds_bias_drift(self, short_trajectory):
        streams = make_source_streams(
            short_trajectory, _noiseless_model(bias=(0.05, 0.0, 0.0)), seed=0
        )
        with_vio = fuse_streams(
            streams, initial_state_from(short_trajectory.state(0)), use_vio=True
        )
        without = fuse_streams(
            streams, initial_state_from(short_trajectory.state(0)), use_vio=False
        )
        gt_end = short_trajectory.pos[-1]
        assert np.linalg.norm(with_vio.positions[-1] - gt_end) < np.linalg.norm(
            without.positions[-1] - gt_end
        )

    def test_fusion_is_deterministic(self, short_trajectory):
        streams = make_source_streams(short_trajectory, SourceErrorModel(), seed=3)
        a = fuse_streams(streams, initial_state_from(short_trajectory.state(0)))
        b = fuse_streams(streams, initial_state_from(short_trajectory.state(0)))
        np.testing.assert_array_equal(a.positions, b.positions)


class TestSixStateMatchesNineState:
    @pytest.mark.parametrize("use_vio", [True, False])
    def test_same_bits_and_rejects(self, monkeypatch, short_trajectory, use_vio):
        # noisy enough that the gate rejects about a quarter of the velocity
        # and, with VIO, of the pose updates
        model = SourceErrorModel(
            estimator=EstimatorErrors(vel_sigma=np.full(3, 0.08)),
            vio=VioErrors(walk_rate=0.02, sample_sigma=0.01, dropouts=((0.6, 1.2),)),
        )
        streams = make_source_streams(short_trajectory, model, seed=11)
        initial = initial_state_from(short_trajectory.state(0))
        six, ekf6 = _fuse_with(monkeypatch, OdometryEkf, streams, initial, use_vio)
        nine, ekf9 = _fuse_with(monkeypatch, _NineStateEkf, streams, initial, use_vio)
        assert ekf6.state.cov.shape == (6, 6) and ekf9.state.cov.shape == (9, 9)
        for name in ("t", "positions", "velocities"):
            assert getattr(six, name).tobytes() == getattr(nine, name).tobytes(), name
        assert ekf6.rejected_velocity == ekf9.rejected_velocity > 0
        assert ekf6.rejected_pose == ekf9.rejected_pose
        if use_vio:
            assert ekf6.rejected_pose > 0


def test_error_model_validation():
    with pytest.raises(ValueError):
        EstimatorErrors(vel_sigma=np.array([-0.1, 0.0, 0.0]))
    with pytest.raises(ValueError):
        ImuErrors(orient_sigma=-1.0)
    with pytest.raises(ValueError):
        VioErrors(walk_rate=-0.1)
    # each used to fail at run start, deep in make_source_streams, or to
    # drop nothing
    for window in ((1.0,), (1.0, 0.5), (1.0, 1.0), (float("nan"), 1.0), (0.5, float("inf"))):
        with pytest.raises(ValueError, match="dropouts"):
            VioErrors(dropouts=(window,))
