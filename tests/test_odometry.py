from dataclasses import replace

import numpy as np
import pytest

from elevsim import odometry
from elevsim.geometry import quat_from_yaw, quat_mul, quat_normalize, quat_rotate
from elevsim.odometry import (
    EstimatorErrors,
    ImuErrors,
    OdometryEkf,
    SourceErrorModel,
    VioErrors,
    fuse_streams,
    make_source_streams,
)


def _noiseless_model(bias=(0.0, 0.0, 0.0)):
    return SourceErrorModel(
        estimator=EstimatorErrors(vel_sigma=np.zeros(3), bias=np.array(bias)),
        imu=ImuErrors(orient_sigma=0.0),
        vio=VioErrors(walk_rate=0.0, sample_sigma=0.0),
    )


def _with_dropouts(model, dropouts):
    """`model` with its VIO dropout windows replaced; configs are frozen."""
    return replace(model, vio=replace(model.vio, dropouts=dropouts))


def _ekf(position=(0, 0, 0), velocity=(0, 0, 0), quat=(1.0, 0, 0, 0), cov=None):
    """A filter at t = 0; `cov` replaces the initial per-axis variances."""
    ekf = OdometryEkf(position, velocity, np.asarray(quat, dtype=float), 0.0)
    if cov is not None:
        ekf.cov = np.eye(2) * cov
    return ekf


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


class _NineStateEkf:
    """The earlier nine-state filter over (position, velocity, attitude
    error) with one 9x9 covariance, the oracle for the per-axis one. Its
    attitude block is reset on every predict and read by no update. Like the
    filter, it normalizes the quaternion it starts from and stores the unit
    quaternion that `predict` gets as given. It reads the filter's noise
    constants from the module at each call."""

    R_ATT = 1e-5  # attitude pseudo-measurement variance, rad^2

    def __init__(self, position, velocity, quat, t=0.0):
        self.x = np.concatenate([position, velocity, np.zeros(3)]).astype(float)
        self.P = np.eye(9) * odometry.INITIAL_COV
        self.quat = quat_normalize(quat)
        self.t = t
        self.rejected_velocity = 0
        self.rejected_pose = 0

    position = property(lambda self: self.x[0:3])
    velocity = property(lambda self: self.x[3:6])

    @staticmethod
    def _psd(P):
        P = 0.5 * (P + P.T)
        if np.linalg.eigvalsh(P).min() < -1e-9:
            raise RuntimeError("nine-state covariance lost positive semi-definiteness")
        return P

    def predict(self, imu_quat, dt):
        F = np.eye(9)
        F[0:3, 3:6] = dt * np.eye(3)
        Q = np.zeros((9, 9))
        Q[0:3, 0:3] = odometry.Q_POS * dt * np.eye(3)
        Q[3:6, 3:6] = odometry.Q_VEL * dt * np.eye(3)
        P = F @ self.P @ F.T + Q
        P[6:9, 6:9] = np.eye(3) * self.R_ATT
        P[0:6, 6:9] = 0.0
        P[6:9, 0:6] = 0.0
        self.P = self._psd(P)
        self.x = np.concatenate([self.position + self.velocity * dt, self.velocity, np.zeros(3)])
        self.quat = imu_quat
        self.t = self.t + dt

    def _update(self, rows, innovation, r):
        H = np.zeros((3, 9))
        H[:, rows] = np.eye(3)
        R = r * np.eye(3)
        S = H @ self.P @ H.T + R
        if float(innovation @ np.linalg.solve(S, innovation)) > odometry.GATE:
            return False
        K = self.P @ H.T @ np.linalg.inv(S)
        I_KH = np.eye(9) - K @ H
        self.P = self._psd(I_KH @ self.P @ I_KH.T + K @ R @ K.T)
        self.x = self.x + K @ innovation
        return True

    def update_velocity(self, v_body):
        z = quat_rotate(self.quat, np.asarray(v_body, dtype=float))
        ok = self._update(slice(3, 6), z - self.velocity, odometry.R_VEL)
        self.rejected_velocity += not ok
        return ok

    def update_pose(self, position):
        innovation = np.asarray(position, dtype=float) - self.position
        ok = self._update(slice(0, 3), innovation, odometry.R_POS)
        self.rejected_pose += not ok
        return ok


def _fuse_with(monkeypatch, ekf_cls, streams, traj, use_vio):
    """`fuse_streams` run with `ekf_cls` as its filter; returns the fused
    trajectory and the filter, for its reject counters."""
    made = []

    class Recorded(ekf_cls):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(odometry, "OdometryEkf", Recorded)
    fused = fuse_streams(streams, traj, use_vio=use_vio)
    return fused, made[0]


class TestSourceStreams:
    @pytest.mark.parametrize("noisy", [True, False])
    def test_matches_sample_by_sample_reference(self, short_trajectory, noisy):
        model = SourceErrorModel() if noisy else _noiseless_model(bias=(0.01, 0.0, 0.0))
        model = _with_dropouts(model, ((0.5, 1.0),))
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
        model = _with_dropouts(_noiseless_model(), ((0.5, 1.0),))
        streams = make_source_streams(short_trajectory, model, seed=0)
        ts = streams.vio_t
        assert len(ts) == len(streams.vio_pos)
        assert not np.any((ts >= 0.5) & (ts < 1.0))


class TestEkfCore:
    def test_scalar_kalman_oracle_single_axis(self):
        # one velocity update on a still filter matches the scalar formula
        p0 = 0.04
        ekf = _ekf(cov=p0)
        z = np.array([0.3, 0.0, 0.0])
        ekf.update_velocity(z)
        k = p0 / (p0 + odometry.R_VEL)
        assert ekf.velocity[0] == pytest.approx(k * 0.3, rel=1e-12)
        # Joseph form posterior variance
        expect_var = (1 - k) ** 2 * p0 + k**2 * odometry.R_VEL
        assert ekf.cov[1, 1] == pytest.approx(expect_var, rel=1e-12)

    def test_predict_integrates_position(self):
        ekf = _ekf(velocity=(1.0, 0.0, 0.0))
        ekf.predict(np.array([1.0, 0, 0, 0]), dt=0.1)
        np.testing.assert_allclose(ekf.position, [0.1, 0, 0], atol=1e-15)
        assert ekf.t == pytest.approx(0.1)

    def test_predict_rejects_nonpositive_dt(self):
        ekf = _ekf()
        with pytest.raises(ValueError):
            ekf.predict(np.array([1.0, 0, 0, 0]), dt=0.0)

    def test_velocity_update_rotates_body_frame(self, monkeypatch):
        monkeypatch.setattr(odometry, "R_VEL", 1e-12)
        ekf = _ekf(quat=quat_from_yaw(np.pi / 2), cov=1.0)
        ekf.update_velocity(np.array([1.0, 0.0, 0.0]))
        # body +x at yaw 90 degrees is world +y
        np.testing.assert_allclose(ekf.velocity, [0, 1, 0], atol=1e-5)

    def test_mahalanobis_gate_rejects_outlier(self):
        ekf = _ekf(cov=1e-6)
        ok = ekf.update_pose(np.array([10.0, 0.0, 0.0]))
        assert ok is False
        assert ekf.rejected_pose == 1
        np.testing.assert_allclose(ekf.position, [0, 0, 0])

    def test_covariance_stays_psd_over_long_run(self, rng):
        ekf = _ekf()
        for i in range(500):
            ekf.predict(np.array([1.0, 0, 0, 0]), dt=0.005)
            if i % 4 == 0:
                ekf.update_velocity(rng.normal(0.0, 0.1, 3))
            if i % 9 == 0:
                ekf.update_pose(ekf.position + rng.normal(0.0, 0.01, 3))
        assert ekf.cov.shape == (2, 2)
        w = np.linalg.eigvalsh(ekf.cov)
        assert w.min() >= -1e-9

    def test_psd_guard_same_bits_as_matrix_symmetrization(self, rng):
        # the guard works on scalars; its result must keep the matrix bits
        mats = [rng.normal(0.0, 1.0, (2, 2)) * 10.0 ** rng.uniform(-12, 2) for _ in range(2000)]
        mats += [np.array([[1e-6, -0.0], [-0.0, 1e-6]]), np.array([[0.0, 0.0], [0.0, 0.0]])]
        checked = 0
        for P in mats:
            ref = 0.5 * (P + P.T)
            if np.linalg.eigvalsh(ref).min() < -1e-9:
                continue
            for given in (P, P.tolist()):
                got = odometry._check_psd(given, "test")
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            checked += 1
        assert checked > 500

    @pytest.mark.parametrize(
        "P", [[[1.0, 2.0], [2.0, 1.0]], [[-1e-6, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -2e-9]]]
    )
    def test_psd_guard_raises_on_indefinite_matrix(self, P):
        with pytest.raises(RuntimeError, match="positive semi-definiteness in test"):
            odometry._check_psd(np.array(P), "test")

    def test_psd_guard_fires_on_negative_variance(self):
        # from an indefinite covariance the predicted velocity variance stays
        # below zero, whatever the process noise adds
        ekf = _ekf()
        ekf.cov = np.array([[1e-6, 0.0], [0.0, -1.0]])
        with pytest.raises(RuntimeError, match="positive semi-definiteness in predict"):
            ekf.predict(np.array([1.0, 0, 0, 0]), dt=0.005)


class TestFusion:
    def test_zero_noise_fusion_tracks_ground_truth(self, short_trajectory):
        streams = make_source_streams(short_trajectory, _noiseless_model(), seed=0)
        fused = fuse_streams(streams, short_trajectory)
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
        fused = fuse_streams(streams, short_trajectory, use_vio=False)
        t_end = short_trajectory.t[-1]
        drift = fused.positions[-1] - short_trajectory.pos[-1]
        assert drift[0] == pytest.approx(0.05 * t_end, rel=0.15)

    def test_vio_bounds_bias_drift(self, short_trajectory):
        streams = make_source_streams(
            short_trajectory, _noiseless_model(bias=(0.05, 0.0, 0.0)), seed=0
        )
        with_vio = fuse_streams(streams, short_trajectory, use_vio=True)
        without = fuse_streams(streams, short_trajectory, use_vio=False)
        gt_end = short_trajectory.pos[-1]
        assert np.linalg.norm(with_vio.positions[-1] - gt_end) < np.linalg.norm(
            without.positions[-1] - gt_end
        )

    def test_fusion_is_deterministic(self, short_trajectory):
        streams = make_source_streams(short_trajectory, SourceErrorModel(), seed=3)
        a = fuse_streams(streams, short_trajectory)
        b = fuse_streams(streams, short_trajectory)
        np.testing.assert_array_equal(a.positions, b.positions)


class TestSixStateMatchesNineState:
    """The per-axis filter (six states, one 2x2 covariance that the axes
    share) against the nine-state oracle, bit for bit."""

    @pytest.mark.parametrize("use_vio", [True, False])
    def test_same_bits_and_rejects(self, monkeypatch, short_trajectory, use_vio):
        # noisy enough that the gate rejects about a quarter of the velocity
        # and, with VIO, of the pose updates
        model = SourceErrorModel(
            estimator=EstimatorErrors(vel_sigma=np.full(3, 0.08)),
            vio=VioErrors(walk_rate=0.02, sample_sigma=0.01, dropouts=((0.6, 1.2),)),
        )
        # on seed 24 a quaternion normalized once, not on every store, moves
        # the fused bits
        for seed in (11, 24):
            streams = make_source_streams(short_trajectory, model, seed=seed)
            six, ekf6 = _fuse_with(monkeypatch, OdometryEkf, streams, short_trajectory, use_vio)
            nine, ekf9 = _fuse_with(monkeypatch, _NineStateEkf, streams, short_trajectory, use_vio)
            assert ekf6.cov.shape == (2, 2) and ekf9.P.shape == (9, 9)
            for name in ("t", "positions", "velocities"):
                assert getattr(six, name).tobytes() == getattr(nine, name).tobytes(), (seed, name)
            assert ekf6.rejected_velocity == ekf9.rejected_velocity > 0
            assert ekf6.rejected_pose == ekf9.rejected_pose
            if use_vio:
                assert ekf6.rejected_pose > 0

def test_predict_gets_each_imu_row_normalized_once(monkeypatch, short_trajectory):
    # fuse_streams normalizes the stream in one stacked call; predict must
    # get the bits of one quat_normalize per row, neither fewer nor more
    streams = make_source_streams(short_trajectory, SourceErrorModel(), seed=24)
    streams.imu_quat = streams.imu_quat * np.linspace(0.5, 2.0, len(streams.imu_quat))[:, None]
    got = []

    class Recorded(OdometryEkf):
        def predict(self, imu_quat, dt):
            got.append(imu_quat)
            super().predict(imu_quat, dt)

    monkeypatch.setattr(odometry, "OdometryEkf", Recorded)
    fuse_streams(streams, short_trajectory)
    # the first IMU sample shares the filter's start time and predicts nothing
    assert len(got) == len(streams.imu_quat) - 1
    for q, raw in zip(got, streams.imu_quat[1:]):
        assert q.tobytes() == quat_normalize(raw).tobytes()


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
    # NaN passed the old `< 0` checks; each error names its key
    for value in (float("nan"), float("inf")):
        for make, key in (
            (lambda v: EstimatorErrors(vel_sigma=np.array([0.02, v, 0.01])), "vel_sigma"),
            (lambda v: EstimatorErrors(bias=np.array([0.0, v, 0.0])), "bias"),
            (lambda v: ImuErrors(orient_sigma=v), "orient_sigma"),
            (lambda v: VioErrors(walk_rate=v), "walk_rate"),
            (lambda v: VioErrors(sample_sigma=v), "sample_sigma"),
        ):
            with pytest.raises(ValueError, match=key):
                make(value)
