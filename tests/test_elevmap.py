import numpy as np
import pytest

from elevsim.elevmap import ElevationMap, SensorVarianceModel
from elevsim.geometry import Pose, quat_from_yaw
from elevsim.pointcloud import PointCloud


def _cloud(points, t=0.0):
    return PointCloud(t=t, frame="world", points=np.asarray(points, dtype=float))


def _model(base=1e-4, range_coeff=0.0, time_rate=0.0):
    return SensorVarianceModel(
        base_variance=base, range_coeff=range_coeff, time_variance_rate=time_rate
    )


ORIGIN = np.zeros(3)


class TestKalmanIdentities:
    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_equal_variance_fusion_gives_sigma2_over_n(self, n):
        emap = ElevationMap(resolution=0.025, size=1.0)
        model = _model(base=1e-4)
        z = 0.123
        for i in range(n):
            emap.integrate_cloud(_cloud([[0.0, 0.0, z]]), ORIGIN, model, t=float(i))
        got = emap.query_height(0.0, 0.0)
        assert got is not None
        h, var = got
        assert h == z  # exact: all measurements identical
        assert abs(var - 1e-4 / n) / (1e-4 / n) < 1e-12

    def test_two_measurement_weighted_mean(self):
        # unequal variances via range-dependent model; check the textbook
        # scalar Kalman result sigma^-2-weighted mean
        emap = ElevationMap(resolution=0.1, size=1.0)
        model = _model(base=1e-4, range_coeff=1e-4)
        o1 = np.array([0.0, 0.0, 1.0])
        o2 = np.array([0.0, 0.0, 2.0])
        p = [0.0, 0.0, 0.5]
        emap.integrate_cloud(_cloud([p]), o1, model, t=0.0)
        v1 = model.measurement_variance(np.linalg.norm(np.array(p) - o1))
        h_after1, var_after1 = emap.query_height(0.0, 0.0)
        assert var_after1 == pytest.approx(v1, rel=1e-12)

        p2 = [0.0, 0.0, 0.7]
        emap.integrate_cloud(_cloud([p2]), o2, model, t=0.0)
        v2 = model.measurement_variance(np.linalg.norm(np.array(p2) - o2))
        w1, w2 = 1.0 / v1, 1.0 / v2
        h, var = emap.query_height(0.0, 0.0)
        assert h == pytest.approx((w1 * 0.5 + w2 * 0.7) / (w1 + w2), rel=1e-12)
        assert var == pytest.approx(1.0 / (w1 + w2), rel=1e-12)

    def test_batch_equals_sequential_updates(self, rng):
        # information-form batch fusion == one-at-a-time scalar updates
        model = _model(base=1e-4, range_coeff=1e-4)
        pts = np.column_stack(
            [np.zeros(20), np.zeros(20), rng.normal(0.5, 0.02, 20)]
        )
        batch = ElevationMap(resolution=0.1, size=1.0)
        batch.integrate_cloud(_cloud(pts), ORIGIN, model, t=0.0)

        seq = ElevationMap(resolution=0.1, size=1.0)
        for p in pts:
            seq.integrate_cloud(_cloud([p]), ORIGIN, model, t=0.0)
        hb, vb = batch.query_height(0.0, 0.0)
        hs, vs = seq.query_height(0.0, 0.0)
        assert hb == pytest.approx(hs, rel=1e-12)
        assert vb == pytest.approx(vs, rel=1e-12)

    def test_staleness_inflates_prior_variance(self):
        model = _model(base=1e-4, time_rate=1e-5)
        emap = ElevationMap(resolution=0.1, size=1.0)
        emap.integrate_cloud(_cloud([[0, 0, 0.5]]), ORIGIN, model, t=0.0)
        emap.integrate_cloud(_cloud([[0, 0, 0.7]]), ORIGIN, model, t=10.0)
        # prior variance was 1e-4 + 10 * 1e-5 = 2e-4, measurement 1e-4
        w_prior, w_meas = 1.0 / 2e-4, 1.0 / 1e-4
        h, var = emap.query_height(0.0, 0.0)
        assert h == pytest.approx((w_prior * 0.5 + w_meas * 0.7) / (w_prior + w_meas), rel=1e-12)
        assert var == pytest.approx(1.0 / (w_prior + w_meas), rel=1e-12)

    def test_past_timestamp_rejected(self):
        emap = ElevationMap(resolution=0.1, size=1.0)
        emap.integrate_cloud(_cloud([[0, 0, 0.5]]), ORIGIN, _model(), t=1.0)
        with pytest.raises(ValueError):
            emap.integrate_cloud(_cloud([[0, 0, 0.5]]), ORIGIN, _model(), t=0.5)


class TestIntegration:
    def test_out_of_window_points_skipped_and_counted(self):
        emap = ElevationMap(resolution=0.1, size=1.0)
        pts = [[0.0, 0.0, 0.5], [10.0, 10.0, 0.5]]
        skipped = emap.integrate_cloud(_cloud(pts), ORIGIN, _model(), t=0.0)
        assert skipped == 1
        assert emap.skipped_points == 1

    def test_empty_cloud_is_noop(self):
        emap = ElevationMap(resolution=0.1, size=1.0)
        assert emap.integrate_cloud(_cloud(np.zeros((0, 3))), ORIGIN, _model(), 0.0) == 0
        assert not emap.valid.any()

    def test_query_invalid_cell_returns_none(self):
        emap = ElevationMap(resolution=0.1, size=1.0)
        assert emap.query_height(0.0, 0.0) is None
        assert emap.query_height(99.0, 0.0) is None

    def test_query_heights_vectorized_masks(self):
        emap = ElevationMap(resolution=0.1, size=1.0)
        emap.integrate_cloud(_cloud([[0.05, 0.05, 0.5]]), ORIGIN, _model(), 0.0)
        h, mask = emap.query_heights(np.array([[0.05, 0.05], [0.35, 0.35], [9.0, 9.0]]))
        assert mask.tolist() == [True, False, False]
        assert h[0] == pytest.approx(0.5, rel=1e-12)
        assert np.isnan(h[1]) and np.isnan(h[2])

    def test_size_cap_enforced(self):
        with pytest.raises(ValueError):
            ElevationMap(resolution=0.025, size=8.0)

    @pytest.mark.parametrize(
        "resolution, size", [(0.025, 0.01), (0.025, float("nan")), (float("nan"), 1.0)]
    )
    def test_map_without_cells_rejected(self, resolution, size):
        # 0.01 m rounds to zero 0.025 m cells
        with pytest.raises(ValueError):
            ElevationMap(resolution=resolution, size=size)


class TestDriftCompensation:
    def test_uniform_offset_recovered_exactly(self):
        emap = ElevationMap(resolution=0.05, size=2.0)
        xy = np.stack(np.meshgrid(np.linspace(-0.5, 0.5, 10), np.linspace(-0.5, 0.5, 10)), -1).reshape(-1, 2)
        flat = np.column_stack([xy, np.full(len(xy), 0.2)])
        emap.integrate_cloud(_cloud(flat), ORIGIN, _model(), t=0.0)
        shifted = flat.copy()
        shifted[:, 2] += 0.012
        applied = emap.drift_compensate(_cloud(shifted), gate=0.03, min_points=20)
        assert applied == pytest.approx(0.012, rel=1e-9)
        assert emap.total_shift == pytest.approx(0.012, rel=1e-9)
        h, _ = emap.query_height(*xy[0])
        assert h == pytest.approx(0.212, rel=1e-9)

    def test_gate_excludes_large_discrepancies(self):
        emap = ElevationMap(resolution=0.05, size=2.0)
        xy = np.stack(np.meshgrid(np.linspace(-0.5, 0.5, 10), np.linspace(-0.5, 0.5, 10)), -1).reshape(-1, 2)
        flat = np.column_stack([xy, np.full(len(xy), 0.2)])
        emap.integrate_cloud(_cloud(flat), ORIGIN, _model(), t=0.0)
        # half the cloud agrees (+5 mm), half is a 0.2 m structure change
        probe = flat.copy()
        probe[:, 2] += 0.005
        probe[50:, 2] += 0.2
        applied = emap.drift_compensate(_cloud(probe), gate=0.03, min_points=20)
        assert applied == pytest.approx(0.005, rel=1e-9)

    def test_min_points_guard(self):
        emap = ElevationMap(resolution=0.05, size=2.0)
        emap.integrate_cloud(_cloud([[0, 0, 0.2]]), ORIGIN, _model(), t=0.0)
        applied = emap.drift_compensate(_cloud([[0, 0, 0.21]]), gate=0.03, min_points=20)
        assert applied == 0.0

    @pytest.mark.parametrize(
        "gate, min_points", [(0.03, 0), (-1.0, 20), (0.0, 20), (float("nan"), 20), (np.inf, 20)]
    )
    def test_settings_that_average_nothing_rejected(self, gate, min_points):
        # min_points 0 with an empty gated set would add NaN to every cell
        emap = ElevationMap(resolution=0.05, size=2.0)
        emap.integrate_cloud(_cloud([[0, 0, 0.2]]), ORIGIN, _model(), t=0.0)
        with pytest.raises(ValueError, match="min_points"):
            emap.drift_compensate(_cloud([[0, 0, 0.5]]), gate=gate, min_points=min_points)
        assert emap.query_height(0, 0)[0] == 0.2

    def test_unmapped_cloud_gives_zero_shift(self):
        emap = ElevationMap(resolution=0.05, size=2.0)
        applied = emap.drift_compensate(_cloud([[0, 0, 0.2]]))
        assert applied == 0.0


class TestRecenter:
    def test_retained_cells_bit_exact(self):
        emap = ElevationMap(resolution=0.1, size=2.0)
        emap.integrate_cloud(_cloud([[0.55, 0.05, 0.3]]), ORIGIN, _model(), t=1.0)
        h0, v0 = emap.query_height(0.55, 0.05)
        emap.recenter(np.array([0.5, 0.0]))
        h1, v1 = emap.query_height(0.55, 0.05)
        assert h1 == h0 and v1 == v0

    def test_cells_scrolling_out_invalidated(self):
        emap = ElevationMap(resolution=0.1, size=1.0)
        emap.integrate_cloud(_cloud([[-0.45, 0.0, 0.3]]), ORIGIN, _model(), t=0.0)
        emap.recenter(np.array([2.0, 0.0]))
        assert emap.query_height(-0.45, 0.0) is None
        assert not emap.valid.any()

    def test_recenter_snaps_to_grid(self):
        emap = ElevationMap(resolution=0.1, size=1.0)
        emap.recenter(np.array([0.234, -0.081]))
        np.testing.assert_allclose(emap.center, [0.2, -0.1], atol=1e-12)

    def test_noop_within_one_cell(self):
        emap = ElevationMap(resolution=0.1, size=1.0)
        emap.integrate_cloud(_cloud([[0.0, 0.0, 0.3]]), ORIGIN, _model(), t=0.0)
        emap.recenter(np.array([0.04, -0.04]))
        assert emap.query_height(0.0, 0.0) is not None

    def test_round_trip_recenter_preserves_overlap(self):
        emap = ElevationMap(resolution=0.1, size=2.0)
        rng = np.random.default_rng(3)
        xy = rng.uniform(-0.4, 0.4, (100, 2))
        pts = np.column_stack([xy, rng.uniform(0.0, 0.3, 100)])
        emap.integrate_cloud(_cloud(pts), ORIGIN, _model(), t=0.0)
        before = emap.height.copy(), emap.valid.copy()
        emap.recenter(np.array([0.3, 0.0]))
        emap.recenter(np.array([0.0, 0.0]))
        after = emap.height, emap.valid
        # cells present both before and after the excursion are unchanged
        both = before[1] & after[1]
        assert both.any()
        np.testing.assert_array_equal(before[0][both], after[0][both])


class TestRegionAndExport:
    def test_region_points_yaw_aligned(self):
        emap = ElevationMap(resolution=0.05, size=2.0)
        xy = np.stack(np.meshgrid(np.linspace(-0.8, 0.8, 33), np.linspace(-0.8, 0.8, 33)), -1).reshape(-1, 2)
        emap.integrate_cloud(_cloud(np.column_stack([xy, np.zeros(len(xy))])), ORIGIN, _model(), 0.0)
        pose = Pose(np.array([0.0, 0.0, 0.3]), quat_from_yaw(np.pi / 2))
        pts = emap.region_points(pose, region=(0.5, 0.3))
        assert len(pts) > 0
        rel = pts[:, :2] - pose.position[:2]
        # region long axis rotated onto world y
        assert np.abs(rel[:, 0]).max() <= 0.15 + 0.05
        assert np.abs(rel[:, 1]).max() <= 0.25 + 0.05

    def test_map_csv_export(self, tmp_path):
        emap = ElevationMap(resolution=0.1, size=1.0)
        emap.integrate_cloud(_cloud([[0.0, 0.0, 0.5]]), ORIGIN, _model(), 0.0)
        path = tmp_path / "map.csv"
        emap.to_csv(path)
        text = path.read_text()
        assert "height layer" in text and "variance layer" in text
