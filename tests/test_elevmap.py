import re
import sys
import warnings

import numpy as np
import pytest

from elevsim.elevmap import DRIFT_GATE, DRIFT_MIN_POINTS, ElevationMap, SensorVarianceModel
from elevsim.geometry import Pose, quat_from_yaw, rotz
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

    @pytest.mark.parametrize("key", ["base_variance", "range_coeff", "time_variance_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-4])
    def test_bad_variance_model_rejected(self, key, value):
        # NaN fails every comparison: a NaN base_variance would drop every point
        with pytest.raises(ValueError, match=key):
            SensorVarianceModel(**{key: value})


class TestDriftCompensation:
    def test_uniform_offset_recovered_exactly(self):
        emap = ElevationMap(resolution=0.05, size=2.0)
        xy = np.stack(np.meshgrid(np.linspace(-0.5, 0.5, 10), np.linspace(-0.5, 0.5, 10)), -1).reshape(-1, 2)
        flat = np.column_stack([xy, np.full(len(xy), 0.2)])
        emap.integrate_cloud(_cloud(flat), ORIGIN, _model(), t=0.0)
        shifted = flat.copy()
        shifted[:, 2] += 0.012
        applied = emap.drift_compensate(_cloud(shifted))
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
        applied = emap.drift_compensate(_cloud(probe))
        assert applied == pytest.approx(0.005, rel=1e-9)

    def test_min_points_guard(self):
        emap = ElevationMap(resolution=0.05, size=2.0)
        emap.integrate_cloud(_cloud([[0, 0, 0.2]]), ORIGIN, _model(), t=0.0)
        applied = emap.drift_compensate(_cloud([[0, 0, 0.21]] * (DRIFT_MIN_POINTS - 1)))
        assert applied == 0.0
        applied = emap.drift_compensate(_cloud([[0, 0, 0.21]] * DRIFT_MIN_POINTS))
        assert applied == pytest.approx(0.01, rel=1e-9)

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


    def test_flat_scroll_matches_slice_copy_oracle(self):
        # the oracle is the 2-D slice copy that the flat scroll replaced;
        # every (kx, ky) in [-n-1, n+1]^2 covers s < 0, s > 0 and jumps of
        # n or more cells
        n, res = 6, 0.5
        rng = np.random.default_rng(12)

        def oracle(layers, kx, ky):
            kx, ky = np.clip([kx, ky], -n, n)
            src = slice(max(0, kx), n + min(0, kx)), slice(max(0, ky), n + min(0, ky))
            dst = slice(max(0, -kx), n + min(0, -kx)), slice(max(0, -ky), n + min(0, -ky))
            new_x = slice(n - kx, n) if kx > 0 else slice(0, -kx)
            new_y = slice(n - ky, n) if ky > 0 else slice(0, -ky)
            for arr in layers:
                arr[dst] = arr[src]
                arr[new_x] = 0
                arr[:, new_y] = 0

        for kx in range(-n - 1, n + 2):
            for ky in range(-n - 1, n + 2):
                emap = ElevationMap(resolution=res, size=n * res)
                emap.height[:] = rng.normal(size=(n, n))
                emap.variance[:] = rng.uniform(0.1, 1.0, (n, n))
                emap.last_update[:] = rng.uniform(0.0, 5.0, (n, n))
                emap.valid[:] = rng.random((n, n)) < 0.7
                names = ("height", "variance", "last_update", "valid")
                expect = [getattr(emap, k).copy() for k in names]
                oracle(expect, kx, ky)
                emap.recenter(emap.center + np.array([kx, ky]) * res)
                # read after the call: a layer held across it is in storage order
                layers = [getattr(emap, k) for k in names]
                for got, ref in zip(layers, expect, strict=True):
                    assert got.tobytes() == ref.tobytes(), (kx, ky)
                np.testing.assert_array_equal(emap.center, np.array([kx, ky]) * res)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("xy", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, np.nan), (1e300, 0.0)])
    def test_non_finite_base_reads_no_cells(self, xy):
        # as the full grid did, without an invalid-cast warning
        emap = ElevationMap(resolution=0.025, size=5.0)
        emap.valid[:] = True
        pose = Pose(np.array([*xy, 0.3]), quat_from_yaw(0.3))
        assert emap.region_points(pose, (0.5, 0.3)).shape == (0, 3)

    def test_map_csv_export(self, tmp_path):
        emap = ElevationMap(resolution=0.1, size=1.0)
        emap.integrate_cloud(_cloud([[0.0, 0.0, 0.5]]), ORIGIN, _model(), 0.0)
        path = tmp_path / "map.csv"
        emap.to_csv(path)
        text = path.read_text()
        assert "height layer" in text and "variance layer" in text


class FullGridMap(ElevationMap):
    """The full-grid versions of the windowed map methods, kept as the
    reference: every frame touched all n^2 cells, and the outputs must not
    have changed by a bit."""

    def integrate_cloud(self, cloud, sensor_origin, model, t):
        if t < self.last_time - 1e-12:
            raise ValueError("integrate_cloud called with a timestamp in the past")
        self.last_time = max(self.last_time, t)
        if len(cloud) == 0:
            return 0
        idx, ok = self.cell_indices(cloud.points[:, :2])
        skipped = int((~ok).sum())
        self.skipped_points += skipped
        if not ok.any():
            return skipped
        pts = cloud.points[ok]
        flat = idx[ok, 0] * self.n + idx[ok, 1]
        ranges = np.linalg.norm(pts - np.asarray(sensor_origin, dtype=float), axis=1)
        r_var = model.measurement_variance(ranges)
        info_add = np.bincount(flat, weights=1.0 / r_var, minlength=self.n * self.n)
        z_info = np.bincount(flat, weights=pts[:, 2] / r_var, minlength=self.n * self.n)
        hit = info_add.reshape(self.n, self.n) > 0
        info_add = info_add.reshape(self.n, self.n)[hit]
        z_info = z_info.reshape(self.n, self.n)[hit]
        prior_valid = self.valid[hit]
        prior_var = self.variance[hit] + model.time_variance_rate * np.maximum(
            0.0, t - self.last_update[hit]
        )
        prior_info = np.where(prior_valid, 1.0 / np.where(prior_var > 0, prior_var, 1.0), 0.0)
        new_info = prior_info + info_add
        self.height[hit] += (z_info - info_add * self.height[hit]) / new_info
        self.variance[hit] = 1.0 / new_info
        self.valid[hit] = True
        self.last_update[hit] = t
        return skipped

    def drift_compensate(self, cloud):
        if len(cloud) == 0:
            return 0.0
        idx, ok = self.cell_indices(cloud.points[:, :2])
        ok = ok.copy()
        ok[ok] &= self.valid[idx[ok, 0], idx[ok, 1]]
        if not ok.any():
            return 0.0
        diff = cloud.points[ok, 2] - self.height[idx[ok, 0], idx[ok, 1]]
        diff = diff[np.abs(diff) <= DRIFT_GATE]
        if len(diff) < DRIFT_MIN_POINTS:
            return 0.0
        shift = float(diff.mean())
        self.height[self.valid] += shift
        self.total_shift += shift
        return shift

    def query_heights(self, xy):
        idx, ok = self.cell_indices(xy)
        out = np.full(len(idx), np.nan)
        mask = ok.copy()
        mask[ok] &= self.valid[idx[ok, 0], idx[ok, 1]]
        out[mask] = self.height[idx[mask, 0], idx[mask, 1]]
        return out, mask

    def recenter(self, robot_xy):
        # raises for a jump of n to 2n - 1 cells; callers here avoid those
        k = np.round((np.asarray(robot_xy, dtype=float) - self.center) / self.resolution)
        k = k.astype(int)
        if k[0] == 0 and k[1] == 0:
            return
        for arr, fill in (
            (self.height, 0.0),
            (self.variance, 0.0),
            (self.last_update, 0.0),
            (self.valid, False),
        ):
            shifted = np.full_like(arr, fill)
            src_x = slice(max(0, k[0]), self.n + min(0, k[0]))
            dst_x = slice(max(0, -k[0]), self.n + min(0, -k[0]))
            src_y = slice(max(0, k[1]), self.n + min(0, k[1]))
            dst_y = slice(max(0, -k[1]), self.n + min(0, -k[1]))
            shifted[dst_x, dst_y] = arr[src_x, src_y]
            arr[:] = shifted
        self.center = self.center + k * self.resolution

    def region_points(self, base_pose, region=(0.5, 0.3)):
        cx, cy = self.cell_centers()
        gx, gy = np.meshgrid(cx, cy, indexing="ij")
        rel = np.stack([gx.ravel() - base_pose.position[0], gy.ravel() - base_pose.position[1]], axis=1)
        R = rotz(base_pose.yaw)[:2, :2]
        local = rel @ R
        inside = (np.abs(local[:, 0]) <= region[0] / 2) & (np.abs(local[:, 1]) <= region[1] / 2)
        inside &= self.valid.ravel()
        return np.column_stack(
            [gx.ravel()[inside], gy.ravel()[inside], self.height.ravel()[inside]]
        )


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_state(a: ElevationMap, b: ElevationMap) -> bool:
    layers = ("height", "variance", "valid", "last_update", "center")
    return all(_same_bytes(getattr(a, k), getattr(b, k)) for k in layers) and (
        (a.total_shift, a.last_time, a.skipped_points)
        == (b.total_shift, b.last_time, b.skipped_points)
    )


# (resolution, size): 200^2, the sweep's 400^2 and an odd 133^2
GRIDS = [(0.025, 5.0), (0.0125, 5.0), (0.0225, 3.0)]


def _filled_pair(resolution, size, rng, center=(0.3, -0.2)):
    """The windowed map and its full-grid reference, with the same random
    layers, about 70% of the cells valid."""
    maps = ElevationMap(resolution, size, center), FullGridMap(resolution, size, center)
    n = maps[0].n
    layers = (
        rng.normal(0.1, 0.05, (n, n)),
        rng.uniform(1e-5, 1e-3, (n, n)),
        rng.random((n, n)) < 0.7,
        rng.uniform(0.0, 1.0, (n, n)),
    )
    for emap in maps:
        for name, layer in zip(("height", "variance", "valid", "last_update"), layers):
            getattr(emap, name)[:] = layer
    return maps


def _edge_poses(emap: ElevationMap, region) -> list[tuple[float, float, float]]:
    """Bases whose window the map edge clips to one row, one column or one
    cell, plus bases on each edge and corner (x, y, yaw)."""
    res, n = emap.resolution, emap.n
    reach = 0.5 * np.hypot(*region)
    lo, hi = emap.origin, emap.origin + n * res
    # a window [floor((p - reach - o) / res), ceil((p + reach - o) / res))
    # that the edge clips to its first or last index
    first = lo - reach + 0.5 * res
    last = hi + reach - 0.5 * res
    poses = []
    for x in (first[0], last[0], lo[0], hi[0], emap.center[0]):
        for y in (first[1], last[1], lo[1], hi[1], emap.center[1]):
            for yaw in (0.0, 0.7, -np.pi / 2):
                poses.append((x, y, yaw))
    return poses


class TestWindowedMatchesFullGrid:
    @pytest.mark.parametrize("resolution, size", GRIDS)
    def test_region_points_same_bytes(self, resolution, size):
        rng = np.random.default_rng(int(resolution * 1e4))
        new, ref = _filled_pair(resolution, size, rng)
        half = 0.5 * new.n * new.resolution
        regions = [(0.5, 0.3), (0.25, 1.1), (0.5 * resolution, 0.3 * resolution)]
        half = 0.5 * new.n * new.resolution
        cases = [
            (*(new.center + rng.uniform(-half - 0.6, half + 0.6, 2)), rng.uniform(-np.pi, np.pi),
             regions[i % 3])
            for i in range(300)
        ]
        cases += [(*p, r) for r in regions for p in _edge_poses(new, r)]
        found = 0
        for x, y, yaw, region in cases:
            pose = Pose(np.array([x, y, 0.3]), quat_from_yaw(yaw))
            got = new.region_points(pose, region)
            assert _same_bytes(got, ref.region_points(pose, region)), (x, y, yaw, region)
            found += len(got) > 0
        assert found > 150

    @pytest.mark.parametrize("resolution, size", GRIDS)
    def test_edge_windows_clip_to_one_row_and_one_cell(self, resolution, size):
        # the clipped windows exist: one index in x, in y, or both
        emap = ElevationMap(resolution, size)
        region = (0.5, 0.3)
        reach = 0.5 * np.hypot(*region)
        spans = set()
        for x, y, _ in _edge_poses(emap, region):
            p = np.array([x, y])
            lo = np.floor((p - reach - emap.origin) / resolution)
            hi = np.ceil((p + reach - emap.origin) / resolution)
            spans.add(tuple(np.clip(hi, 0, emap.n) - np.clip(lo, 0, emap.n)))
        assert any(s[0] == 1 and s[1] > 1 for s in spans)
        assert any(s[1] == 1 and s[0] > 1 for s in spans)
        assert (1, 1) in spans

    @pytest.mark.parametrize("resolution, size", GRIDS)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_random_update_sequences_same_bytes(self, resolution, size):
        # ops: 0 recenter; 1 drift, integrate; 2 integrate; 3 drift,
        # recenter, integrate; 4 recenter, drift, a public-layer read (which
        # re-aligns the ring), integrate. 3 and 4 run on one cloud object,
        # whose cell lookup integrate_cloud must not reuse once the map moved
        rng = np.random.default_rng(7 + int(size))
        new, ref = _filled_pair(resolution, size, rng, center=(0.0, 0.0))
        model = _model(base=1e-4, range_coeff=1e-4, time_rate=3e-6)
        n, t = new.n, 1.0
        n_jumps = 0
        for step in range(200):
            op = rng.integers(5)
            # mostly short moves, now and then a jump past the whole map
            cells = rng.integers(-3, 4, 2)
            if op == 4 and not cells.any():
                cells[0] = 1  # the ring offset moves, so the read re-aligns
            if op == 3 and rng.random() < 0.4:
                # exactly n cells along one axis or both: the ring offset
                # comes back to where it was, the center does not
                cells = rng.choice([-n, 0, n], 2)
                cells[rng.integers(2)] = rng.choice([-n, n])
                n_jumps += 1
            elif rng.random() < 0.1:
                cells = rng.choice([-1, 1], 2) * (2 * n + rng.integers(0, 5, 2))
            target = new.center + (cells + rng.uniform(-0.45, 0.45, 2)) * resolution
            # about a third of the points lie off the window
            m = int(rng.integers(0, 400))
            xy = new.center + rng.uniform(-0.6, 0.6, (m, 2)) * n * resolution
            z = rng.normal(0.1, 0.02, m)
            if m and rng.random() < 0.3:
                # points that carry no information (infinite range
                # variance) must not touch a cell
                z[rng.random(m) < 0.2] = 1e200
            cloud = _cloud(np.column_stack([xy, z]), t)
            origin = np.array([*new.center, 0.5])
            returns = []
            for emap in (new, ref):
                out = []
                if op in (0, 4):
                    emap.recenter(target)
                if op in (1, 3, 4):
                    out.append(emap.drift_compensate(cloud))
                if op == 3:
                    emap.recenter(target)
                if op == 4:
                    _ = emap.height  # reading a public layer re-aligns the ring
                if op != 0:
                    out.append(emap.integrate_cloud(cloud, origin, model, t))
                returns.append(out)
            assert returns[0] == returns[1], step
            t += float(rng.uniform(0.0, 0.1))
            assert _same_state(new, ref), step
        assert new.total_shift != 0 and new.skipped_points > 0 and n_jumps > 5

    @pytest.mark.parametrize("cells", [(1, 0), (0, -1), (-1, 1)])
    def test_cells_looked_up_again_after_a_jump_of_n_cells(self, cells):
        # a jump of exactly n cells between drift_compensate and
        # integrate_cloud moves the center but leaves the ring offset as it
        # was: a cell lookup cached on (points, offset) would write the cloud
        # into the cells it had in the old window
        rng = np.random.default_rng(5)
        new, ref = _filled_pair(0.1, 2.0, rng)
        span = new.n * new.resolution
        model = _model(base=1e-4, range_coeff=1e-4)
        # the cloud covers the old window and the new one
        xy = new.center + rng.uniform(-0.5, 0.5, (400, 2)) * span
        xy += rng.integers(0, 2, (400, 1)) * np.array(cells) * span
        cloud = _cloud(np.column_stack([xy, rng.normal(0.1, 0.01, 400)]), 2.0)
        target = new.center + np.array(cells) * span
        returns = []
        for emap in (new, ref):
            shift = emap.drift_compensate(cloud)
            emap.recenter(target)
            returns.append((shift, emap.integrate_cloud(cloud, ORIGIN, model, 2.0)))
        assert returns[0] == returns[1]
        assert _same_state(new, ref)
        _, ok = new.cell_indices(xy)
        assert returns[0][1] == (~ok).sum() and 0 < ok.sum() < 400
        assert new.valid.sum() > 0


class TestFlatLookupsMatchFullGrid:
    """`integrate_cloud`, `drift_compensate` and `query_heights` address the
    layers through flat cell indices; `FullGridMap`'s 2-D fancy indexing is
    the oracle."""

    @pytest.mark.parametrize("resolution, size", GRIDS)
    @pytest.mark.parametrize("valid_frac", [0.0, 0.7, 1.0])
    def test_same_bytes(self, resolution, size, valid_frac):
        rng = np.random.default_rng(int(resolution * 1e4) + int(10 * valid_frac))
        new, ref = _filled_pair(resolution, size, rng)
        valid = rng.random((new.n, new.n)) < valid_frac
        new.valid[:], ref.valid[:] = valid, valid
        model = _model(base=1e-4, range_coeff=1e-4, time_rate=3e-6)
        span = new.n * resolution
        origin = np.array([*new.center, 0.5])
        # about a third of the points fall outside the window; clouds draw
        # from one pool, so that later ones meet cells that earlier ones set
        pool = new.center + rng.uniform(-0.75, 0.75, (600, 2)) * span
        shifts, t = 0, 1.0
        for step in range(25):
            m = int(rng.integers(1, 400))
            xy = pool[rng.integers(0, len(pool), m)]
            heights, _ = ref.query_heights(xy)
            z = np.where(np.isnan(heights), 0.1, heights) + rng.normal(0.0, 0.01, m)
            cloud = _cloud(np.column_stack([xy, z]), t)
            query = np.vstack([
                new.center + rng.uniform(-0.75, 0.75, (50, 2)) * span,
                [[np.nan, 0.0], [0.0, np.inf], [-np.inf, np.nan]],
            ])
            if step == 0:
                assert new.valid.all() == (valid_frac == 1.0)
                assert new.valid.any() == (valid_frac > 0.0)
            got, expect = new.query_heights(query), ref.query_heights(query)
            assert all(_same_bytes(a, b) for a, b in zip(got, expect)), step
            shift = new.drift_compensate(cloud)
            assert shift == ref.drift_compensate(cloud), step
            shifts += shift != 0.0
            skipped = new.integrate_cloud(cloud, origin, model, t)
            assert skipped == ref.integrate_cloud(cloud, origin, model, t), step
            assert _same_state(new, ref), step
            t += float(rng.uniform(0.0, 0.1))
        assert shifts > 0 and new.skipped_points > 0

    def test_no_valid_cell_reads_nothing(self):
        emap = ElevationMap(resolution=0.1, size=1.0)
        xy = np.random.default_rng(3).uniform(-0.6, 0.6, (40, 2))
        h, mask = emap.query_heights(xy)
        assert np.isnan(h).all() and not mask.any()
        assert emap.drift_compensate(_cloud(np.column_stack([xy, np.zeros(40)]))) == 0.0

    def test_cell_indices_bounds(self):
        emap = ElevationMap(resolution=0.1, size=1.0)
        lo, hi = emap.origin, emap.origin + 1.0
        xs = [lo[0] - 0.05, lo[0], lo[0] + 0.05, hi[0] - 1e-12, hi[0], np.nan, np.inf, -np.inf, -1e30, 1e30]
        xy = np.array([[x, y] for x in xs for y in xs])
        idx, ok = emap.cell_indices(xy)
        expect = (idx >= 0).all(axis=1) & (idx < emap.n).all(axis=1)
        np.testing.assert_array_equal(ok, expect)
        assert ok.sum() == 9 and idx.shape == (len(xy), 2)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_and_huge_points_read_and_write_nothing(self):
        # cell_indices clamps before its cast to int, so these coordinates
        # fall out of range without an undefined cast and its warning
        emap = ElevationMap(resolution=0.1, size=1.0)
        emap.integrate_cloud(_cloud([[0.0, 0.0, 0.2]] * 25), ORIGIN, _model(), 0.0)
        before = {k: getattr(emap, k).copy() for k in ("height", "variance", "valid")}
        bad = [np.nan, np.inf, -np.inf, 1e30, -1e30]
        xy = np.array([[x, 0.0] for x in bad] + [[0.0, y] for y in bad])
        h, mask = emap.query_heights(xy)
        assert np.isnan(h).all() and not mask.any()
        # a cloud checks its points for finiteness when it is built; these
        # are set after that check
        cloud = _cloud([[0.0, 0.0, 0.0]], t=1.0)
        cloud.points = np.column_stack([xy, np.full(len(xy), 0.2)])
        assert emap.drift_compensate(cloud) == 0.0
        assert emap.integrate_cloud(cloud, ORIGIN, _model(), 1.0) == len(xy)
        assert all(_same_bytes(getattr(emap, k), v) for k, v in before.items())


class TestRecenterJumps:
    @pytest.mark.parametrize("cells", [200, 201, 240, 399, 400, 480, -200, -240, -399])
    def test_jump_of_n_or_more_cells_clears_every_layer(self, cells):
        # a jump of n to 2n - 1 cells (240 is 6 m on this 5 m map) used to
        # raise a numpy broadcast error
        emap = ElevationMap(resolution=0.025, size=5.0)
        xy = np.random.default_rng(0).uniform(-2.4, 2.4, (500, 2))
        cloud = _cloud(np.column_stack([xy, np.full(500, 0.2)]))
        emap.integrate_cloud(cloud, ORIGIN, _model(), 1.0)
        emap.recenter(np.array([cells * 0.025, 0.0]))
        assert not emap.valid.any()
        assert not emap.height.any() and not emap.variance.any() and not emap.last_update.any()
        np.testing.assert_allclose(emap.center, [cells * 0.025, 0.0], atol=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("xy", [(np.nan, 0.0), (0.0, -np.inf), (np.inf, np.nan)])
    def test_non_finite_robot_position_rejected(self, xy):
        # a NaN used to cast to int with a warning and move the center to -2.3e17
        emap = ElevationMap(resolution=0.025, size=5.0)
        with pytest.raises(ValueError, match="robot position"):
            emap.recenter(np.array(xy))
        np.testing.assert_array_equal(emap.center, [0.0, 0.0])

    @pytest.mark.filterwarnings("error")
    def test_jump_that_overflows_rejected(self):
        # 1e308 m is finite, but its jump in cells is not; the jump is bounded
        # before the divide, which used to warn about the overflow first
        emap = ElevationMap(resolution=0.025, size=5.0)
        with pytest.raises(ValueError, match="robot position"):
            emap.recenter(np.array([1e308, 0.0]))
        np.testing.assert_array_equal(emap.center, [0.0, 0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [1e300, -1e300, 1e20])
    def test_huge_jump_clears_and_moves_the_center_by_the_whole_jump(self, x):
        # the jump is clamped to the map width only after the float round,
        # so no cast warns, and the center moves by the unclamped jump (1e300
        # used to move it to -2.3e17, the wrong direction)
        emap = ElevationMap(resolution=0.025, size=5.0)
        emap.integrate_cloud(_cloud([[0.0, 0.0, 0.2]]), ORIGIN, _model(), 1.0)
        emap.recenter(np.array([x, 0.0]))
        assert not emap.valid.any()
        assert emap.center[0] == np.round(x / 0.025) * 0.025 and emap.center[1] == 0.0

    def test_center_past_the_reach_rejected(self):
        # center / resolution used to overflow with a warning and leave an
        # infinite center, so that every later recenter raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"map center must be within .*1e\+308"):
                ElevationMap(resolution=0.025, size=5.0, center=(1e308, 0.0))

    def test_robot_position_past_the_reach_rejected(self):
        # at 2 m, -1e308 used to be accepted as the center, and a recenter to
        # 1.7e308 then overflowed in the subtraction before its ValueError
        emap = ElevationMap(resolution=2.0, size=4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (-1e308, 1.7e308):
                value = re.escape(f"[{x!r}, 0.0]")
                with pytest.raises(ValueError, match=f"robot position .*: {value}"):
                    emap.recenter(np.array([x, 0.0]))
        np.testing.assert_array_equal(emap.center, [0.0, 0.0])

    @pytest.mark.parametrize("resolution", [0.0125, 2.0, 5.0])
    def test_positions_at_the_reach_stay_finite(self, resolution):
        # a center or a robot position at either end of the reach, and the
        # jumps between the two ends, compute without an overflow
        emap = ElevationMap(resolution=resolution, size=5.0)
        reach = emap._reach
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emap = ElevationMap(resolution=resolution, size=5.0, center=(reach, -reach))
            for x, y in [(-reach, reach), (reach, reach), (-reach, -reach), (0.0, 0.0)]:
                emap.recenter(np.array([x, y]))
                assert np.isfinite(emap.center).all() and np.isfinite(emap.origin).all()
        np.testing.assert_array_equal(emap.center, [0.0, 0.0])

    @pytest.mark.parametrize("resolution", [0.0125, 0.025, 2.0])
    @pytest.mark.parametrize("at_reach", [False, True])
    def test_points_past_the_float_range_read_and_write_nothing(self, resolution, at_reach):
        # cell_indices divided before it clamped, so a finite point beyond
        # resolution x float max overflowed with a warning; the in-window
        # point of the same cloud still lands in its cell
        emap = ElevationMap(resolution=resolution, size=5.0)
        if at_reach:
            emap = ElevationMap(resolution=resolution, size=5.0, center=(emap._reach, -emap._reach))
        huge = [1.7e308, -1.7e308, sys.float_info.max, -sys.float_info.max]
        xy = np.array([[x, emap.center[1]] for x in huge] + [[emap.center[0], y] for y in huge])
        cloud = _cloud(np.column_stack([np.vstack([xy, emap.center]), np.full(len(xy) + 1, 0.2)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h, mask = emap.query_heights(xy)
            assert np.isnan(h).all() and not mask.any()
            assert emap.drift_compensate(cloud) == 0.0
            origin = np.array([*emap.center, 0.5])
            assert emap.integrate_cloud(cloud, origin, _model(), 0.0) == len(xy)
            h, mask = emap.query_heights(np.vstack([xy, emap.center]))
        assert mask.tolist() == [False] * len(xy) + [True] and h[-1] == 0.2
        assert emap.valid.sum() == 1

    @pytest.mark.parametrize("center", [(np.nan, 0.0), (0.0, np.inf)])
    def test_non_finite_center_rejected(self, center):
        with pytest.raises(ValueError, match="map center"):
            ElevationMap(resolution=0.025, size=5.0, center=center)
