import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from elevsim.elevmap import ElevationMap, SensorVarianceModel
from elevsim.geometry import Pose, quat_from_yaw, rotz
from elevsim import metrics
from elevsim.metrics import (
    _interp_vec,
    _lattice_nearest,
    _relative,
    TrajectorySamples,
    chamfer_one_way,
    map_vs_ground_truth,
    rte,
    tracking_rms,
)
from elevsim.pipeline import ScenarioConfig, run_scenario
from elevsim.pointcloud import PointCloud
from elevsim.scene import (
    SAMPLE_REGION,
    FlatRegion,
    SceneSpec,
    Step,
    build_scene,
    ground_truth_patch,
    obstacle_scene,
)
from elevsim.sensorsim import CommandProfile


def _brute_chamfer_cm(p1, p2):
    d = np.linalg.norm(p1[:, None, :] - p2[None, :, :], axis=2)
    return float(d.min(axis=1).mean()) * 100.0


class TestChamfer:
    def test_identical_clouds_zero(self, rng):
        p = rng.normal(0, 1, (100, 3))
        assert chamfer_one_way(p, p) == 0.0

    def test_known_offset(self):
        p1 = np.zeros((10, 3))
        p2 = np.zeros((10, 3))
        p2[:, 2] = 0.05
        assert chamfer_one_way(p1, p2) == pytest.approx(5.0, rel=1e-12)

    def test_asymmetric(self, rng):
        p1 = rng.normal(0, 1, (50, 3))
        p2 = np.vstack([p1, rng.normal(0, 5, (50, 3))])
        assert chamfer_one_way(p1, p2) == 0.0
        assert chamfer_one_way(p2, p1) > 0.0

    def test_accepts_pointcloud_objects(self, rng):
        pts = rng.normal(0, 1, (20, 3))
        c = PointCloud(t=0.0, frame="world", points=pts)
        assert chamfer_one_way(c, c) == 0.0

    def test_empty_source_warns_zero(self, rng):
        assert chamfer_one_way(np.zeros((0, 3)), rng.normal(0, 1, (5, 3))) == 0.0

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            chamfer_one_way(np.zeros((5, 3)), np.zeros((0, 3)))

    def test_unbalanced_tree_keeps_the_bits(self, rng):
        # a ground-truth-like grid target with a 10 cm step; the queries at
        # cell centres tie between grid points
        gx, gy = np.meshgrid(np.arange(0.0, 1.2, 0.0175), np.arange(0.0, 0.8, 0.0175))
        target = np.column_stack([gx.ravel(), gy.ravel(), np.where(gx.ravel() < 0.6, 0.0, 0.1)])
        picks = target[rng.choice(len(target), 400)]
        source = np.vstack([picks + rng.normal(0.0, 0.01, (400, 3)), picks + [0.00875, 0.00875, 0]])
        balanced, _ = cKDTree(target).query(source)
        unbalanced, _ = cKDTree(target, balanced_tree=False).query(source)
        assert unbalanced.tobytes() == balanced.tobytes()
        assert chamfer_one_way(source, target) == float(balanced.mean()) * 100.0


class TestMapVsGroundTruth:
    def _filled_map(self, hf, center, z_offset=0.0):
        emap = ElevationMap(resolution=0.025, size=4.0, center=center[:2])
        cx = np.arange(center[0] - 1.0, center[0] + 1.0, 0.025)
        cy = np.arange(center[1] - 0.8, center[1] + 0.8, 0.025)
        gx, gy = np.meshgrid(cx, cy, indexing="ij")
        xy = np.column_stack([gx.ravel(), gy.ravel()])
        z = hf.heights_at(xy) + z_offset
        emap.integrate_cloud(
            PointCloud(t=0.0, frame="world", points=np.column_stack([xy, z])),
            np.array([*center[:2], 1.0]),
            SensorVarianceModel(),
            0.0,
        )
        return emap

    def test_perfect_map_small_error(self, obstacle_hf):
        pose = Pose(np.array([3.2, 1.5, 0.4]), quat_from_yaw(0.0))
        emap = self._filled_map(obstacle_hf, pose.position)
        c = map_vs_ground_truth(emap, obstacle_hf, pose, pose)
        # bounded by grid quantization around step edges
        assert c is not None and c < 1.5

    def test_uniform_z_error_measured(self, obstacle_hf):
        pose = Pose(np.array([1.5, 1.5, 0.3]), quat_from_yaw(0.0))
        emap = self._filled_map(obstacle_hf, pose.position, z_offset=0.04)
        c = map_vs_ground_truth(emap, obstacle_hf, pose, pose)
        assert c == pytest.approx(4.0, abs=0.3)

    def test_empty_region_returns_none(self, obstacle_hf):
        pose = Pose(np.array([3.2, 1.5, 0.4]), quat_from_yaw(0.0))
        emap = ElevationMap(resolution=0.025, size=4.0, center=pose.position[:2])
        assert map_vs_ground_truth(emap, obstacle_hf, pose, pose) is None

    def test_estimated_vs_true_pose_alignment_cancels_offset(self, obstacle_hf):
        # map built around a shifted estimate: comparing robot-centrically
        # against the true pose cancels the common offset on flat ground
        true_pose = Pose(np.array([1.5, 1.5, 0.3]), quat_from_yaw(0.0))
        est_pose = Pose(np.array([1.7, 1.5, 0.3]), quat_from_yaw(0.0))
        emap = ElevationMap(resolution=0.025, size=4.0, center=est_pose.position[:2])
        cx = np.arange(0.7, 2.7, 0.025)
        cy = np.arange(0.7, 2.3, 0.025)
        gx, gy = np.meshgrid(cx, cy, indexing="ij")
        xy = np.column_stack([gx.ravel(), gy.ravel()])
        emap.integrate_cloud(
            PointCloud(t=0.0, frame="world", points=np.column_stack([xy, np.zeros(len(xy))])),
            np.array([1.7, 1.5, 1.0]),
            SensorVarianceModel(),
            0.0,
        )
        c_offset = map_vs_ground_truth(emap, obstacle_hf, est_pose, true_pose)
        c_aligned = map_vs_ground_truth(emap, obstacle_hf, est_pose, est_pose)
        # both reduce to grid-vs-grid quantization residue; the 0.2 m estimate
        # offset itself must not show up
        assert c_offset is not None and c_aligned is not None
        assert abs(c_offset - c_aligned) < 0.2
        assert c_offset < 1.0


LATTICE_SCENES = {
    "obstacle": build_scene(obstacle_scene()),
    # 1.0 m x 0.6 m: most patches hang off an edge and leave holes in the lattice
    "small": build_scene(SceneSpec([FlatRegion(0.0), Step(x_start=0.4, height=0.1, depth=0.3)],
                                   (1.0, 0.6))),
}


def _map_points(hf, est, resolution, sigma, rng):
    """Cell centres of a world-aligned map grid at `resolution` inside the
    yaw-aligned SAMPLE_REGION around `est`, at the terrain height (0 off the
    scene) plus noise, as `region_points` gives them."""
    half = np.hypot(*SAMPLE_REGION) / 2 + resolution
    lo = np.floor((est.position[:2] - half) / resolution)
    hi = np.ceil((est.position[:2] + half) / resolution)
    gx, gy = np.meshgrid(*((np.arange(a, b) + 0.5) * resolution for a, b in zip(lo, hi)),
                         indexing="ij")
    xy = np.column_stack([gx.ravel(), gy.ravel()])
    z = hf.heights_at(xy, fill=0.0) + rng.normal(0.0, sigma, len(xy))
    pts = np.column_stack([xy, z])
    rel = _relative(pts, est)
    inside = (abs(rel[:, 0]) <= SAMPLE_REGION[0] / 2) & (abs(rel[:, 1]) <= SAMPLE_REGION[1] / 2)
    return pts[inside]


class TestLatticeChamfer:
    """The ground-truth patch's lattice windows give a `cKDTree` query's bits."""

    @settings(max_examples=120, deadline=None)
    @given(
        scene=st.sampled_from(sorted(LATTICE_SCENES)),
        x=st.floats(-0.2, 8.2),
        y=st.floats(-0.2, 3.2),
        yaw=st.floats(-np.pi, np.pi),
        # the estimate's drift: up to 0.3 m puts map points off the patch
        drift=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.floats(-0.05, 0.05)),
        dyaw=st.floats(-0.2, 0.2),
        resolution=st.sampled_from([0.0125, 0.02, 0.025, 0.05]),
        sigma=st.sampled_from([0.0, 0.002, 0.02]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_as_tree_query(self, scene, x, y, yaw, drift, dyaw, resolution, sigma,
                                     seed):
        hf = LATTICE_SCENES[scene]
        true = Pose(np.array([x, y, 0.3]), quat_from_yaw(yaw))
        est = Pose(true.position + drift, quat_from_yaw(yaw + dyaw))
        gt = ground_truth_patch(hf, true)
        map_pts = _map_points(hf, est, resolution, sigma, np.random.default_rng(seed))
        assume(len(gt) and len(map_pts))
        p1, p2 = _relative(map_pts, est), _relative(gt.points, true)
        want = cKDTree(p2).query(p1)[0]
        got = np.full_like(want, np.nan)
        todo = _lattice_nearest(p1, p2, gt.pixels, got)
        cleared = np.ones(len(p1), dtype=bool)
        cleared[todo] = False
        assert got[cleared].tobytes() == want[cleared].tobytes()
        assert np.isnan(got[~cleared]).all()
        chamfer = (float(want.mean()) * 100.0).hex()
        assert chamfer_one_way(p1, p2, gt.pixels).hex() == chamfer
        assert chamfer_one_way(p1, p2).hex() == chamfer

    def test_aligned_map_needs_no_brute_force(self, monkeypatch):
        hf = LATTICE_SCENES["obstacle"]
        pose = Pose(np.array([3.2, 1.5, 0.4]), quat_from_yaw(0.3))
        gt = ground_truth_patch(hf, pose)
        p1 = _relative(_map_points(hf, pose, 0.025, 0.002, np.random.default_rng(0)), pose)
        p2 = _relative(gt.points, pose)
        want = chamfer_one_way(p1, p2)

        def no_brute_force(*args, **kwargs):
            raise AssertionError("a map point that a window clears went to the brute force")

        monkeypatch.setattr(metrics, "nearest_sq", no_brute_force)
        assert len(p1) > 200
        assert chamfer_one_way(p1, p2, gt.pixels) == want

    def test_brute_force_memory_is_bounded(self, rng):
        # unchunked, the (2000, 2000) squared distances alone take 32 MB
        p1, p2 = rng.normal(0, 1, (2000, 3)), rng.normal(0, 1, (2000, 3))
        tracemalloc.start()
        try:
            chamfer_one_way(p1, p2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def _loop_rte(est, gt, segment_length=1.0) -> list[float]:
    """`rte` one segment at a time, as it was computed: the oracle of the
    one-pass version."""
    s = gt.arc_lengths()
    gt_yaw, est_yaw = gt.yaws(), est.yaws()
    errors = []
    for k in range(int(s[-1] // segment_length)):
        t0 = float(np.interp(k * segment_length, s, gt.t))
        t1 = float(np.interp((k + 1) * segment_length, s, gt.t))
        g0 = _interp_vec(np.array([t0]), gt.t, gt.positions)[0]
        g1 = _interp_vec(np.array([t1]), gt.t, gt.positions)[0]
        e0 = _interp_vec(np.array([t0]), est.t, est.positions)[0]
        e1 = _interp_vec(np.array([t1]), est.t, est.positions)[0]
        dyaw = float(np.interp(t0, gt.t, gt_yaw) - np.interp(t0, est.t, est_yaw))
        aligned_end = g0 + rotz(dyaw) @ (e1 - e0)
        errors.append(float(np.linalg.norm(aligned_end - g1)))
    return errors


def _walk(rng, n, dt):
    """A turning, climbing walk of n samples with its yaw quaternions."""
    yaw = np.cumsum(rng.normal(0.0, 0.05, n))
    step = rng.uniform(0.0, 0.6, n)[:, None] * dt * np.column_stack([np.cos(yaw), np.sin(yaw)])
    pos = np.column_stack([np.cumsum(step, axis=0), np.cumsum(rng.normal(0, 0.002, n))])
    return TrajectorySamples(t=np.arange(n) * dt, positions=pos, quats=quat_from_yaw(yaw))


class TestRte:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(40, 1500), st.sampled_from([0.25, 0.5, 1.0]),
           st.booleans())
    def test_one_pass_matches_the_segment_loop(self, seed, n, segment_length, own_clock):
        rng = np.random.default_rng(seed)
        gt = _walk(rng, n, 0.02)
        assume(gt.arc_lengths()[-1] >= segment_length)
        # a drifting, noisy estimate with a yaw error, on the same clock or
        # its own
        est_t = gt.t if not own_clock else np.sort(rng.uniform(-0.1, gt.t[-1] + 0.1, n // 2 + 2))
        est_t = np.unique(est_t)
        drift = np.outer(est_t, rng.normal(0, 0.05, 3)) + rng.normal(0, 0.01, (len(est_t), 3))
        est = TrajectorySamples(
            t=est_t,
            positions=_interp_vec(est_t, gt.t, gt.positions) + drift,
            quats=quat_from_yaw(np.interp(est_t, gt.t, gt.yaws()) + rng.normal(0, 0.05)),
        )
        got = rte(est, gt, segment_length).values
        assert type(got) is list
        assert [v.hex() for v in got] == [v.hex() for v in _loop_rte(est, gt, segment_length)]

    def test_one_pass_matches_the_segment_loop_on_a_fused_run(self):
        result = run_scenario(ScenarioConfig.from_dict({
            "command": [[2.0, [0.5, 0.0, 0.2]], [2.0, [0.5, 0.0, -0.2]]],
            "odometry": "ekf-vio", "use_rear_camera": False, "seed": 4,
        }))
        est, gt = result.est_trajectory, result.gt_trajectory
        want = _loop_rte(est, gt)
        assert len(want) >= 1
        assert [v.hex() for v in rte(est, gt).values] == [v.hex() for v in want]
        assert result.metrics["rte_mean_m"] == float(np.mean(want))

    @staticmethod
    def _straight(n=600, v=0.5, dt=0.02):
        t = np.arange(n) * dt
        pos = np.column_stack([v * t, np.zeros(n), np.zeros(n)])
        quats = np.tile([1.0, 0, 0, 0], (n, 1))
        return TrajectorySamples(t=t, positions=pos, quats=quats)

    def test_identical_trajectories_zero_error(self):
        gt = self._straight()
        report = rte(gt, gt)
        assert report.mean == pytest.approx(0.0, abs=1e-12)
        assert len(report.values) >= 5

    def test_five_percent_scale_error_gives_005(self):
        gt = self._straight(n=2500)  # 25 m -> >= 10 segments of 1 m
        est = TrajectorySamples(
            t=gt.t, positions=gt.positions * 1.05, quats=gt.quats
        )
        report = rte(est, gt, segment_length=1.0)
        assert len(report.values) >= 10
        assert abs(report.mean - 0.05) <= 0.005

    def test_constant_offset_cancelled_by_start_alignment(self):
        gt = self._straight()
        est = TrajectorySamples(
            t=gt.t, positions=gt.positions + [3.0, -2.0, 0.5], quats=gt.quats
        )
        assert rte(est, gt).mean == pytest.approx(0.0, abs=1e-12)

    def test_yaw_offset_cancelled_by_start_alignment(self):
        gt = self._straight()
        ang = 0.3
        R = np.array(
            [[np.cos(ang), -np.sin(ang), 0], [np.sin(ang), np.cos(ang), 0], [0, 0, 1]]
        )
        est_pos = gt.positions @ R.T
        est_quats = np.tile(quat_from_yaw(ang), (len(gt.t), 1))
        est = TrajectorySamples(t=gt.t, positions=est_pos, quats=est_quats)
        assert rte(est, gt).mean == pytest.approx(0.0, abs=1e-9)

    def test_too_short_trajectory_rejected(self):
        gt = self._straight(n=20)
        with pytest.raises(ValueError):
            rte(gt, gt)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "segment_length, text",
        [(-1.0, "positive and finite"), (0.0, "positive and finite"), (np.nan, "finite")],
    )
    def test_bad_segment_length_rejected(self, segment_length, text):
        # -1 used to return no segments, 0 to overflow and NaN to fail its cast
        gt = self._straight()
        with pytest.raises(ValueError, match=f"segment_length must be {text}"):
            rte(gt, gt, segment_length=segment_length)

    def test_nonmonotonic_time_rejected(self):
        with pytest.raises(ValueError):
            TrajectorySamples(
                t=np.array([0.0, 1.0, 1.0]),
                positions=np.zeros((3, 3)),
                quats=np.tile([1.0, 0, 0, 0], (3, 1)),
            )

    def test_csv_round_trip(self, tmp_path):
        gt = self._straight(n=50)
        path = tmp_path / "traj.csv"
        gt.save_csv(path)
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(back[:, 0], gt.t, atol=1e-6)
        np.testing.assert_allclose(back[:, 1:4], gt.positions, atol=1e-6)
        np.testing.assert_allclose(back[:, 4:8], gt.quats, atol=1e-6)


class TestTrackingRms:
    def test_sinusoidal_error_rms(self):
        profile = CommandProfile.constant((0.5, 0.0, 0.0), 10.0)
        t = np.arange(0.0, 10.0, 0.02)
        amp = 0.1
        v = np.column_stack(
            [0.5 + amp * np.sin(2 * np.pi * 2.0 * t), np.zeros_like(t), np.zeros_like(t)]
        )
        rms, skipped = tracking_rms(t, v, profile)
        assert skipped == 0
        assert rms[0] == pytest.approx(amp / np.sqrt(2), rel=0.02)
        assert rms[1] == 0.0 and rms[2] == 0.0

    def test_settle_window_excluded(self):
        profile = CommandProfile([(2.0, (0.0, 0.0, 0.0)), (2.0, (1.0, 0.0, 0.0))])
        t = np.arange(0.0, 4.0, 0.02)
        # perfect tracking after a 0.5 s first-order lag at each boundary
        v = np.zeros((len(t), 3))
        seg2 = t >= 2.0
        v[seg2, 0] = 1.0 - np.exp(-(t[seg2] - 2.0) / 0.1)
        rms, _ = tracking_rms(t, v, profile)
        assert rms[0] < 0.01

    def test_short_segment_skipped(self):
        profile = CommandProfile([(0.5, (0.5, 0.0, 0.0)), (3.0, (0.5, 0.0, 0.0))])
        t = np.arange(0.0, 3.5, 0.02)
        v = np.tile([0.5, 0.0, 0.0], (len(t), 1))
        rms, skipped = tracking_rms(t, v, profile)
        assert skipped == 1
        assert rms[0] == pytest.approx(0.0, abs=1e-12)

    def test_all_settling_rejected(self):
        profile = CommandProfile.constant((0.5, 0.0, 0.0), 1.0)
        t = np.array([0.1, 0.2])
        with pytest.raises(ValueError):
            tracking_rms(t, np.zeros((2, 3)), profile)


class TestChamferOracle:
    def test_kdtree_matches_brute_force_50_pairs(self, rng):
        import time

        start = time.perf_counter()
        for _ in range(50):
            n1 = int(rng.integers(1, 1000))
            n2 = int(rng.integers(1, 1000))
            p1 = rng.uniform(-2, 2, (n1, 3))
            p2 = rng.uniform(-2, 2, (n2, 3))
            fast = chamfer_one_way(p1, p2)
            brute = _brute_chamfer_cm(p1, p2)
            assert abs(fast - brute) <= 1e-9 * max(1.0, abs(brute))
        assert time.perf_counter() - start < 5.0
