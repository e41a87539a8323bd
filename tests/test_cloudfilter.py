import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from elevsim.cloudfilter import (
    BODY_MARGIN,
    CALF_LENGTH,
    LEG_RADIUS,
    OUTLIER_K,
    OUTLIER_STD_RATIO,
    THIGH_LENGTH,
    TRUNK_HALF_LENGTH,
    TRUNK_RADIUS,
    body_capsules,
    body_filter,
    remove_outliers,
    voxel_downsample,
)
from elevsim import cloudfilter
from elevsim.geometry import Pose, quat_from_euler
from elevsim.scene import FlatRegion, SceneSpec, Step, build_scene, obstacle_scene
from elevsim.sensorsim import (
    HIP_OFFSETS,
    Q_STAND,
    TRUNK_HEIGHT,
    RobotState,
    SensorNoise,
    default_front_camera,
    default_rear_camera,
    inject_sensor_noise,
    render_depth,
)
from maplayers import cloud as _cloud

SCENES = {
    "obstacle": build_scene(obstacle_scene()),
    "step": build_scene(SceneSpec([FlatRegion(0.0), Step(x_start=2.0, height=0.15, depth=1.0)],
                                  (4.0, 2.0))),
}


def _reference_voxel_downsample(cloud, resolution):
    """Row-wise np.unique with np.add.at sums: the oracle for the packed-key
    voxel filter."""
    keys = np.floor(cloud.points / resolution).astype(np.int64)
    _, inv, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    sums = np.zeros((len(counts), 3))
    np.add.at(sums, inv, cloud.points)
    first = np.full(len(counts), len(cloud), dtype=np.int64)
    np.minimum.at(first, inv, np.arange(len(cloud)))
    return (sums / counts[:, None])[np.argsort(first)]


def _reference_capsules(state):
    """Capsules with every endpoint through `Pose.transform`."""
    pose = state.pose
    caps = [
        (
            pose.transform(np.array([TRUNK_HALF_LENGTH, 0.0, 0.0])),
            pose.transform(np.array([-TRUNK_HALF_LENGTH, 0.0, 0.0])),
            TRUNK_RADIUS,
        )
    ]
    for f in range(4):
        roll, thigh, calf = state.q[3 * f : 3 * f + 3]
        rx = np.array([[1, 0, 0], [0, np.cos(roll), -np.sin(roll)], [0, np.sin(roll), np.cos(roll)]])

        def leg_dir(pitch):
            return rx @ np.array([np.sin(pitch), 0.0, -np.cos(pitch)])

        hip = HIP_OFFSETS[f]
        knee = hip + THIGH_LENGTH * leg_dir(thigh)
        foot = knee + CALF_LENGTH * leg_dir(thigh + calf)
        caps.append((pose.transform(hip), pose.transform(knee), LEG_RADIUS))
        caps.append((pose.transform(knee), pose.transform(foot), LEG_RADIUS))
    return caps


def _point_segment_dist(points, p0, p1):
    """Distance of each point to the segment p0-p1, one capsule at a time."""
    seg = p1 - p0
    L2 = float(seg @ seg)
    if L2 == 0.0:
        return np.linalg.norm(points - p0, axis=1)
    u = np.clip((points - p0) @ seg / L2, 0.0, 1.0)
    closest = p0 + u[:, None] * seg
    return np.linalg.norm(points - closest, axis=1)


def _reference_body_filter(points, state):
    """Distance test of every point against every capsule, no cull."""
    keep = np.ones(len(points), dtype=bool)
    for p0, p1, r in _reference_capsules(state):
        keep &= _point_segment_dist(points, p0, p1) > r + BODY_MARGIN
    return points[keep]


def _body_filter(cloud, state):
    return body_filter(cloud, body_capsules(state.pose, state.q))


def _standing_state(position=(0.0, 0.0, 0.30), quat=(1.0, 0.0, 0.0, 0.0)):
    return RobotState(
        t=0.0,
        position=np.asarray(position, dtype=float),
        quat=np.asarray(quat, dtype=float),
        lin_vel_body=np.zeros(3),
        ang_vel_body=np.zeros(3),
        q=Q_STAND.copy(),
        dq=np.zeros(12),
        foot_contacts=np.ones(4, dtype=bool),
        foot_air_times=np.zeros(4),
        foot_touchdown_air=np.zeros(4),
    )


class TestOutlierRemoval:
    def test_isolated_point_removed(self, rng):
        dense = rng.normal(0.0, 0.05, (200, 3))
        outlier = np.array([[5.0, 5.0, 5.0]])
        cloud = _cloud(np.vstack([dense, outlier]))
        out = remove_outliers(cloud)
        assert len(out) == 200
        assert not np.any(np.all(out.points == outlier, axis=1))

    def test_matches_brute_force_oracle(self, rng):
        pts = rng.normal(0.0, 0.3, (150, 3))
        cloud = _cloud(pts)
        # O(n^2) oracle
        d2 = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(d2, np.inf)
        knn_mean = np.sort(d2, axis=1)[:, :OUTLIER_K].mean(axis=1)
        keep = knn_mean <= knn_mean.mean() + OUTLIER_STD_RATIO * knn_mean.std()
        out = remove_outliers(cloud)
        np.testing.assert_array_equal(out.points, pts[keep])

    def test_small_cloud_unchanged(self):
        cloud = _cloud(np.arange(3.0 * OUTLIER_K).reshape(OUTLIER_K, 3))
        out = remove_outliers(cloud)
        assert out is cloud

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(OUTLIER_K + 1, 400),
        # a coarse pitch puts many points on shared coordinates: tied distances
        pitch=st.sampled_from([0.0, 0.01, 0.05]),
        spread=st.sampled_from([0.01, 0.3, 3.0]),
        duplicates=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_as_tree_query_without_pixels(self, n, pitch, spread, duplicates, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0.0, spread, (n, 3))
        if pitch:
            pts = np.round(pts / pitch) * pitch
        pts = np.vstack([pts, pts[rng.integers(0, n, duplicates)]])
        want = cKDTree(pts).query(pts, k=OUTLIER_K + 1)[0]
        got = np.sqrt(cloudfilter.nearest_sq(pts, pts, OUTLIER_K + 1))
        assert got.tobytes() == want.tobytes()
        mean_d = cloudfilter._neighbor_mean(want)
        keep = mean_d <= mean_d.mean() + OUTLIER_STD_RATIO * mean_d.std()
        assert remove_outliers(_cloud(pts)).points.tobytes() == pts[keep].tobytes()

    def test_brute_force_memory_is_bounded(self, rng):
        # unchunked, the (5000, 5000) squared distances alone take 200 MB
        cloud = _cloud(rng.normal(0.0, 1.0, (5000, 3)))
        tracemalloc.start()
        try:
            remove_outliers(cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def _frame(scene, front, x, y, yaw, pitch, roll, drift, noise, seed):
    """A depth frame as the pipeline makes it: rendered from a drawn base
    pose, noised, moved to the world by an estimate off by `drift`; with its
    camera and its points' sensor ranges."""
    hf = SCENES[scene]
    cam = default_front_camera() if front else default_rear_camera()
    z = hf.height_at(x, y) + TRUNK_HEIGHT
    base = Pose(np.array([x, y, z]), quat_from_euler(roll, pitch, yaw))
    cloud = render_depth(cam, base.compose(cam.mount), hf, 0.0)
    cloud = inject_sensor_noise(cloud, noise, np.random.default_rng(seed))
    est = Pose(base.position + drift, base.quat).compose(cam.mount)
    return cloud.transformed(est), cam, cloud.ranges()


class TestRasterKnn:
    """The raster windows give a `cKDTree` query's bits."""

    @settings(max_examples=60, deadline=None)
    @given(
        scene=st.sampled_from(sorted(SCENES)),
        front=st.booleans(),
        x=st.floats(0.6, 3.4),
        y=st.floats(0.6, 1.4),
        yaw=st.floats(-np.pi, np.pi),
        pitch=st.floats(-0.3, 0.3),
        roll=st.floats(-0.3, 0.3),
        drift=st.tuples(*[st.floats(-0.1, 0.1)] * 3),
        # up to 0.5 m at zero range: it flips the sign of many near ranges
        sigma0=st.sampled_from([0.0, 0.005, 0.5]),
        k=st.sampled_from([0.0, 0.01]),
        dropout=st.sampled_from([0.0, 0.1, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_as_tree_query(self, scene, front, x, y, yaw, pitch, roll, drift,
                                     sigma0, k, dropout, seed):
        noise = SensorNoise(sigma0=sigma0, k=k, dropout=dropout)
        world, cam, ranges = _frame(scene, front, x, y, yaw, pitch, roll, np.array(drift),
                                    noise, seed)
        if len(world) < OUTLIER_K + 1:
            return
        want = cKDTree(world.points).query(world.points, k=OUTLIER_K + 1)[0]
        got = np.full_like(want, np.nan)
        todo = cloudfilter._window_knn(world.points, world.pixels, ranges, cam, got)
        cleared = np.ones(len(world), dtype=bool)
        cleared[todo] = False
        assert got[cleared].tobytes() == want[cleared].tobytes()
        assert np.isnan(got[~cleared]).all()
        out = remove_outliers(world, cam, ranges)
        assert out.points.tobytes() == remove_outliers(world).points.tobytes()

    def test_flat_front_frame_needs_no_brute_force(self, monkeypatch):
        hf = build_scene(SceneSpec([FlatRegion(0.0)], (4.0, 2.0)))
        monkeypatch.setitem(SCENES, "flat", hf)
        world, cam, ranges = _frame("flat", True, 1.0, 1.0, 0.0, 0.0, 0.0, np.zeros(3),
                                    SensorNoise(), 0)
        want = remove_outliers(world)

        def no_brute_force(*args, **kwargs):
            raise AssertionError("a frame that the raster clears went to the brute force")

        monkeypatch.setattr(cloudfilter, "nearest_sq", no_brute_force)
        assert len(world) > 500
        assert remove_outliers(world, cam, ranges).points.tobytes() == want.points.tobytes()


class TestVoxelDownsample:
    def test_centroids_match_brute_force_hash(self, rng):
        pts = rng.uniform(-1.0, 1.0, (500, 3))
        res = 0.1
        out = voxel_downsample(_cloud(pts), res)
        # oracle: dict keyed by voxel index, centroid per bucket
        buckets: dict[tuple, list] = {}
        for p in pts:
            buckets.setdefault(tuple(np.floor(p / res).astype(int)), []).append(p)
        assert len(out) == len(buckets)
        expect = {k: np.mean(v, axis=0) for k, v in buckets.items()}
        for c in out.points:
            key = tuple(np.floor(c / res).astype(int))
            np.testing.assert_allclose(c, expect[key], atol=1e-12)

    def test_idempotent_on_own_output(self, rng):
        pts = rng.uniform(-1.0, 1.0, (300, 3))
        once = voxel_downsample(_cloud(pts), 0.1)
        twice = voxel_downsample(once, 0.1)
        np.testing.assert_array_equal(once.points, twice.points)

    def test_first_occupancy_order_is_deterministic(self, rng):
        pts = rng.uniform(-1.0, 1.0, (300, 3))
        a = voxel_downsample(_cloud(pts), 0.1)
        b = voxel_downsample(_cloud(pts), 0.1)
        np.testing.assert_array_equal(a.points, b.points)

    def test_empty_cloud_passthrough(self):
        cloud = _cloud(np.zeros((0, 3)))
        assert voxel_downsample(cloud, 0.1) is cloud

    def test_invalid_resolution_rejected(self):
        with pytest.raises(ValueError):
            voxel_downsample(_cloud([[0, 0, 0]]), 0.0)

    @pytest.mark.parametrize("resolution", [np.inf, np.nan])
    def test_non_finite_resolution_rejected(self, resolution):
        # an infinite pitch put points 50 m apart into one voxel
        with pytest.raises(ValueError, match="resolution must be positive and finite"):
            voxel_downsample(_cloud([[1.0, 0, 0], [-50.0, 3, 0]]), resolution)

    @pytest.mark.parametrize(
        "case",
        ["negative", "duplicates", "single_voxel", "single_point", "spread", "on_voxel_faces"],
    )
    def test_same_bits_as_row_unique(self, case):
        rng = np.random.default_rng(7)
        res = 0.025
        pts = {
            "negative": rng.uniform(-3.0, -0.5, (700, 3)),
            "duplicates": np.repeat(rng.uniform(-1.0, 1.0, (40, 3)), 5, axis=0)[
                rng.permutation(200)
            ],
            "single_voxel": 0.05 + rng.uniform(0.0, 0.02, (30, 3)) * [1, -1, 1],
            "single_point": np.array([[-0.3, 0.2, -0.01]]),
            "spread": rng.uniform(-50.0, 50.0, (500, 3)),
            # coordinates on the voxel faces, signed zeros included
            "on_voxel_faces": np.array(
                [[0.0, -0.0, 0.025], [-0.025, 0.05, 0.0], [-0.0, 0.0, -0.0], [0.025, -0.025, 0.075]]
            ),
        }[case]
        out = voxel_downsample(_cloud(pts), res)
        expect = _reference_voxel_downsample(_cloud(pts), res)
        assert out.points.shape == expect.shape
        assert out.points.tobytes() == expect.tobytes()

    def test_matches_reference_on_sensor_clouds(self, rng):
        # world-frame clouds as the pipeline feeds them, at two resolutions
        for res in (0.025, 0.0125):
            for _ in range(5):
                pts = rng.normal([2.0, 1.5, 0.1], [0.6, 0.5, 0.1], (1200, 3))
                out = voxel_downsample(_cloud(pts), res)
                assert out.points.tobytes() == _reference_voxel_downsample(_cloud(pts), res).tobytes()

    def test_too_many_voxels_rejected(self):
        with pytest.raises(ValueError, match="too many voxels"):
            voxel_downsample(_cloud([[-1e6, -1e6, -1e6], [1e6, 1e6, 1e6]]), 1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "pts",
        [
            [[1e150, 0, 0], [-1e150, 0, 0], [2e150, 0, 0]],
            [[1e150, 0, 0]],
            [[0, 0, 0], [0, -1e150, 0]],
        ],
    )
    def test_keys_beyond_int64_rejected_before_the_cast(self, pts):
        # an int64 cast of such a key is undefined: it warns and can group
        # points that lie 3e150 m apart into one centroid
        with pytest.raises(ValueError, match="too many voxels"):
            voxel_downsample(_cloud(pts), 0.025)

    @pytest.mark.filterwarnings("error")
    def test_keys_at_the_int64_edge_kept(self):
        # the largest key below 2**63 still casts exactly
        edge = np.nextafter(2.0**63, 0.0)
        out = voxel_downsample(_cloud([[edge, 0, 0], [edge, 1, 0], [edge, 1.5, 0]]), 1.0)
        np.testing.assert_array_equal(out.points, [[edge, 0, 0], [edge, 1.25, 0]])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_output_never_larger(self, seed):
        pts = np.random.default_rng(seed).uniform(-1, 1, (64, 3))
        out = voxel_downsample(_cloud(pts), 0.25)
        assert 1 <= len(out) <= 64


class TestBodyFilter:
    def test_points_inside_trunk_removed(self):
        state = _standing_state()
        inside = np.array([[0.0, 0.0, 0.30], [0.1, 0.0, 0.32]])
        far = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        out = _body_filter(_cloud(np.vstack([inside, far])), state)
        assert len(out) == 2
        np.testing.assert_array_equal(out.points, far)

    def test_points_near_legs_removed(self):
        state = _standing_state()
        # midpoints of each leg capsule must be masked
        p0, p1, _ = body_capsules(state.pose, state.q)
        mids = (p0[1:] + p1[1:]) / 2
        out = _body_filter(_cloud(mids), state)
        assert len(out) == 0

    def test_matches_capsule_distance_oracle(self, rng):
        state = _standing_state(position=(0.5, 0.2, 0.35))
        pts = rng.uniform(-0.6, 0.6, (400, 3)) + state.position
        out = _body_filter(_cloud(pts), state)
        caps = list(zip(*body_capsules(state.pose, state.q), strict=True))
        assert len(caps) == 9

        def min_dist(p):
            best = np.inf
            for p0, p1, r in caps:
                seg = p1 - p0
                L2 = float(seg @ seg)
                u = 0.0 if L2 == 0 else float(np.clip((p - p0) @ seg / L2, 0, 1))
                best = min(best, float(np.linalg.norm(p - (p0 + u * seg))) - r)
            return best

        keep = np.array([min_dist(p) > BODY_MARGIN for p in pts])
        np.testing.assert_array_equal(out.points, pts[keep])

    def test_ground_points_survive(self, rng):
        state = _standing_state()
        ground = np.column_stack(
            [rng.uniform(-0.5, 0.5, 200), rng.uniform(-0.5, 0.5, 200), np.zeros(200)]
        )
        out = _body_filter(_cloud(ground), state)
        # feet reach the ground; only a few points under the feet may go
        assert len(out) >= 190

    POSES = {
        "standing": ((0.0, 0.0, 0.30), (0.0, 0.0, 0.0)),
        "yawed": ((2.5, 1.2, 0.35), (0.0, 0.0, 2.2)),
        "pitched_rolled": ((-1.0, 0.4, 0.45), (0.2, -0.3, -0.7)),
    }

    @staticmethod
    def _assert_same_bits(caps, ref):
        p0, p1, r = caps
        assert p0.shape == p1.shape == (9, 3) and r.shape == (9,)
        for got, want in zip(zip(p0, p1, r, strict=True), ref, strict=True):
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2] == want[2]

    @pytest.mark.parametrize("pose", sorted(POSES))
    def test_capsules_same_bits_as_pose_transform(self, pose):
        position, (roll, pitch, yaw) = self.POSES[pose]
        state = _standing_state(position, quat_from_euler(roll, pitch, yaw))
        ref = _reference_capsules(state)
        row = Pose(np.tile(state.position, (3, 1)), np.tile(state.quat, (3, 1)))[1]
        for pose in (state.pose, row):
            self._assert_same_bits(body_capsules(pose, state.q), ref)
        # the pipeline poses every cloud tick in one call: an N-stack of
        # poses near this one, each with its own joint angles
        rng = np.random.default_rng(5)
        n = 40
        quat = quat_from_euler(
            roll + rng.normal(0, 0.2, n), pitch + rng.normal(0, 0.2, n), yaw + rng.normal(0, 1, n)
        )
        pos = state.position + rng.normal(0.0, 0.5, (n, 3))
        q = Q_STAND + rng.normal(0.0, 0.4, (n, 12))
        stack = Pose(pos, quat)
        p0, p1, r = body_capsules(stack, q)
        assert p0.shape == p1.shape == (n, 9, 3)
        for k in range(n):
            st_k = _standing_state(pos[k], quat[k])
            st_k.q = q[k]
            self._assert_same_bits((p0[k], p1[k], r), _reference_capsules(st_k))
        # strided rows of the poses and the angles, as the pipeline takes them
        strided = body_capsules(stack[::3], np.repeat(q, 2, axis=1)[::3, ::2])
        assert strided[0].tobytes() == p0[::3].tobytes()
        assert strided[1].tobytes() == p1[::3].tobytes()

    @pytest.mark.parametrize("pose", sorted(POSES))
    def test_same_points_as_unculled_filter(self, pose, rng):
        position, (roll, pitch, yaw) = self.POSES[pose]
        state = _standing_state(position, quat_from_euler(roll, pitch, yaw))
        pts = [rng.uniform(-0.7, 0.7, (600, 3)) + state.position]
        # for each capsule, points at radius + margin times (1 -+ 1e-9)
        # from its axis and beyond its ends (just inside, just outside)
        for p0, p1, r in zip(*body_capsules(state.pose, state.q), strict=True):
            axis = (p1 - p0) / np.linalg.norm(p1 - p0)
            side = np.cross(axis, rng.normal(size=(40, 3)))
            side /= np.linalg.norm(side, axis=1, keepdims=True)
            reach = (r + BODY_MARGIN) * np.array([1 - 1e-9, 1 + 1e-9])
            along = p0 + rng.uniform(0.0, 1.0, (40, 1)) * (p1 - p0)
            pts += [along + side * s for s in reach]
            for end, out in ((p0, -axis), (p1, axis)):
                pts.append(end + out * np.array([reach[0], reach[1], reach[1] + 5e-7])[:, None])
            # past the capsule's farthest endpoint along each world axis; at
            # the body's extremes these straddle the bounding box faces
            for k in range(3):
                unit = np.eye(3)[k]
                for sgn in (-1.0, 1.0):
                    tip = max((p0, p1), key=lambda p: sgn * p[k])
                    d = r + BODY_MARGIN + np.array([-1e-9, 1e-9, 5e-7, 2e-6])
                    pts.append(tip + sgn * unit * d[:, None])
        pts = np.vstack(pts)
        out = _body_filter(_cloud(pts), state)
        expect = _reference_body_filter(pts, state)
        assert 0 < len(expect) < len(pts)
        assert out.points.tobytes() == expect.tobytes()

    def test_one_point_in_box(self):
        # one point inside the bounding box, the others far outside it. The
        # near points sit within a last-bit rounding of a capsule surface,
        # where a one-row distance test can decide otherwise than the
        # whole-cloud test
        state = _standing_state((2.5, 1.2, 0.35), quat_from_euler(0.2, -0.3, 2.2))
        far = np.array([[9.0, 0.0, 0.0], [0.0, -4.0, 1.0]])
        for near in (
            ["0x1.377440cacbbf7p+1", "0x1.174b3a19b465cp+0", "0x1.312828ecbc5d7p-2"],
            ["0x1.407729c43dc22p+1", "0x1.221bb002027eap+0", "0x1.c3e7d10a74375p-2"],
        ):
            near = np.array([float.fromhex(v) for v in near])
            for pts in (np.vstack([far, near]), near[None, :]):
                out = _body_filter(_cloud(pts), state)
                assert out.points.tobytes() == _reference_body_filter(pts, state).tobytes()

    def test_degenerate_capsule_removes_points_within_reach(self, rng):
        # a zero-length axis is a ball: it removes exactly the points within
        # radius + margin of its one end, and no NaN distance drops others
        state = _standing_state((2.5, 1.2, 0.35), quat_from_euler(0.2, -0.3, 2.2))
        p0, p1, r = body_capsules(state.pose, state.q)
        p1 = p1.copy()
        p1[3] = p0[3]
        caps = (p0, p1, r)
        ball = p0[3]
        direction = rng.normal(size=(200, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        reach = r[3] + BODY_MARGIN
        pts = ball + direction * reach * rng.uniform(0.5, 1.5, (200, 1))
        out = body_filter(_cloud(pts), caps)
        keep = np.ones(len(pts), dtype=bool)
        for a, b, rad in zip(p0, p1, r):
            keep &= _point_segment_dist(pts, a, b) > rad + BODY_MARGIN
        assert out.points.tobytes() == pts[keep].tobytes()
        # the ball alone decides for the points that the rest of the body
        # does not reach
        others = np.ones(len(pts), dtype=bool)
        for k in set(range(9)) - {3}:
            others &= _point_segment_dist(pts, p0[k], p1[k]) > r[k] + BODY_MARGIN
        in_ball = np.linalg.norm(pts - ball, axis=1) <= reach
        assert in_ball[others].any() and (~in_ball[others]).any()
        np.testing.assert_array_equal(keep[others], ~in_ball[others])

    def test_point_segment_dist_degenerate_segment(self):
        p0 = np.array([1.0, 0.0, 0.0])
        d = _point_segment_dist(np.array([[2.0, 0.0, 0.0]]), p0, p0)
        assert d[0] == pytest.approx(1.0)


class TestPointCloud:
    def test_select_keeps_time_and_frame(self):
        cloud = _cloud([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]], t=1.25, frame="front")
        sub = cloud.select(np.array([True, False, True]))
        assert (sub.t, sub.frame) == (1.25, "front")
        np.testing.assert_array_equal(sub.points, cloud.points[[0, 2]])
        assert len(cloud.select(np.zeros(3, dtype=bool))) == 0

    def test_non_finite_cloud_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            _cloud([[0.0, 0.0, 0.0], [np.nan, 1.0, 2.0]])
