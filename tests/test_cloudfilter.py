import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elevsim.cloudfilter import (
    BodyModel,
    _point_segment_dist,
    body_filter,
    remove_outliers,
    voxel_downsample,
)
from elevsim.geometry import Pose, quat_from_euler
from elevsim.pointcloud import PointCloud
from elevsim.sensorsim import HIP_OFFSETS, Q_STAND, RobotState


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


def _reference_capsules(body, state):
    """Capsules with every endpoint through `Pose.transform`."""
    pose = state.pose
    caps = [
        (
            pose.transform(np.array([body.trunk_half_length, 0.0, 0.0])),
            pose.transform(np.array([-body.trunk_half_length, 0.0, 0.0])),
            body.trunk_radius,
        )
    ]
    for f in range(4):
        roll, thigh, calf = state.q[3 * f : 3 * f + 3]
        rx = np.array([[1, 0, 0], [0, np.cos(roll), -np.sin(roll)], [0, np.sin(roll), np.cos(roll)]])

        def leg_dir(pitch):
            return rx @ np.array([np.sin(pitch), 0.0, -np.cos(pitch)])

        hip = HIP_OFFSETS[f]
        knee = hip + body.thigh_length * leg_dir(thigh)
        foot = knee + body.calf_length * leg_dir(thigh + calf)
        caps.append((pose.transform(hip), pose.transform(knee), body.leg_radius))
        caps.append((pose.transform(knee), pose.transform(foot), body.leg_radius))
    return caps


def _reference_body_filter(points, state, body):
    """Distance test of every point against every capsule, no cull."""
    keep = np.ones(len(points), dtype=bool)
    for p0, p1, r in _reference_capsules(body, state):
        keep &= _point_segment_dist(points, p0, p1) > r + body.margin
    return points[keep]


def _body_filter(cloud, state, body):
    return body_filter(cloud, body.capsules(state.pose, state.q), body.margin)


def _cloud(points, t=0.0, frame="world"):
    return PointCloud(t=t, frame=frame, points=np.asarray(points, dtype=float))


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
        k, std_ratio = 8, 2.0
        # O(n^2) oracle
        d2 = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(d2, np.inf)
        knn_mean = np.sort(d2, axis=1)[:, :k].mean(axis=1)
        keep = knn_mean <= knn_mean.mean() + std_ratio * knn_mean.std()
        out = remove_outliers(cloud, k=k, std_ratio=std_ratio)
        np.testing.assert_array_equal(out.points, pts[keep])

    def test_small_cloud_unchanged(self):
        cloud = _cloud([[0, 0, 0], [1, 0, 0]])
        out = remove_outliers(cloud, k=8)
        assert out is cloud

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            remove_outliers(_cloud([[0, 0, 0]]), k=0)


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
        out = _body_filter(_cloud(np.vstack([inside, far])), state, BodyModel())
        assert len(out) == 2
        np.testing.assert_array_equal(out.points, far)

    def test_points_near_legs_removed(self):
        state = _standing_state()
        body = BodyModel()
        # midpoints of each leg capsule must be masked
        leg_caps = body.capsules(state.pose, state.q)[1:]
        mids = np.array([(p0 + p1) / 2 for p0, p1, _ in leg_caps])
        out = _body_filter(_cloud(mids), state, body)
        assert len(out) == 0

    def test_matches_capsule_distance_oracle(self, rng):
        state = _standing_state(position=(0.5, 0.2, 0.35))
        body = BodyModel()
        pts = rng.uniform(-0.6, 0.6, (400, 3)) + state.position
        out = _body_filter(_cloud(pts), state, body)
        caps = body.capsules(state.pose, state.q)

        def min_dist(p):
            best = np.inf
            for p0, p1, r in caps:
                seg = p1 - p0
                L2 = float(seg @ seg)
                u = 0.0 if L2 == 0 else float(np.clip((p - p0) @ seg / L2, 0, 1))
                best = min(best, float(np.linalg.norm(p - (p0 + u * seg))) - r)
            return best

        keep = np.array([min_dist(p) > body.margin for p in pts])
        np.testing.assert_array_equal(out.points, pts[keep])

    def test_ground_points_survive(self, rng):
        state = _standing_state()
        ground = np.column_stack(
            [rng.uniform(-0.5, 0.5, 200), rng.uniform(-0.5, 0.5, 200), np.zeros(200)]
        )
        out = _body_filter(_cloud(ground), state, BodyModel())
        # feet reach the ground; only a few points under the feet may go
        assert len(out) >= 190

    POSES = {
        "standing": ((0.0, 0.0, 0.30), (0.0, 0.0, 0.0)),
        "yawed": ((2.5, 1.2, 0.35), (0.0, 0.0, 2.2)),
        "pitched_rolled": ((-1.0, 0.4, 0.45), (0.2, -0.3, -0.7)),
    }

    @pytest.mark.parametrize("pose", sorted(POSES))
    def test_capsules_same_bits_as_pose_transform(self, pose):
        position, (roll, pitch, yaw) = self.POSES[pose]
        state = _standing_state(position, quat_from_euler(roll, pitch, yaw))
        body = BodyModel()
        ref = _reference_capsules(body, state)
        # the pipeline poses the capsules from a row of a stack of base poses
        row = Pose(np.tile(state.position, (3, 1)), np.tile(state.quat, (3, 1)))[1]
        for pose in (state.pose, row):
            for got, want in zip(body.capsules(pose, state.q), ref, strict=True):
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()
                assert got[2] == want[2]

    @pytest.mark.parametrize("pose", sorted(POSES))
    def test_same_points_as_unculled_filter(self, pose, rng):
        position, (roll, pitch, yaw) = self.POSES[pose]
        state = _standing_state(position, quat_from_euler(roll, pitch, yaw))
        body = BodyModel()
        pts = [rng.uniform(-0.7, 0.7, (600, 3)) + state.position]
        # for each capsule, points at radius + margin times (1 -+ 1e-9)
        # from its axis and beyond its ends (just inside, just outside)
        for p0, p1, r in body.capsules(state.pose, state.q):
            axis = (p1 - p0) / np.linalg.norm(p1 - p0)
            side = np.cross(axis, rng.normal(size=(40, 3)))
            side /= np.linalg.norm(side, axis=1, keepdims=True)
            reach = (r + body.margin) * np.array([1 - 1e-9, 1 + 1e-9])
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
                    d = r + body.margin + np.array([-1e-9, 1e-9, 5e-7, 2e-6])
                    pts.append(tip + sgn * unit * d[:, None])
        pts = np.vstack(pts)
        out = _body_filter(_cloud(pts), state, body)
        expect = _reference_body_filter(pts, state, body)
        assert 0 < len(expect) < len(pts)
        assert out.points.tobytes() == expect.tobytes()

    def test_one_point_in_box(self):
        # one point inside the bounding box, the others far outside it. The
        # near points sit within a last-bit rounding of a capsule surface,
        # where a one-row distance test can decide otherwise than the
        # whole-cloud test
        state = _standing_state((2.5, 1.2, 0.35), quat_from_euler(0.2, -0.3, 2.2))
        body = BodyModel()
        far = np.array([[9.0, 0.0, 0.0], [0.0, -4.0, 1.0]])
        for near in (
            ["0x1.377440cacbbf7p+1", "0x1.174b3a19b465cp+0", "0x1.312828ecbc5d7p-2"],
            ["0x1.407729c43dc22p+1", "0x1.221bb002027eap+0", "0x1.c3e7d10a74375p-2"],
        ):
            near = np.array([float.fromhex(v) for v in near])
            for pts in (np.vstack([far, near]), near[None, :]):
                out = _body_filter(_cloud(pts), state, body)
                assert out.points.tobytes() == _reference_body_filter(pts, state, body).tobytes()

    def test_point_segment_dist_degenerate_segment(self):
        p0 = np.array([1.0, 0.0, 0.0])
        d = _point_segment_dist(np.array([[2.0, 0.0, 0.0]]), p0, p0)
        assert d[0] == pytest.approx(1.0)
