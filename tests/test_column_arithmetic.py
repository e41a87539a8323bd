"""The per-frame path does its short-axis reductions as arithmetic on
columns or rows: range norms as `sqrt((x*x + y*y) + z*z)`, bounds tests as
column ANDs, voxel key bounds from contiguous rows, the outlier filter's
neighbour mean as a sum of columns, and the chamfer window from repeated
cell centres. It selects the rows of a cloud with `compress`
in place of a boolean index. Each must give the bits of the numpy form it
replaced; those forms are kept here as the oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from elevsim.cloudfilter import (
    BODY_MARGIN,
    OUTLIER_K,
    _neighbor_mean,
    body_capsules,
    body_filter,
    voxel_downsample,
)
from elevsim.elevmap import ElevationMap, SensorVarianceModel
from elevsim.geometry import Pose, quat_from_euler, quat_from_yaw
from elevsim.pointcloud import PointCloud
from elevsim.scene import GT_PATCH_RESOLUTION, Heightfield
from elevsim.sensorsim import Q_STAND, SensorNoise, inject_sensor_noise
from maplayers import cloud as _cloud
from maplayers import same_bytes, seed_layers

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# zeros of both signs, and values whose squares come near the top of the
# float range
SPECIAL = [0.0, -0.0, 1e150, -1e150]
coords = st.one_of(st.sampled_from(SPECIAL), st.floats(-10.0, 10.0))
seeds = st.integers(0, 2**32 - 1)


@st.composite
def clouds(draw, max_size=40, specials=SPECIAL):
    """(N, 3) arrays of normal coordinates with some entries and some whole
    rows replaced by `specials`; one-point and empty ones included."""
    m = draw(st.integers(0, max_size))
    rng = np.random.default_rng(draw(seeds))
    p = rng.normal(0.0, 2.0, (m, 3))
    entries = rng.random((m, 3)) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    p[entries] = rng.choice(specials, entries.sum())
    rows = rng.random(m) < 0.1
    p[rows] = rng.choice(specials[:2], (rows.sum(), 3))
    return p


@PROPERTY
@given(p=clouds(), lead=st.integers(1, 3))
def test_column_norm_is_linalg_norm(p, lead):
    # numpy's norm is sqrt(add.reduce(x * x)), and a reduce over three
    # elements adds them left to right; (N, 3) rows and (9, M, 3) stacks
    stack = np.broadcast_to(p, (lead,) + p.shape) * np.arange(1, lead + 1)[:, None, None]
    x, y, z = np.moveaxis(stack, -1, 0)
    assert same_bytes(np.sqrt((x * x + y * y) + z * z), np.linalg.norm(stack, axis=-1))


def _numpy_inject_sensor_noise(cloud, noise, rng):
    ranges = np.linalg.norm(cloud.points, axis=1)
    if not ranges.all():
        raise ValueError("a point at the sensor origin has no ray")
    rays = cloud.points / ranges[:, None]
    sigma = noise.sigma0 + noise.k * ranges**2
    noisy_r = ranges + rng.normal(0.0, 1.0, len(cloud)) * sigma
    pts = rays * noisy_r[:, None]
    keep = rng.random(len(cloud)) >= noise.dropout
    return PointCloud(t=cloud.t, frame=cloud.frame, points=pts[keep])


def _outcome(fn, *args):
    """The points `fn` returns, or the type of the error it raises."""
    try:
        return fn(*args).points.tobytes()
    except ValueError as e:
        return type(e)


# RuntimeWarning only: Hypothesis's failure report imports a module that
# raises a DeprecationWarning, which "error" would turn into an internal error
@pytest.mark.filterwarnings("error::RuntimeWarning")
@PROPERTY
@given(p=clouds(), seed=seeds)
def test_noise_ranges_match_linalg_norm(p, seed):
    # a zero row has no ray: both forms reject it before they divide,
    # whether or not the dropout would take it
    noise = SensorNoise(sigma0=0.003, k=0.005, dropout=0.2)
    cloud = PointCloud(t=0.5, frame="front", points=p)
    got = _outcome(inject_sensor_noise, cloud, noise, np.random.default_rng(seed))
    expect = _outcome(_numpy_inject_sensor_noise, cloud, noise, np.random.default_rng(seed))
    assert got == expect


class RecordingModel(SensorVarianceModel):
    """A variance model that keeps the ranges it is given."""

    def measurement_variance(self, ranges):
        self.ranges = ranges
        return super().measurement_variance(ranges)


@PROPERTY
@given(
    xy=arrays(float, st.tuples(st.integers(1, 40), st.just(2)),
              elements=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.6, 0.6))),
    z=coords,
    origin=arrays(float, 3, elements=coords),
    at_point=st.booleans(),
)
def test_integrate_ranges_match_linalg_norm(xy, z, origin, at_point):
    emap = ElevationMap(resolution=0.1, size=1.0)
    pts = np.column_stack([xy, np.full(len(xy), z)])
    _, ok = emap.cell_indices(xy)
    if at_point and ok.any():
        origin = pts[np.argmax(ok)]  # a zero range
    model = RecordingModel(range_coeff=1e-4)
    emap.integrate_cloud(_cloud(pts), origin, model, 0.0)
    if ok.any():
        assert same_bytes(model.ranges, np.linalg.norm(pts[ok] - origin, axis=1))


def _numpy_body_filter(cloud, caps):
    """The body filter with its row-wise box test and `norm` distances."""
    if len(cloud) == 0:
        return cloud
    p0, p1, r = caps
    grow = BODY_MARGIN + 1e-6
    box_lo = (np.minimum(p0, p1) - r[:, None]).min(axis=0) - grow
    box_hi = (np.maximum(p0, p1) + r[:, None]).max(axis=0) + grow
    pts = cloud.points
    near = ((pts >= box_lo) & (pts <= box_hi)).all(axis=1)
    if near.sum() == 1 and len(pts) > 1:
        near[np.argmin(near)] = True
    sub = pts[near]
    seg = p1 - p0
    L2 = np.vecdot(seg, seg)
    u = (sub - p0[:, None]) @ seg[:, :, None]
    u = np.clip(u[..., 0] / np.where(L2 > 0, L2, 1.0)[:, None], 0.0, 1.0)
    closest = p0[:, None] + u[..., None] * seg[:, None]
    dist = np.linalg.norm(sub - closest, axis=-1)
    keep = np.ones(len(cloud), dtype=bool)
    keep[near] = (dist > (r + BODY_MARGIN)[:, None]).all(axis=0)
    return cloud.select(keep)


@PROPERTY
@given(
    seed=seeds,
    m=st.integers(0, 40),
    far=clouds(max_size=3),
    on_axis=st.integers(0, 3),
    yaw=st.floats(-np.pi, np.pi),
)
def test_body_filter_matches_row_wise_form(seed, m, far, on_axis, yaw):
    rng = np.random.default_rng(seed)
    pose = Pose(np.array([0.4, -0.2, 0.3]), quat_from_euler(0.05, -0.1, yaw))
    caps = body_capsules(pose, Q_STAND + rng.normal(0.0, 0.2, 12))
    p0, p1, r = caps
    # points in and around the body's box, capsule ends (zero distance),
    # points far away, and points on the cap of a capsule grown by the
    # margin, whose keep test turns on the distance's last bits
    lo, hi = np.minimum(p0, p1).min(axis=0) - 0.15, np.maximum(p0, p1).max(axis=0) + 0.15
    ends = np.vstack([p0, p1])[rng.integers(0, 18, on_axis)]
    c = rng.integers(0, 9, m)
    d = rng.normal(0.0, 1.0, (m, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    d *= -np.sign(np.vecdot(d, p1[c] - p0[c]))[:, None]  # away from the axis
    cap = p0[c] + d * (r[c] + BODY_MARGIN)[:, None]
    pts = np.vstack([rng.uniform(lo, hi, (m, 3)), ends, cap, far])
    cloud = _cloud(rng.permutation(pts))
    got, expect = body_filter(cloud, caps), _numpy_body_filter(cloud, caps)
    assert same_bytes(got.points, expect.points)


def _numpy_heights_at(hf, xy, fill=np.nan):
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    cell = np.floor(xy / GT_PATCH_RESOLUTION)
    ok = ((cell >= 0) & (cell < hf.extent)).all(axis=1)
    out = np.full(len(xy), fill, dtype=float)
    out[ok] = hf.profile[cell[ok, 0].astype(int)]
    return out


@PROPERTY
@given(
    xy=arrays(float, st.tuples(st.integers(0, 30), st.just(2)),
              elements=st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, np.nan, np.inf, -np.inf]),
                                 st.floats(-0.5, 2.5))),
    fill=st.sampled_from([np.nan, 0.0, -np.inf]),
)
def test_heights_at_matches_row_wise_form(xy, fill):
    # a 1.995 m x 0.9975 m grid of the scene's cells, so that both axes'
    # bounds are hit
    hf = Heightfield(np.arange(114) * 0.01 - 0.05, 57)
    assert same_bytes(hf.heights_at(xy, fill), _numpy_heights_at(hf, xy, fill))


def _numpy_voxel_downsample(cloud, resolution):
    """The voxel filter with its column-wise key bounds."""
    if len(cloud) == 0:
        return cloud
    keys = np.floor(cloud.points / resolution).astype(np.int64)
    low, high = keys.min(axis=0), keys.max(axis=0)
    span = [int(b) - int(a) + 1 for a, b in zip(low, high)]
    keys -= low
    packed = (keys[:, 0] * span[1] + keys[:, 1]) * span[2] + keys[:, 2]
    _, first, inv = np.unique(packed, return_index=True, return_inverse=True)
    sums = np.stack([np.bincount(inv, weights=cloud.points[:, k]) for k in range(3)], axis=1)
    centroids = sums / np.bincount(inv)[:, None]
    return PointCloud(t=cloud.t, frame=cloud.frame, points=centroids[np.argsort(first)])


@PROPERTY
@given(
    # voxel faces, not the huge specials: those overflow the int64 key
    p=clouds(max_size=80, specials=[0.0, -0.0, 0.025, -0.05]),
    resolution=st.sampled_from([0.025, 0.0125, 0.1, 0.3]),
    scale=st.sampled_from([1.0, 0.01]),
    repeat=st.integers(1, 3),
)
def test_voxel_downsample_matches_column_form(p, resolution, scale, repeat):
    # a small scale packs the cloud into a few voxels a side, and repeated
    # rows put several points into one voxel
    cloud = _cloud(np.tile(p * scale, (repeat, 1)), t=0.25)
    got, expect = voxel_downsample(cloud, resolution), _numpy_voxel_downsample(cloud, resolution)
    assert same_bytes(got.points, expect.points)


class MeshgridMap(ElevationMap):
    """`region_points` with the window built by `meshgrid`, `ravel` and
    `stack`."""

    def region_points(self, base_pose, region):
        reach = 0.5 * np.hypot(*region)
        lo = np.floor((base_pose.position[:2] - reach - self.origin) / self.resolution)
        hi = np.ceil((base_pose.position[:2] + reach - self.origin) / self.resolution)
        (i0, j0), (i1, j1) = np.fmin(np.fmax([lo, hi], 0), self.n).astype(int)
        cx, cy = self.cell_centers()
        gx, gy = np.meshgrid(cx[i0:i1], cy[j0:j1], indexing="ij")
        rel = np.stack(
            [gx.ravel() - base_pose.position[0], gy.ravel() - base_pose.position[1]], axis=1
        )
        R = base_pose.yaw_rotation[:2, :2]
        local = rel @ R
        inside = (np.abs(local[:, 0]) <= region[0] / 2) & (np.abs(local[:, 1]) <= region[1] / 2)
        inside &= self.valid[i0:i1, j0:j1].ravel()
        return np.column_stack(
            [gx.ravel()[inside], gy.ravel()[inside], self.height[i0:i1, j0:j1].ravel()[inside]]
        )


@PROPERTY
@given(
    seed=seeds,
    resolution=st.sampled_from([0.025, 0.0125, 0.0225, 0.1]),
    valid_frac=st.sampled_from([0.0, 0.05, 0.7, 1.0]),
    # in map half-widths from the centre: beyond 1 the edge clips the window
    offset=arrays(float, 2, elements=st.floats(-1.6, 1.6)),
    yaw=st.floats(-np.pi, np.pi),
    region=st.sampled_from([(0.5, 0.3), (0.25, 1.1), (0.01, 0.01)]),
)
def test_region_points_match_meshgrid_window(seed, resolution, valid_frac, offset, yaw, region):
    rng = np.random.default_rng(seed)
    new = ElevationMap(resolution, 1.5, center=(0.3, -0.2))
    ref = MeshgridMap(resolution, 1.5, center=(0.3, -0.2))
    n = new.n
    height, valid = rng.normal(0.1, 0.05, (n, n)), rng.random((n, n)) < valid_frac
    for emap in (new, ref):
        seed_layers(emap, height=height, valid=valid)
    pose = Pose(np.array([*(new.center + offset * 0.75), 0.3]), quat_from_yaw(yaw))
    assert same_bytes(new.region_points(pose, region), ref.region_points(pose, region))


def _neighbor_rows(rng, m, scale, spread, tie_frac, zero_frac):
    """(m, OUTLIER_K + 1) rows as `cKDTree.query` returns them: sorted,
    non-negative, the first 0 (the point itself). Some rows hold ties
    (values on a coarse grid), some entries zeros (duplicate points)."""
    d = rng.lognormal(scale, spread, (m, OUTLIER_K + 1))
    ties = rng.random(m) < tie_frac
    d[ties] = np.round(d[ties], 1)
    d[rng.random(d.shape) < zero_frac] = 0.0
    d[:, 0] = 0.0
    d.sort(axis=1)
    return d


@PROPERTY
@given(
    seed=seeds,
    m=st.integers(1, 300),
    scale=st.floats(-8.0, 2.0),
    spread=st.sampled_from([0.1, 1.0, 4.0]),
    tie_frac=st.sampled_from([0.0, 0.3, 1.0]),
    zero_frac=st.sampled_from([0.0, 0.1, 0.5]),
)
def test_neighbor_mean_is_numpy_mean(seed, m, scale, spread, tie_frac, zero_frac):
    assert OUTLIER_K == 8, (
        "_neighbor_mean adds 8 columns in the order of numpy's 8-wide pairwise "
        "block; another k needs the order numpy uses for it"
    )
    d = _neighbor_rows(np.random.default_rng(seed), m, scale, spread, tie_frac, zero_frac)
    assert same_bytes(_neighbor_mean(d), d[:, 1:].mean(axis=1))


def test_neighbor_rows_tell_summation_orders_apart():
    # rows like the drawn ones show a changed order in the bits: a
    # left-to-right sum of the same columns differs from numpy's mean
    d = _neighbor_rows(np.random.default_rng(0), 300, -3.0, 1.0, 0.3, 0.1)
    left_to_right = d[:, 1].copy()
    for c in d[:, 2:].T:
        left_to_right += c
    differ = (left_to_right / 8) != d[:, 1:].mean(axis=1)
    assert 0 < differ.sum() < len(d)


@PROPERTY
@given(p=clouds(), yaw=st.floats(-np.pi, np.pi))
def test_transformed_is_the_checked_world_cloud(p, yaw):
    pose = Pose(np.array([1.0, -2.0, 0.5]), quat_from_yaw(yaw))
    cloud = PointCloud(t=0.75, frame="front", points=p)
    out = cloud.transformed(pose)
    assert (out.t, out.frame) == (0.75, "world")
    assert same_bytes(out.points, pose.transform(p).reshape(-1, 3))


@PROPERTY
@given(p=clouds(), seed=seeds)
def test_select_is_the_boolean_index(p, seed):
    mask = np.random.default_rng(seed).random(len(p)) < 0.7
    cloud = PointCloud(t=0.5, frame="world", points=p)
    assert same_bytes(cloud.select(mask).points, p[mask])


def test_transformed_keeps_the_finite_check():
    cloud = _cloud([[1.0, 0.0, 0.0]])
    pose = Pose(np.array([np.inf, 0.0, 0.0]), quat_from_yaw(0.0))
    with pytest.raises(ValueError, match="non-finite"):
        cloud.transformed(pose)
