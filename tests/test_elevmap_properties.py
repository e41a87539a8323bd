"""Property tests for the elevation map's invariants (after Fankhauser et al.,
"Probabilistic Terrain Mapping for Mobile Robots with Uncertain
Localization", RA-L 2018): fusion never raises a cell's variance above its
staleness-inflated prior, staleness raises that prior, drift compensation
moves only valid cells, and recentering keeps the overlap bit-exact."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elevsim.elevmap import ElevationMap, SensorVarianceModel
from elevsim.pointcloud import PointCloud
from maplayers import LAYERS, seed_layers

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# 1/(1/p + a) may round one ulp above p when a is negligible next to 1/p
ROUNDING = 1.0 + 4 * np.finfo(float).eps


def _random_map(seed: int, resolution: float, t_max: float = 1.0) -> ElevationMap:
    """A 1 m map with random layers, about 60% of the cells valid, each last
    updated at or before `t_max`."""
    rng = np.random.default_rng(seed)
    emap = ElevationMap(resolution=resolution, size=1.0, center=(0.2, -0.1))
    n = emap.n
    seed_layers(
        emap,
        height=rng.normal(0.1, 0.05, (n, n)),
        variance=rng.uniform(1e-6, 1e-3, (n, n)),
        valid=rng.random((n, n)) < 0.6,
        last_update=rng.uniform(0.0, t_max, (n, n)),
    )
    emap.last_time = t_max
    return emap


def _random_cloud(seed: int, emap: ElevationMap, m: int, z_sigma: float = 0.02) -> PointCloud:
    """`m` points over the map and a margin outside it, near the map heights."""
    rng = np.random.default_rng(seed + 1)
    half = 0.5 * emap.n * emap.resolution
    xy = emap.center + rng.uniform(-1.2 * half, 1.2 * half, (m, 2))
    z = rng.normal(0.1, z_sigma, m)
    return PointCloud(t=0.0, frame="world", points=np.column_stack([xy, z]))


def _snapshot(emap: ElevationMap) -> dict:
    return {k: getattr(emap, k).copy() for k in LAYERS}


def _touched(emap: ElevationMap, cloud: PointCloud) -> np.ndarray:
    idx, ok = emap.cell_indices(cloud.points[:, :2])
    mask = np.zeros((emap.n, emap.n), dtype=bool)
    mask[idx[ok, 0], idx[ok, 1]] = True
    return mask


models = st.builds(
    SensorVarianceModel,
    base_variance=st.floats(1e-6, 1e-2),
    range_coeff=st.floats(0.0, 1e-2),
    time_variance_rate=st.floats(0.0, 1e-3),
)
seeds = st.integers(0, 2**32 - 1)
resolutions = st.sampled_from([0.05, 0.1, 0.0625])


@PROPERTY
@given(seed=seeds, resolution=resolutions, model=models, m=st.integers(1, 300),
       dt=st.floats(0.0, 50.0))
def test_fusion_never_raises_variance_above_inflated_prior(seed, resolution, model, m, dt):
    emap = _random_map(seed, resolution)
    cloud = _random_cloud(seed, emap, m)
    before = _snapshot(emap)
    t = emap.last_time + dt
    origin = np.array([*emap.center, 0.5])
    emap.integrate_cloud(cloud, origin, model, t)

    touched = _touched(emap, cloud)
    prior = before["variance"] + model.time_variance_rate * (t - before["last_update"])
    was_valid = touched & before["valid"]
    assert (emap.variance[was_valid] <= prior[was_valid] * ROUNDING).all()
    # nor above the variance of any one measurement it fused
    idx, ok = emap.cell_indices(cloud.points[:, :2])
    r_var = model.measurement_variance(np.linalg.norm(cloud.points[ok] - origin, axis=1))
    assert (emap.variance[idx[ok, 0], idx[ok, 1]] <= r_var * ROUNDING).all()
    assert emap.valid[touched].all() and (emap.last_update[touched] == t).all()
    for k in LAYERS:
        np.testing.assert_array_equal(getattr(emap, k)[~touched], before[k][~touched])


@PROPERTY
@given(seed=seeds, resolution=resolutions, model=models, m=st.integers(1, 300),
       t1=st.floats(1.0, 20.0), later=st.floats(0.0, 50.0))
def test_staleness_raises_the_prior(seed, resolution, model, m, t1, later):
    # the same frame fused later sees a larger prior variance: the result
    # is no more certain, and the measurement moves the height no less
    cloud = _random_cloud(seed, _random_map(seed, resolution), m)
    early, late = _random_map(seed, resolution), _random_map(seed, resolution)
    h0 = early.height.copy()
    origin = np.array([*early.center, 0.5])
    early.integrate_cloud(cloud, origin, model, t1)
    late.integrate_cloud(cloud, origin, model, t1 + later)

    touched = _touched(early, cloud)
    assert (late.variance[touched] >= early.variance[touched]).all()
    assert (np.abs(late.height - h0)[touched] >= np.abs(early.height - h0)[touched]).all()
    # strictly, wherever the extra staleness is not lost to rounding
    before = _random_map(seed, resolution)
    prior = before.variance + model.time_variance_rate * (t1 - before.last_update)
    stale = touched & before.valid & (model.time_variance_rate * later > 1e-6 * prior)
    assert (late.variance[stale] > early.variance[stale]).all()


@PROPERTY
@given(seed=seeds, resolution=resolutions, m=st.integers(0, 400),
       offset=st.floats(-0.04, 0.04))
def test_drift_compensate_moves_only_valid_cells(seed, resolution, m, offset):
    emap = _random_map(seed, resolution)
    cloud = _random_cloud(seed, emap, m, z_sigma=0.005)
    # measure the map's own heights, offset by a common drift
    h, mask = emap.query_heights(cloud.points[:, :2])
    cloud.points[mask, 2] = h[mask] + offset + cloud.points[mask, 2] - 0.1
    before = _snapshot(emap)
    shift = emap.drift_compensate(cloud)

    valid = before["valid"]
    assert emap.total_shift == shift
    np.testing.assert_array_equal(emap.height[~valid], before["height"][~valid])
    np.testing.assert_array_equal(emap.height[valid], before["height"][valid] + shift)
    for k in ("variance", "valid", "last_update"):
        np.testing.assert_array_equal(getattr(emap, k), before[k])


@PROPERTY
@given(seed=seeds, resolution=resolutions,
       k=st.tuples(st.integers(-45, 45), st.integers(-45, 45)),
       frac=st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)))
def test_recenter_keeps_overlap_bit_exact(seed, resolution, k, frac):
    # shifts in both directions, and beyond n (at most 20 cells here)
    emap = _random_map(seed, resolution)
    n, center = emap.n, emap.center.copy()
    before = _snapshot(emap)
    emap.recenter(center + (np.array(k) + np.array(frac)) * resolution)

    assert (emap.center == center + np.array(k) * resolution).all()
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    si, sj = i + k[0], j + k[1]
    kept = (si >= 0) & (si < n) & (sj >= 0) & (sj < n)
    for key in LAYERS:
        layer, old = getattr(emap, key), before[key]
        assert layer[kept].tobytes() == old[si[kept], sj[kept]].tobytes()
        assert not layer[~kept].any()
