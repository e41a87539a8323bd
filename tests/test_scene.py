import numpy as np
import pytest

from elevsim.geometry import Pose, quat_from_yaw
from elevsim.scene import (
    GT_PATCH_RESOLUTION,
    FlatRegion,
    Heightfield,
    SceneError,
    SceneSpec,
    Step,
    build_scene,
    ground_truth_patch,
    obstacle_scene,
)
from elevsim.schema import build


def test_flat_scene_profile_is_constant():
    spec = SceneSpec([FlatRegion(z=0.1)], extent=(4.0, 2.0))
    x = np.linspace(0.0, 4.0, 50)
    assert np.allclose(spec.profile_height(x), 0.1)


def test_step_profile_levels():
    spec = SceneSpec(
        [FlatRegion(0.0), Step(x_start=1.0, height=0.2, depth=0.5)], extent=(4.0, 2.0)
    )
    z = spec.profile_height(np.array([0.5, 1.0, 1.25, 1.49, 1.5, 2.0]))
    assert np.allclose(z, [0.0, 0.2, 0.2, 0.2, 0.0, 0.0])


def test_platform_profile_rises_and_ramps_down():
    spec = obstacle_scene()
    # before / first rise / second rise / platform / on the ramp / after
    z = spec.profile_height(np.array([2.9, 3.1, 3.45, 4.0, 4.85, 6.0]))
    assert z[0] == 0.0
    assert z[1] == pytest.approx(0.10)
    assert z[2] == pytest.approx(0.20)
    assert z[3] == pytest.approx(0.30)
    assert 0.0 < z[4] < 0.30
    assert z[5] == 0.0


def test_overlapping_primitives_rejected():
    with pytest.raises(SceneError):
        SceneSpec(
            [
                Step(x_start=1.0, height=0.1, depth=1.0),
                Step(x_start=1.5, height=0.2, depth=1.0),
            ],
            extent=(4.0, 2.0),
        )


def test_nonpositive_extent_rejected():
    with pytest.raises(SceneError):
        SceneSpec([FlatRegion(0.0)], extent=(0.0, 2.0))


def test_build_scene_samples_cell_centers():
    spec = SceneSpec(
        [FlatRegion(0.0), Step(x_start=1.0, height=0.2, depth=0.5)], extent=(2.0, 1.0)
    )
    hf = build_scene(spec)
    assert hf.extent == (114, 57)
    # cell containing x=1.05 sits on the step, cell at x=0.95 does not
    z = hf.heights_at(np.array([[1.05, 0.5], [0.95, 0.5]]))
    assert z[0] == pytest.approx(0.2)
    assert z[1] == pytest.approx(0.0)


def test_heightfield_exact_queries_match_profile():
    spec = obstacle_scene()
    hf = build_scene(spec)
    rng = np.random.default_rng(7)
    xy = np.column_stack([rng.uniform(0, 8, 200), rng.uniform(0, 3, 200)])
    got = hf.heights_at(xy)
    # brute force: the profile evaluated at each query's cell-center x
    ix = np.floor(xy[:, 0] / GT_PATCH_RESOLUTION).astype(int)
    expect = spec.profile_height((ix + 0.5) * GT_PATCH_RESOLUTION)
    assert np.allclose(got, expect, atol=0.0)


def test_heights_at_fill_value():
    hf = build_scene(SceneSpec([FlatRegion(0.0)], extent=(1.0, 1.0)))
    out = hf.heights_at(np.array([[0.5, 0.5], [2.0, 0.5]]), fill=-9.0)
    assert out[0] == 0.0 and out[1] == -9.0


def test_height_at_matches_heights_at():
    # one point on Python floats, against the vectorized lookup; off the
    # grid, NaN or infinite, both give NaN
    hf = Heightfield(np.linspace(0.0, 0.4, 57), 31)
    rng = np.random.default_rng(5)
    sx, sy = hf.size
    xs = list(rng.uniform(-0.2, sx + 0.2, 60)) + [0.0, sx, np.nextafter(sx, 0)]
    ys = list(rng.uniform(-0.2, sy + 0.2, 60)) + [0.0, sy, np.nextafter(0.0, -1.0)]
    xs += [np.nan, np.inf, -np.inf, 1e300]
    ys += [np.nan, np.inf, -np.inf, -1e300]
    pts = [(x, y) for x in xs for y in ys]
    expect = hf.heights_at(np.array(pts))
    got = np.array([hf.height_at(float(x), float(y)) for x, y in pts])
    assert got.tobytes() == expect.tobytes()
    assert np.isfinite(got).sum() > 1000 and np.isnan(got).sum() > 1000


def test_heightfield_is_immutable():
    hf = build_scene(SceneSpec([FlatRegion(0.0)], extent=(1.0, 1.0)))
    with pytest.raises(ValueError):
        hf.profile[0] = 1.0


def test_x_runs_cached_read_only_and_exact():
    spec = SceneSpec(
        [FlatRegion(0.0), Step(x_start=1.0, height=0.2, depth=0.5)], extent=(2.0, 1.0)
    )
    hf = build_scene(spec)
    runs = hf.x_runs
    assert runs is hf.x_runs
    assert not runs.flags.writeable
    # cells [0, 57) at 0, [57, 86) at 0.2 (those centred on the step), [86,
    # 114) at 0, from x = 0
    np.testing.assert_allclose(
        runs, [[0.0, 0.9975, 0.0], [0.9975, 1.505, 0.2], [1.505, 1.995, 0.0]]
    )
    for x0, x1, h in runs:
        ix = np.arange(round(x0 / GT_PATCH_RESOLUTION), round(x1 / GT_PATCH_RESOLUTION))
        assert (hf.profile[ix] == h).all()


def test_heightfield_csv_round_trip(tmp_path):
    hf = build_scene(obstacle_scene())
    path = tmp_path / "scene.csv"
    hf.to_csv(path)
    assert path.read_text().splitlines()[0] == "# resolution=0.0175 origin=0.0,0.0"
    grid = np.loadtxt(path, delimiter=",")
    assert grid.shape == hf.extent == (457, 171)
    np.testing.assert_allclose(grid, np.repeat(hf.profile[:, None], hf.ny, axis=1))


def test_scene_spec_yaml_round_trip(tmp_path):
    spec = obstacle_scene()
    d = {
        "extent": [8.0, 3.0],
        "primitives": [
            {"type": "flat", "z": 0.0},
            {
                "type": "platform",
                "x_start": 3.0,
                "rise_steps": [[0.10, 0.30], [0.10, 0.30]],
                "platform_height": 0.30,
                "platform_length": 1.0,
                "ramp_slope": 0.3,
            },
        ],
    }
    parsed = build(SceneSpec, d, "scene")
    x = np.linspace(0, 8, 400)
    np.testing.assert_allclose(parsed.profile_height(x), spec.profile_height(x))


def test_ground_truth_patch_counts_and_heights(obstacle_hf):
    pose = Pose(np.array([3.2, 1.5, 0.4]), quat_from_yaw(0.0))
    cloud = ground_truth_patch(obstacle_hf, pose)
    # 0.5/0.0175 -> 29 x 18 grid
    assert len(cloud) == 29 * 18
    # every patch z equals the exact heightfield lookup
    expect = obstacle_hf.heights_at(cloud.points[:, :2])
    np.testing.assert_allclose(cloud.points[:, 2], expect)


def test_ground_truth_patch_clips_at_border(obstacle_hf):
    pose = Pose(np.array([0.1, 1.5, 0.4]), quat_from_yaw(0.0))
    cloud = ground_truth_patch(obstacle_hf, pose)
    # the grid points off the heightfield's x >= 0 edge are dropped
    assert 0 < len(cloud) < 29 * 18
    assert (cloud.points[:, 0] >= 0).all()


def test_ground_truth_patch_rotates_with_yaw(obstacle_hf):
    pose = Pose(np.array([3.2, 1.5, 0.4]), quat_from_yaw(np.pi / 2))
    cloud = ground_truth_patch(obstacle_hf, pose)
    rel = cloud.points[:, :2] - pose.position[:2]
    # long axis now along y: x spread < y spread
    assert np.ptp(rel[:, 0]) < np.ptp(rel[:, 1])
