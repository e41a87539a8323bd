"""Stacked poses act row by row with the bits of one pose at a time."""

import numpy as np
import pytest

from elevsim.geometry import Pose, _local_grid, quat_from_euler, rotz, yaw_aligned_grid


def _poses(n=200, seed=3):
    rng = np.random.default_rng(seed)
    quat = quat_from_euler(rng.uniform(-0.4, 0.4, n), rng.uniform(-0.4, 0.4, n), rng.uniform(-4, 4, n))
    # unnormalized, as the stack normalizes them once
    return rng.uniform(-3.0, 3.0, (n, 3)), quat * rng.uniform(0.5, 2.0, (n, 1))


def test_one_pose_yaw_is_a_float():
    pose = Pose(np.array([1.0, 2.0, 0.3]), quat_from_euler(0.1, 0.2, 0.7))
    assert type(pose.yaw) is float
    assert pose.yaw == pytest.approx(0.7)
    assert pose.yaw_rotation.tobytes() == rotz(pose.yaw).tobytes()


def test_stack_yaw_is_an_array():
    pos, quat = _poses(5)
    stack = Pose(pos, quat)
    assert stack.yaw.shape == (5,)
    assert stack.yaw_rotation.shape == (5, 3, 3)


@pytest.mark.parametrize("step", [1, 6])
def test_row_yaw_same_bits_as_one_pose(step):
    pos, quat = _poses()
    stack = Pose(pos[::step], quat[::step])
    for k, i in enumerate(range(0, len(pos), step)):
        ref = Pose(pos[i], quat[i])
        row = stack[k]
        assert isinstance(row.yaw, float)
        assert np.float64(row.yaw).tobytes() == np.float64(ref.yaw).tobytes()
        assert row.yaw_rotation.tobytes() == rotz(ref.yaw).tobytes()


def _uncached_grid(pose, nx, ny, pitch):
    xs = (np.arange(nx) - (nx - 1) / 2) * pitch
    ys = (np.arange(ny) - (ny - 1) / 2) * pitch
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    local = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return local @ rotz(pose.yaw)[:2, :2].T + pose.position[:2]


@pytest.mark.parametrize("shape", [(11, 7, 0.05), (69, 69, 0.0175), (1, 1, 0.1), (4, 3, 0.025)])
def test_cached_grid_same_bits_and_read_only(shape):
    pos, quat = _poses(30)
    stack = Pose(pos, quat)
    for k in range(len(pos)):
        for pose in (Pose(pos[k], quat[k]), stack[k]):
            got = yaw_aligned_grid(pose, *shape)
            assert got.tobytes() == _uncached_grid(pose, *shape).tobytes()
    local = _local_grid(*shape)
    assert local is _local_grid(*shape)
    assert not local.flags.writeable
    with pytest.raises(ValueError):
        local[0, 0] = 1.0
    # the caller's result is its own
    assert yaw_aligned_grid(stack[0], *shape).flags.writeable
