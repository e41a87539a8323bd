import numpy as np
import pytest

from elevsim.elevmap import ElevationMap, SensorVarianceModel
from elevsim.geometry import Pose, quat_from_yaw
from elevsim.obsbuilder import (
    BIAS_RESAMPLE_PERIOD,
    DEFAULT_RELATIVE_HEIGHT,
    FRAME_DIM,
    HEIGHT_GRID,
    HEIGHT_PITCH,
    HISTORY_STEPS,
    N_HEIGHT_SAMPLES,
    HeightNoiseState,
    HistoryBuffer,
    ObservationFrame,
    apply_height_noise,
    sample_grid_positions,
    sample_heights,
)
from elevsim.pointcloud import PointCloud


def _frame(val=0.0):
    return ObservationFrame(
        command=np.full(3, val),
        q=np.zeros(12),
        dq=np.zeros(12),
        gravity=np.array([0.0, 0.0, -1.0]),
        heights=np.full(N_HEIGHT_SAMPLES, val),
    )


def _flat_map(z=0.0, extent=1.5):
    emap = ElevationMap(resolution=0.025, size=4.0)
    n = int(extent / 0.025)
    xs = (np.arange(n) - n / 2) * 0.025
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)])
    emap.integrate_cloud(
        PointCloud(t=0.0, frame="world", points=pts),
        np.zeros(3),
        SensorVarianceModel(),
        t=0.0,
    )
    return emap


class TestGrid:
    def test_constants(self):
        assert HEIGHT_GRID == (11, 7)
        assert N_HEIGHT_SAMPLES == 77
        assert FRAME_DIM == 107
        assert HISTORY_STEPS == 10

    def test_grid_spans_region(self):
        pose = Pose(np.array([0.0, 0.0, 0.3]), quat_from_yaw(0.0))
        xy = sample_grid_positions(pose)
        assert xy.shape == (77, 2)
        assert np.abs(xy[:, 0]).max() == pytest.approx(5 * HEIGHT_PITCH)
        assert np.abs(xy[:, 1]).max() == pytest.approx(3 * HEIGHT_PITCH)

    def test_grid_rotates_with_yaw(self):
        pose = Pose(np.array([1.0, 2.0, 0.3]), quat_from_yaw(np.pi / 2))
        xy = sample_grid_positions(pose) - [1.0, 2.0]
        # long axis now along world y
        assert np.abs(xy[:, 1]).max() == pytest.approx(5 * HEIGHT_PITCH)
        assert np.abs(xy[:, 0]).max() == pytest.approx(3 * HEIGHT_PITCH)

    def test_rotation_oracle_per_sample(self):
        yaw = 0.7
        pose = Pose(np.array([0.5, -0.2, 0.3]), quat_from_yaw(yaw))
        xy = sample_grid_positions(pose)
        c, s = np.cos(yaw), np.sin(yaw)
        nx, ny = HEIGHT_GRID
        k = 0
        for i in range(nx):
            for j in range(ny):
                lx = (i - (nx - 1) / 2) * HEIGHT_PITCH
                ly = (j - (ny - 1) / 2) * HEIGHT_PITCH
                expect = [0.5 + c * lx - s * ly, -0.2 + s * lx + c * ly]
                np.testing.assert_allclose(xy[k], expect, atol=1e-12)
                k += 1


class TestSampling:
    def test_heights_relative_to_base(self):
        emap = _flat_map(z=0.1)
        pose = Pose(np.array([0.0, 0.0, 0.42]), quat_from_yaw(0.0))
        values, _, fill = sample_heights(emap, pose)
        assert not fill.any()
        np.testing.assert_allclose(values, 0.1 - 0.42, atol=1e-9)

    def test_empty_map_gives_default_fill(self):
        emap = ElevationMap(resolution=0.025, size=4.0)
        pose = Pose(np.array([0.0, 0.0, 0.3]), quat_from_yaw(0.0))
        values, _, fill = sample_heights(emap, pose)
        assert fill.all()
        np.testing.assert_array_equal(values, np.full(77, DEFAULT_RELATIVE_HEIGHT))


class TestHeightNoise:
    def test_no_noise_is_identity(self):
        emap = _flat_map()
        pose = Pose(np.array([0.0, 0.0, 0.3]), quat_from_yaw(0.0))
        values, positions, _ = sample_heights(emap, pose)
        state = HeightNoiseState(sample_sigma=0.0, bias_sigma=np.zeros(3))
        out = apply_height_noise(
            values, positions, state, 0.0, emap, np.random.default_rng(0), 0.3
        )
        np.testing.assert_array_equal(out, values)

    def test_bias_constant_for_exactly_350_calls_at_50hz(self):
        emap = _flat_map()
        pose = Pose(np.array([0.0, 0.0, 0.3]), quat_from_yaw(0.0))
        values, positions, _ = sample_heights(emap, pose)
        state = HeightNoiseState(sample_sigma=0.0, bias_sigma=np.array([0.0, 0.0, 0.05]))
        rng = np.random.default_rng(7)
        dt = 1.0 / 50.0
        assert int(round(BIAS_RESAMPLE_PERIOD / dt)) == 350
        seen = []
        for i in range(701):
            apply_height_noise(values, positions, state, i * dt, emap, rng, 0.3)
            seen.append(state.bias.copy())
        seen = np.array(seen)
        assert np.all(seen[:350] == seen[0])
        assert np.any(seen[350] != seen[0])
        assert np.all(seen[350:700] == seen[350])
        assert np.any(seen[700] != seen[350])

    def test_z_bias_is_additive(self):
        emap = _flat_map(z=0.0)
        pose = Pose(np.array([0.0, 0.0, 0.3]), quat_from_yaw(0.0))
        values, positions, _ = sample_heights(emap, pose)
        state = HeightNoiseState(
            sample_sigma=0.0, bias_sigma=np.zeros(3), bias=np.array([0.0, 0.0, 0.04]),
            last_resample=0.0,
        )
        out = apply_height_noise(
            values, positions, state, 0.1, emap, np.random.default_rng(0), 0.3
        )
        np.testing.assert_allclose(out, values + 0.04, atol=1e-12)

    def test_xy_bias_requeries_shifted_positions(self):
        # map with a height discontinuity: shifting the query positions in x
        # must change which samples land on the upper level
        emap = ElevationMap(resolution=0.025, size=4.0)
        xs = np.arange(-0.75, 0.75, 0.025)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        z = np.where(gx.ravel() > 0.1, 0.2, 0.0)
        emap.integrate_cloud(
            PointCloud(t=0.0, frame="world", points=np.column_stack([gx.ravel(), gy.ravel(), z])),
            np.zeros(3),
            SensorVarianceModel(),
            0.0,
        )
        pose = Pose(np.array([0.0, 0.0, 0.3]), quat_from_yaw(0.0))
        values, positions, _ = sample_heights(emap, pose)
        state = HeightNoiseState(
            sample_sigma=0.0, bias_sigma=np.zeros(3), bias=np.array([0.1, 0.0, 0.0]),
            last_resample=0.0,
        )
        out = apply_height_noise(
            values, positions, state, 0.1, emap, np.random.default_rng(0), 0.3
        )
        expect, _ = emap.query_heights(positions + [0.1, 0.0])
        np.testing.assert_allclose(out, expect - 0.3, atol=1e-12)
        assert (out != values).any()

    def test_sample_noise_statistics(self):
        emap = _flat_map()
        pose = Pose(np.array([0.0, 0.0, 0.3]), quat_from_yaw(0.0))
        values, positions, _ = sample_heights(emap, pose)
        state = HeightNoiseState(sample_sigma=0.01, bias_sigma=np.zeros(3))
        rng = np.random.default_rng(0)
        outs = np.concatenate(
            [
                apply_height_noise(values, positions, state, 0.0, emap, rng, 0.3) - values
                for _ in range(40)
            ]
        )
        assert 0.008 < outs.std() < 0.012


class TestFrameAndHistory:
    def test_frame_flatten_dim_and_order(self):
        f = ObservationFrame(
            command=[1, 2, 3],
            q=np.arange(12),
            dq=np.arange(12) * 0.1,
            gravity=[0, 0, -1],
            heights=np.arange(77),
        )
        flat = f.flatten()
        assert flat.shape == (FRAME_DIM,)
        np.testing.assert_array_equal(flat[:3], [1, 2, 3])
        np.testing.assert_array_equal(flat[3:15], np.arange(12))
        np.testing.assert_array_equal(flat[30:107], np.arange(77))

    def test_gravity_must_be_unit(self):
        with pytest.raises(ValueError):
            ObservationFrame(
                command=np.zeros(3),
                q=np.zeros(12),
                dq=np.zeros(12),
                gravity=np.array([0.0, 0.0, -0.5]),
                heights=np.zeros(77),
            )

    def test_history_warmup_replicates_earliest(self):
        buf = HistoryBuffer()
        flat = buf.push_and_flatten(_frame(1.0))
        assert flat.shape == (HISTORY_STEPS * FRAME_DIM,)
        # all ten slots replicate the single frame
        np.testing.assert_array_equal(flat.reshape(10, FRAME_DIM)[0], flat.reshape(10, FRAME_DIM)[9])

    def test_history_oldest_first_after_warmup(self):
        buf = HistoryBuffer()
        for i in range(12):
            flat = buf.push_and_flatten(_frame(float(i)))
        frames = flat.reshape(10, FRAME_DIM)
        assert frames[0][0] == 2.0  # oldest retained
        assert frames[-1][0] == 11.0  # newest last

