import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elevsim import sensorsim
from elevsim.geometry import Pose, quat_conj, quat_from_euler, quat_rotate, rotation_matrix, rotz
from elevsim.pointcloud import PointCloud
from elevsim.scene import (
    FlatRegion,
    Heightfield,
    SceneSpec,
    Step,
    build_scene,
    obstacle_scene,
)
from elevsim.sensorsim import (
    HIP_OFFSETS,
    PITCH_TAU,
    Q_STAND,
    SWING_AMPLITUDE,
    TROT_DUTY,
    TROT_FREQUENCY,
    TRUNK_HEIGHT,
    CameraModel,
    CommandProfile,
    RobotState,
    SensorNoise,
    default_front_camera,
    default_rear_camera,
    inject_sensor_noise,
    render_depth,
    simulate_trajectory,
)


@pytest.fixture(scope="module")
def flat_hf():
    return build_scene(SceneSpec([FlatRegion(0.0)], extent=(8.0, 3.0)), 0.0175)


def _run(profile, hf, **kw):
    return simulate_trajectory(profile, hf, dt=1.0 / 300, **kw)


def _reference_trajectory(profile, hf, dt, start_xy, start_yaw):
    """Tick-by-tick integration, the oracle for the array version.

    Returns the columns (t, pos, quat, v_body, w_body, q, dq, contacts, air,
    touchdown_air) and the truncation flag.
    """
    xy, yaw, pitch = np.array(start_xy, dtype=float), start_yaw, 0.0
    air, prev_contact, prev_z = np.zeros(4), np.ones(4, dtype=bool), None
    rows, truncated = [], False
    for i in range(int(round(profile.total_duration / dt)) + 1):
        t = i * dt
        cmd = profile.at(t)
        foot_h = hf.heights_at(HIP_OFFSETS[:, :2] @ rotz(yaw)[:2, :2].T + xy)
        if not np.isfinite(foot_h).all():
            truncated = True
            break
        z = float(foot_h.mean()) + TRUNK_HEIGHT
        target = -np.arctan2(foot_h[:2].mean() - foot_h[2:].mean(), 2 * abs(HIP_OFFSETS[0, 0]))
        pitch += min(1.0, dt / PITCH_TAU) * (target - pitch)
        quat = quat_from_euler(0.0, pitch, yaw)
        v_world = quat_rotate(quat, np.array([cmd[0], cmd[1], 0.0]))
        if prev_z is not None:
            v_world[2] = (z - prev_z) / dt
        moving = bool(np.linalg.norm(cmd) > 1e-9)
        phase = (2 * np.pi * TROT_FREQUENCY * t + np.array([0, np.pi, np.pi, 0])) % (2 * np.pi)
        contact = phase / (2 * np.pi) < TROT_DUTY if moving else np.ones(4, dtype=bool)
        touchdown_air = np.where(contact & ~prev_contact, air, 0.0)
        air = np.where(contact, 0.0, air + dt)
        q, dq = Q_STAND.copy(), np.zeros(12)
        if moving:
            s = np.pi * np.clip((phase / (2 * np.pi) - TROT_DUTY) / (1 - TROT_DUTY), 0.0, 1.0)
            swing = np.where(contact, 0.0, np.sin(s))
            dswing = np.where(contact, 0.0, np.pi * np.cos(s) * TROT_FREQUENCY / (1 - TROT_DUTY))
            q[1::3] -= SWING_AMPLITUDE * swing
            q[2::3] += SWING_AMPLITUDE * swing
            dq[1::3] = -SWING_AMPLITUDE * dswing
            dq[2::3] = -dq[1::3]
        v_body = quat_rotate(quat_conj(quat), v_world)
        w_body = np.array([0.0, 0.0, cmd[2]])
        rows.append((t, [xy[0], xy[1], z], quat, v_body, w_body, q, dq, contact, air, touchdown_air))
        prev_contact, prev_z = contact, z
        xy = xy + rotz(yaw)[:2, :2] @ np.array([cmd[0], cmd[1]]) * dt
        yaw += cmd[2] * dt
    return [np.array(col) for col in zip(*rows)], truncated


def _loop_air_time(contact: np.ndarray, dt: float) -> np.ndarray:
    """Air time as the running total it was computed as, tick by tick: the
    oracle of `simulate_trajectory`'s `air`."""
    air = np.empty(contact.shape)
    a = np.zeros(contact.shape[1])
    for i in range(len(contact)):
        a = np.where(contact[i], 0.0, a + dt)
        air[i] = a
    return air


@st.composite
def gait_profiles(draw):
    """One to five segments of 0.05 to 1.5 s, each standing (a zero
    command) or walking and turning; a start in the air or on the ground."""
    segments = draw(st.lists(st.tuples(
        st.floats(0.05, 1.5),
        st.one_of(st.just((0.0, 0.0, 0.0)),
                  st.tuples(st.floats(-0.3, 0.5), st.floats(-0.2, 0.2), st.floats(-0.3, 0.3))),
    ), min_size=1, max_size=5))
    return CommandProfile(segments)


class TestTrajectory:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(gait_profiles(), st.sampled_from([1.0 / 300, 1.0 / 120]))
    def test_air_time_is_the_running_total(self, flat_hf, profile, dt):
        traj = simulate_trajectory(profile, flat_hf, dt, start_xy=(3.0, 1.5))
        assert traj.air.tobytes() == _loop_air_time(traj.contacts, dt).tobytes()

    def test_air_time_of_a_truncated_run_is_the_running_total(self, flat_hf):
        traj = _run(CommandProfile([(0.4, (0.0, 0.0, 0.0)), (9.0, (1.0, 0.0, 0.0))]), flat_hf)
        assert traj.truncated and (~traj.contacts[-1]).any()
        assert traj.air.tobytes() == _loop_air_time(traj.contacts, 1.0 / 300).tobytes()

    @pytest.mark.parametrize("dt", [0.0, -0.01, float("nan"), float("inf")])
    def test_bad_step_rejected(self, flat_hf, dt):
        # NaN passed the old `dt <= 0` test and failed with an unnamed int
        # cast; an infinite step gave a one-tick trajectory
        with pytest.raises(ValueError, match="dt must be"):
            simulate_trajectory(CommandProfile.constant((0.5, 0.0, 0.0), 1.0), flat_hf, dt=dt)

    @pytest.mark.parametrize(
        "profile, scene, start_xy, start_yaw",
        [
            # climb with a sideways turn, a stop and a turn back
            (
                CommandProfile(
                    [
                        (1.0, (0.5, 0.0, 0.0)),
                        (1.0, (0.4, 0.1, 0.3)),
                        (0.5, (0.0, 0.0, 0.0)),
                        (1.0, (0.4, 0.0, -0.3)),
                    ]
                ),
                "obstacle",
                (2.2, 1.4),
                0.2,
            ),
            # walks off the far edge and is truncated
            (CommandProfile.constant((1.0, 0.0, 0.0), 8.0), "flat", (0.8, 1.5), 0.0),
        ],
    )
    def test_matches_tick_by_tick_reference(
        self, profile, scene, start_xy, start_yaw, obstacle_hf, flat_hf
    ):
        hf = obstacle_hf if scene == "obstacle" else flat_hf
        traj = simulate_trajectory(profile, hf, 1.0 / 300, start_xy=start_xy, start_yaw=start_yaw)
        columns, truncated = _reference_trajectory(profile, hf, 1.0 / 300, start_xy, start_yaw)
        assert traj.truncated == truncated
        fields = ("t", "pos", "quat", "v_body", "w_body", "q", "dq", "contacts", "air")
        for name, expected in zip(fields + ("touchdown_air",), columns):
            got = getattr(traj, name)
            # same bits, signed zeros included
            assert got.dtype == expected.dtype and got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), name

    def test_state_is_a_view_of_one_row(self, short_trajectory):
        st = short_trajectory.state(7)
        assert st.t == short_trajectory.t[7]
        for name, rows in (("position", "pos"), ("foot_air_times", "air"), ("q", "q")):
            np.testing.assert_array_equal(getattr(st, name), getattr(short_trajectory, rows)[7])
            assert np.shares_memory(getattr(st, name), getattr(short_trajectory, rows))

    def test_forward_walk_integrates_command(self, flat_hf):
        traj = _run(CommandProfile.constant((0.5, 0.0, 0.0), 4.0), flat_hf)
        first, last = traj.pos[0], traj.pos[-1]
        assert last[0] - first[0] == pytest.approx(0.5 * 4.0, abs=0.01)
        assert last[1] == pytest.approx(first[1], abs=1e-9)

    def test_base_height_on_flat_ground(self, flat_hf):
        traj = _run(CommandProfile.constant((0.5, 0.0, 0.0), 1.0), flat_hf)
        assert traj.pos[:, 2] == pytest.approx(TRUNK_HEIGHT)

    def test_turn_in_place_integrates_yaw(self, flat_hf):
        traj = _run(CommandProfile.constant((0.0, 0.0, 0.5), 2.0), flat_hf)
        assert traj.state(-1).pose.yaw == pytest.approx(1.0, abs=0.01)
        assert np.allclose(traj.pos[-1, :2], traj.pos[0, :2])

    def test_walking_off_the_map_truncates(self, flat_hf):
        traj = _run(CommandProfile.constant((1.0, 0.0, 0.0), 30.0), flat_hf)
        assert traj.truncated
        assert traj.t[-1] < 30.0

    @pytest.mark.parametrize("start_xy", [(-1.0, 1.5), (0.1, 1.5), (4.0, 2.95)])
    def test_off_map_start_rejected(self, flat_hf, start_xy):
        # (0.1, 1.5) and (4.0, 2.95) have the base on the map but rear or
        # left hips off it
        with pytest.raises(ValueError, match=rf"start pose \(x={start_xy[0]}, y={start_xy[1]}"):
            _run(CommandProfile.constant((0.5, 0.0, 0.0), 1.0), flat_hf, start_xy=start_xy)

    def test_base_climbs_obstacle(self, obstacle_hf):
        traj = _run(CommandProfile.constant((0.5, 0.0, 0.0), 9.0), obstacle_hf)
        assert traj.pos[:, 2].max() == pytest.approx(0.30 + TRUNK_HEIGHT, abs=0.02)

    def test_pitch_responds_to_slope(self, obstacle_hf):
        traj = _run(CommandProfile.constant((0.5, 0.0, 0.0), 9.0), obstacle_hf)
        nose = quat_rotate(traj.quat, np.array([1.0, 0.0, 0.0]))
        pitches = np.arcsin(np.clip(nose[:, 2], -1, 1))
        # climbing: nose pitches up at some point
        assert pitches.max() > 0.05

    def test_stationary_robot_keeps_all_feet_down(self, flat_hf):
        traj = _run(CommandProfile.constant((0.0, 0.0, 0.0), 1.0), flat_hf)
        assert traj.contacts.all()
        assert not traj.air.any()

    def test_trot_alternates_diagonal_pairs(self, flat_hf):
        traj = _run(CommandProfile.constant((0.5, 0.0, 0.0), 1.0), flat_hf)
        c = traj.contacts[len(traj) // 4]
        assert c[0] == c[3] and c[1] == c[2] and c[0] != c[1]

    def test_air_time_credit_granted_once_per_touchdown(self, flat_hf):
        traj = _run(CommandProfile.constant((0.5, 0.0, 0.0), 2.0), flat_hf)
        swing_time = (1.0 - TROT_DUTY) / TROT_FREQUENCY
        credits = traj.touchdown_air
        nonzero = credits[credits > 0]
        # every credit equals the swing duration (one sim tick of slack)
        assert np.allclose(nonzero, swing_time, atol=2.0 / 300)
        # per foot: one credit per completed stride
        per_foot = (credits > 0).sum(axis=0)
        assert (per_foot >= 3).all() and (per_foot <= 5).all()

    def test_stride_interval_sum(self, flat_hf):
        # contact + air intervals over one stride add up to the stride duration
        traj = _run(CommandProfile.constant((0.5, 0.0, 0.0), 1.0), flat_hf)
        dt = 1.0 / 300
        contact0 = traj.contacts[:, 0]
        stride_ticks = int(round(1.0 / TROT_FREQUENCY / dt))
        one_stride = contact0[:stride_ticks]
        assert abs(one_stride.sum() * dt + (~one_stride).sum() * dt - 1.0 / TROT_FREQUENCY) <= dt


def _render(cam, st, hf):
    """`render_depth` from the state's base pose composed with the mount."""
    return render_depth(cam, st.pose.compose(cam.mount), hf, st.t)


class TestRenderDepth:
    def test_points_lie_on_terrain_flat(self, flat_hf, short_trajectory):
        cam = default_front_camera()
        st = short_trajectory.state(0)
        cloud = _render(cam, st, flat_hf)
        assert len(cloud) > 0
        world = cloud.transformed(st.pose.compose(cam.mount))
        np.testing.assert_allclose(world.points[:, 2], 0.0, atol=1e-6)

    def test_ranges_within_camera_limits(self, flat_hf, short_trajectory):
        cam = default_front_camera()
        cloud = _render(cam, short_trajectory.state(0), flat_hf)
        r = np.linalg.norm(cloud.points, axis=1)
        assert (r >= cam.min_range).all() and (r <= cam.max_range).all()

    def test_hit_distances_match_fine_march_oracle(self, obstacle_hf):
        # brute-force oracle: march every ray at 1 mm steps
        cam = CameraModel(
            name="probe",
            mount=Pose(np.array([0.25, 0.0, 0.05]), quat_from_euler(0.0, np.deg2rad(55), 0.0)),
            h_fov=np.deg2rad(60),
            v_fov=np.deg2rad(40),
            width=8,
            height=6,
            min_range=0.05,
            max_range=3.0,
        )
        from elevsim.sensorsim import RobotState

        st = RobotState(
            t=0.0,
            position=np.array([2.6, 1.5, 0.30]),
            quat=np.array([1.0, 0.0, 0.0, 0.0]),
            lin_vel_body=np.zeros(3),
            ang_vel_body=np.zeros(3),
            q=np.zeros(12),
            dq=np.zeros(12),
            foot_contacts=np.ones(4, dtype=bool),
            foot_air_times=np.zeros(4),
            foot_touchdown_air=np.zeros(4),
        )
        cloud = _render(cam, st, obstacle_hf)
        assert len(cloud) > 0
        world = cloud.transformed(st.pose.compose(cam.mount)).points

        pose = st.pose.compose(cam.mount)
        origin = pose.position
        from elevsim.geometry import quat_rotate as qr

        expected = []
        for ray_s in cam.ray_directions():
            d = qr(pose.quat, ray_s)
            t_hit = None
            for t in np.arange(0.01, cam.max_range, 0.001):
                p = origin + d * t
                # NaN off the grid compares false
                h = obstacle_hf.heights_at(p[:2])[0]
                if p[2] <= h:
                    t_hit = t
                    break
            if t_hit is not None and cam.min_range <= t_hit <= cam.max_range:
                expected.append(origin + d * t_hit)
        expected = np.array(expected)
        assert len(expected) == len(world)
        from scipy.spatial import cKDTree

        d, _ = cKDTree(expected).query(world)
        assert d.max() < 2e-3

    def test_camera_below_terrain_returns_empty(self, obstacle_hf, caplog):
        from elevsim.sensorsim import RobotState

        st = RobotState(
            t=0.0,
            position=np.array([3.5, 1.5, -0.5]),
            quat=np.array([1.0, 0.0, 0.0, 0.0]),
            lin_vel_body=np.zeros(3),
            ang_vel_body=np.zeros(3),
            q=np.zeros(12),
            dq=np.zeros(12),
            foot_contacts=np.ones(4, dtype=bool),
            foot_air_times=np.zeros(4),
            foot_touchdown_air=np.zeros(4),
        )
        with caplog.at_level(logging.WARNING, logger="elevsim.sensorsim"):
            cloud = _render(default_front_camera(), st, obstacle_hf)
        assert len(cloud) == 0 and cloud.t == 0.0 and cloud.frame == "front"
        assert "camera front below terrain" in caplog.text


class TestBelowTerrainCheck:
    """A camera at or under the terrain top at its xy renders an empty cloud
    with a warning; anywhere else, off the grid too, the rays are cast."""

    HF = Heightfield(0.0175, (0.0, 0.0), np.repeat(np.arange(13) * 0.05, 6), 120)

    @staticmethod
    def _render(x, y, z, yaw=0.0):
        # pitched down, so that from above the terrain most rays hit it
        pose = Pose(np.array([x, y, z]), quat_from_euler(0.0, 0.6, yaw))
        return render_depth(default_front_camera(), pose, TestBelowTerrainCheck.HF, 0.5)

    def test_exactly_at_a_run_top(self, caplog):
        for x0, x1, h in self.HF.x_runs:
            for x in (x0, 0.5 * (x0 + x1)):
                caplog.clear()
                with caplog.at_level(logging.WARNING, logger="elevsim.sensorsim"):
                    assert len(self._render(x, 1.0, h)) == 0, (x, h)
                assert "below terrain" in caplog.text
                # one ulp above the top the rays are cast (and blocked, this
                # close, by the minimum range)
                caplog.clear()
                with caplog.at_level(logging.WARNING, logger="elevsim.sensorsim"):
                    self._render(x, 1.0, np.nextafter(h, np.inf))
                assert "below terrain" not in caplog.text, (x, h)

    def test_off_the_grid_casts(self, caplog):
        (sx, sy), top = self.HF.size, self.HF.profile.max()
        with caplog.at_level(logging.WARNING, logger="elevsim.sensorsim"):
            # beside the grid, at or under heights the terrain has
            for x, y, z, yaw in ((-0.3, 1.0, -0.5, 0.0), (sx + 0.3, 1.0, top - 0.01, np.pi),
                                 (0.5, -0.3, -0.5, np.pi / 2), (0.5, sy + 0.3, -0.5, -np.pi / 2)):
                # rays that reach the grid's side face enter the solid there
                assert len(self._render(x, y, z, yaw)) > 0, (x, y, z)
                assert len(self._render(x, y, z + 0.4, yaw)) > 0, (x, y)
        assert "below terrain" not in caplog.text

    def test_non_finite_origin_casts_nothing(self, caplog):
        with caplog.at_level(logging.WARNING, logger="elevsim.sensorsim"):
            for origin in ((np.nan, 1.0, 0.3), (0.5, np.inf, 0.3), (0.5, 1.0, np.nan)):
                assert len(self._render(*origin)) == 0, origin
        assert "below terrain" not in caplog.text


def _posed_state(x, y, z, yaw=0.0, pitch=0.0, roll=0.0):
    return RobotState(
        t=0.5,
        position=np.array([x, y, z]),
        quat=quat_from_euler(roll, pitch, yaw),
        lin_vel_body=np.zeros(3),
        ang_vel_body=np.zeros(3),
        q=np.zeros(12),
        dq=np.zeros(12),
        foot_contacts=np.ones(4, dtype=bool),
        foot_air_times=np.zeros(4),
        foot_touchdown_air=np.zeros(4),
    )


def _thin_step_hf():
    # 2 cm deep, 12 cm high: narrower than the 5 cm march step
    spec = SceneSpec([FlatRegion(0.0), Step(x_start=3.0, height=0.12, depth=0.02)], (8.0, 3.0))
    return build_scene(spec, 0.0175)


def _shifted_hf(hf, origin=(-1.3, 0.7)):
    return Heightfield(resolution=hf.resolution, origin=origin, profile=hf.profile, ny=hf.ny)


# (scene, pose), poses chosen so that each scene gets hits
RENDER_CASES = {
    "obstacle_first_rise": ("obstacle", (2.6, 1.5, 0.30)),
    "obstacle_on_platform_yawed": ("obstacle", (3.9, 1.2, 0.60, 0.6)),
    "obstacle_pitched_up": ("obstacle", (3.1, 1.5, 0.42, 0.0, -0.25)),
    "obstacle_rolled_yawed_back": ("obstacle", (5.2, 1.6, 0.50, -2.5, 0.15, 0.1)),
    "flat": ("flat", (1.5, 1.5, 0.30)),
    "flat_pitched_down": ("flat", (4.0, 1.0, 0.30, 0.3, 0.3)),
    "thin_step": ("thin", (2.35, 1.5, 0.30)),
    "thin_step_yawed": ("thin", (2.4, 1.3, 0.30, 0.2, 0.05)),
    "shifted_origin": ("shifted", (1.3, 2.2, 0.30)),
    "shifted_origin_near_edge": ("shifted", (-0.55, 2.2, 0.30, np.pi)),
    "near_x_edge_looking_out": ("obstacle", (0.75, 1.5, 0.30, np.pi)),
    "near_y_edge_looking_out": ("flat", (4.0, 0.75, 0.30, -np.pi / 2, -0.1)),
    "corner_looking_out": ("flat", (7.5, 2.5, 0.30, np.pi / 4)),
}


WIDE_CAMERA = CameraModel(
    name="wide",
    mount=Pose(np.array([0.25, 0.0, 0.05]), quat_from_euler(0.0, np.deg2rad(25), 0.0)),
    h_fov=np.deg2rad(100),
    v_fov=np.deg2rad(70),
    width=24,
    height=18,
    min_range=0.05,
    max_range=4.0,
)

# the rear camera's origin is at y = -0.05, off the grid: its rays hit where
# they enter the grid under the terrain
ORACLE_CASES = {**RENDER_CASES, "rear_origin_off_y_edge": ("flat", (4.0, 0.2, 0.30, np.pi / 2))}


def _march_ranges(cam, st, hf, step=1e-3):
    """Per ray, the first sample of a `step` march from the camera that is at
    or under its cell's height (nothing off the grid), kept only within the
    camera's range; inf where there is none."""
    pose = st.pose.compose(cam.mount)
    dirs = quat_rotate(pose.quat, cam.ray_directions())
    ts = np.arange(1, int(round(cam.max_range / step)) + 1) * step
    out = np.full(len(dirs), np.inf)
    for rays in np.array_split(np.arange(len(dirs)), 16):
        p = pose.position + dirs[rays, None, :] * ts[:, None]
        h = hf.heights_at(p[..., :2].reshape(-1, 2), fill=-np.inf).reshape(p.shape[:2])
        below = p[..., 2] <= h
        hit = below.any(axis=1)
        out[rays[hit]] = ts[below[hit].argmax(axis=1)]
    out[(out < cam.min_range) | (out > cam.max_range)] = np.inf
    return out


def _cast_ranges(cam, st, hf):
    """Per ray, the range of its `render_depth` point; inf where none."""
    points = _render(cam, st, hf).points
    rays = np.argmax(points @ cam.ray_directions().T, axis=1)
    assert len(np.unique(rays)) == len(rays)
    out = np.full(cam.width * cam.height, np.inf)
    out[rays] = np.linalg.norm(points, axis=1)
    return out


def _on_surface(hf, world, tol=1e-6):
    """Whether each world point is on the terrain surface: within `tol` of it
    there are points both in the solid (on the grid, z at or under the cell's
    height) and outside it. This holds on a cell top, on a cell boundary
    whose two heights bracket the point's z, and on the grid edge."""
    solid = []
    for axis in range(3):
        for sign in (-1.0, 1.0):
            q = world.copy()
            q[:, axis] += sign * tol
            solid.append(q[:, 2] <= hf.heights_at(q[:, :2], fill=-np.inf))
    solid = np.array(solid)
    return solid.any(axis=0) & ~solid.all(axis=0)


class TestStackedCameraPoses:
    """`run_scenario` composes every cloud tick's camera poses in one stacked
    call; each row must have the bits of the per-tick `Pose.compose` that
    `render_depth` did before, and act like it through `quat_rotate`."""

    def test_rows_match_per_tick_compose(self, rng):
        n = 90
        t = np.linspace(0.0, 1.0, n)
        quat = quat_from_euler(0.25 * np.sin(7 * t), -0.3 * np.cos(5 * t), 3.0 * t - 1.5)
        pos = rng.uniform(-3.0, 3.0, (n, 3))
        est_pos = pos + rng.normal(0.0, 0.05, (n, 3))
        points = rng.uniform(-2.0, 2.0, (50, 3))
        ticks = range(0, n, 3)
        for cam in (default_front_camera(), default_rear_camera()):
            true_base = Pose(pos, quat)[::3]
            est_base = Pose(est_pos, quat)[::3]
            stacked, stacked_est = true_base.compose(cam.mount), est_base.compose(cam.mount)
            dirs = cam.ray_directions()
            for k, i in enumerate(ticks):
                base = Pose(pos[i], quat[i])
                ref = base.compose(cam.mount)
                ref_est = Pose(est_pos[i], quat[i]).compose(cam.mount)
                row, row_est = stacked[k], stacked_est[k]
                for got, want in (
                    (row.position, ref.position),
                    (row.quat, ref.quat),
                    (row_est.position, ref_est.position),
                    (row_est.quat, ref_est.quat),
                    (est_base[k].rotation, rotation_matrix(base.quat)),
                    (row.rotate(dirs), quat_rotate(ref.quat, dirs)),
                    (
                        row.inverse_transform(points),
                        quat_rotate(quat_conj(ref.quat), points - ref.position),
                    ),
                    (
                        row_est.transform(points),
                        quat_rotate(ref_est.quat, points) + ref_est.position,
                    ),
                    (row_est.rotation, row.rotation),
                ):
                    assert got.tobytes() == want.tobytes(), (cam.name, i)


class TestRenderDepthMatchesReference:
    """The reference is a 1 mm march along every ray."""

    @pytest.fixture(scope="class")
    def scenes(self, obstacle_hf, flat_hf):
        return {
            "obstacle": obstacle_hf,
            "flat": flat_hf,
            "thin": _thin_step_hf(),
            "shifted": _shifted_hf(obstacle_hf),
        }

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_hits_match_fine_march(self, case, scenes):
        name, pose = ORACLE_CASES[case]
        st = _posed_state(*pose)
        hf = scenes[name]
        for cam in (default_front_camera(), default_rear_camera(), WIDE_CAMERA):
            cast = _cast_ranges(cam, st, hf)
            march = _march_ranges(cam, st, hf)
            # every march hit is a cast hit, no later along the ray
            seen = np.isfinite(march)
            assert np.isfinite(cast[seen]).all(), (case, cam.name)
            assert (cast[seen] <= march[seen] + 1e-9).all(), (case, cam.name)
            # and every cast hit, including those the march steps over or
            # reaches more than a step later, lies on the surface
            pose_w = st.pose.compose(cam.mount)
            dirs = quat_rotate(pose_w.quat, cam.ray_directions())
            hit = np.isfinite(cast)
            world = pose_w.position + dirs[hit] * cast[hit, None]
            assert _on_surface(hf, world).all(), (case, cam.name)
        # the wide camera sees both terrain and misses from every pose
        assert 0 < hit.sum() < WIDE_CAMERA.width * WIDE_CAMERA.height

    def test_edge_poses_send_rays_off_the_grid(self, scenes):
        # the front camera hits with every ray from the inner poses; at the
        # edges some of its rays leave the grid and miss
        cam = default_front_camera()
        for case in ("near_x_edge_looking_out", "shifted_origin_near_edge", "corner_looking_out"):
            name, pose = RENDER_CASES[case]
            assert 0 < len(_render(cam, _posed_state(*pose), scenes[name])) < 768

    def test_thin_step_in_view(self, scenes):
        # a 2 mm march puts 224 of the 768 front rays on the 2 cm deep step,
        # 32 of them above 10 cm; a cast that steps over the step finds fewer
        st = _posed_state(*RENDER_CASES["thin_step"][1])
        cam = default_front_camera()
        world = _render(cam, st, scenes["thin"]).transformed(st.pose.compose(cam.mount))
        assert (world.points[:, 2] > 1e-6).sum() >= 224
        assert (world.points[:, 2] > 0.1).sum() >= 32


def _all_runs_hits(hf, o, dirs, t_max):
    """The dense oracle of `_first_hits`: the exact entry test of every run
    for every ray, on one (runs, rays) grid."""
    runs = hf.x_runs
    edges = np.append(runs[:, 0], runs[-1, 1])
    dx, dy, dz = np.where(dirs == 0, sensorsim._AXIS_TINY, dirs).T
    y0 = hf.origin[1]
    tx0, tx1 = (edges[[0, -1], None] - o[0]) / dx
    ty0, ty1 = (np.array([[y0], [y0 + hf.size[1]]]) - o[1]) / dy
    lo = np.maximum(np.maximum(np.minimum(tx0, tx1), np.minimum(ty0, ty1)), 0.0)
    hi = np.minimum(np.minimum(np.maximum(tx0, tx1), np.maximum(ty0, ty1)), t_max)
    tx = (edges[:, None] - o[0]) / dx
    tz = (runs[:, 2:3] - o[2]) / dz
    down = dz < 0
    t_in = np.maximum(np.maximum(np.minimum(tx[:-1], tx[1:]), np.where(down, tz, lo)), lo)
    t_out = np.minimum(np.minimum(np.maximum(tx[:-1], tx[1:]), np.where(down, hi, tz)), hi)
    return np.where(t_in < t_out, t_in, np.inf).min(axis=0)


def _cast(hf, o, dirs, t_max, band=None):
    """`_first_hits`, optionally with another band width, and whether it
    searched (tested runs per ray rather than the frame's runs on every
    ray)."""
    searched = []

    def spy(o, edges, heights, j, *rest):
        searched.append(j.shape[1] > 1)
        return box_hits(o, edges, heights, j, *rest)

    box_hits = sensorsim._box_hits
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sensorsim, "_box_hits", spy)
        if band is not None:
            mp.setattr(sensorsim, "_BAND", band)
        return sensorsim._first_hits(hf, np.asarray(o, dtype=float), dirs, t_max), any(searched)


def _assert_matches_all_runs(hf, o, dirs, t_max=4.0):
    """Every band width casts the bytes of the dense oracle; returns the
    ranges and whether the default band searched."""
    want = _all_runs_hits(hf, np.asarray(o, dtype=float), dirs, t_max)
    for band in (1, None):
        got, searched = _cast(hf, o, dirs, t_max, band)
        assert got.tobytes() == want.tobytes(), (band, o)
    return got, searched


def _profile_hf(profile, resolution=0.0175, origin=(0.0, 0.0), ny=120):
    return Heightfield(resolution, origin, np.asarray(profile, dtype=float), ny)


def _ramp(cells, top=1.0, flat=20):
    """A flat floor, then a ramp down from `top` in `cells` one-cell runs,
    then the floor again."""
    ramp = top * (1.0 - np.arange(cells) / cells)
    return np.concatenate([np.zeros(flat), ramp, np.zeros(flat)])


def _stairs(n=12, rise=0.05, tread=6):
    return np.repeat(np.arange(n + 1) * rise, tread)


def _sphere_rays(rng, n, zero_frac=0.0):
    """Unit rays spread over the sphere; each component is exactly 0 with
    probability `zero_frac`."""
    d = rng.normal(size=(n, 3))
    d[rng.random((n, 3)) < zero_frac] = 0.0
    d = d[np.linalg.norm(d, axis=1) > 0]
    return d / np.linalg.norm(d, axis=1, keepdims=True)


# a profile piece: (kind, cells, height, slope per cell)
_PIECES = st.tuples(
    st.sampled_from(["flat", "step", "ramp"]),
    st.integers(1, 40),
    st.floats(-0.3, 0.5),
    st.floats(-0.03, 0.03),
)


def _pieces_profile(pieces):
    out = []
    for kind, cells, height, slope in pieces:
        if kind == "flat":
            out.append(np.zeros(cells))
        elif kind == "step":
            out.append(np.full(cells, height))
        else:
            out.append(height + slope * np.arange(cells))
    return np.concatenate(out)


class TestFirstHitsMatchAllRuns:
    """The run search casts the bytes of the exact test of every run, with
    its own band width and with a band of one run, which sends most rays on
    through more bands."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        pieces=st.lists(_PIECES, min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        origin=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    )
    def test_random_profiles_and_poses(self, pieces, seed, origin):
        rng = np.random.default_rng(seed)
        hf = _profile_hf(_pieces_profile(pieces), origin=origin, ny=int(rng.integers(1, 200)))
        (x0, y0), (sx, sy) = hf.origin, hf.size
        top = hf.profile.max()
        for _ in range(4):
            o = [
                rng.uniform(x0 - 0.5, x0 + sx + 0.5),
                rng.uniform(y0 - 0.5, y0 + sy + 0.5),
                rng.uniform(hf.profile.min() - 0.1, top + 1.0),
            ]
            rays = _sphere_rays(rng, 300, zero_frac=0.05)
            # down to a range that cuts some rays short of their hit
            _assert_matches_all_runs(hf, o, rays, rng.uniform(0.05, 6.0))

    def test_single_run(self, rng):
        hf = _profile_hf(np.full(50, 0.2))
        assert len(hf.x_runs) == 1
        got, _ = _assert_matches_all_runs(hf, [0.4, 1.0, 0.5], _sphere_rays(rng, 500))
        assert np.isfinite(got).any()

    def test_up_rays_hit_stair_risers(self, rng):
        hf = _profile_hf(_stairs())
        rays = _sphere_rays(rng, 2000)
        rays = rays[(rays[:, 0] > 0) & (rays[:, 2] > 0)]
        got, searched = _assert_matches_all_runs(hf, [0.05, 1.0, 0.02], rays)
        assert searched and np.isfinite(got).sum() > 100

    def test_rays_with_exact_zero_components(self, rng):
        hf = _profile_hf(_ramp(120, top=0.6))
        axes = np.array(
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, -1], [0, 0, 1],
             [1, 0, -1], [-1, 0, -1], [0, 1, -1], [0, -1, -1], [1, 1, 0], [-1, 1, 0]],
            dtype=float,
        )
        rays = np.vstack([axes / np.linalg.norm(axes, axis=1, keepdims=True),
                          _sphere_rays(rng, 800, zero_frac=0.3)])
        searched = False
        for x in (0.1, 0.6, 1.2, 2.0, 2.4):
            got, s = _assert_matches_all_runs(hf, [x, 1.0, 0.8], rays)
            searched |= s
            assert np.isfinite(got).any()
        assert searched

    def test_origin_on_a_run_edge(self, rng):
        hf = _profile_hf(_ramp(80, top=0.5))
        edges = np.append(hf.x_runs[:, 0], hf.x_runs[-1, 1])
        rays = _sphere_rays(rng, 1000, zero_frac=0.1)
        for j in (0, 1, 2, 40, 41, 80, 81, len(edges) - 1):
            for z in (hf.x_runs[min(j, len(hf.x_runs) - 1), 2], 0.6, 1.5):
                _assert_matches_all_runs(hf, [edges[j], 1.0, z], rays)

    def test_camera_within_a_micron_of_a_run_top(self, rng):
        hf = _profile_hf(_ramp(80, top=0.5))
        runs = hf.x_runs
        rays = _sphere_rays(rng, 1000, zero_frac=0.1)
        for j in (0, 10, 40, 79):
            x0, x1, h = runs[j]
            for x in (x0, 0.5 * (x0 + x1)):
                for dz in (0.0, 2.5e-7, 5e-7, 1e-6, 1.5e-6):
                    _assert_matches_all_runs(hf, [x, 1.0, h + dz], rays)
                    _assert_matches_all_runs(hf, [x, 1.0, h - dz], rays)

    def test_camera_off_the_grid(self, rng):
        hf = _profile_hf(_ramp(100, top=0.4), origin=(-0.3, 0.2), ny=60)
        (x0, y0), (sx, sy) = hf.origin, hf.size
        rays = _sphere_rays(rng, 1500, zero_frac=0.05)
        hit = 0
        for o in ([x0 - 0.7, y0 + 0.5, 0.6], [x0 + sx + 0.7, y0 + 0.5, 0.6],
                  [x0 + 1.0, y0 - 0.4, 0.6], [x0 + 1.0, y0 + sy + 0.4, 0.6],
                  [x0 - 0.5, y0 - 0.5, 0.2]):
            got, _ = _assert_matches_all_runs(hf, o, rays)
            hit += np.isfinite(got).sum()
        assert hit > 0

    def test_rays_level_with_a_run_top(self, rng):
        hf = _profile_hf(_stairs(n=20, rise=0.03, tread=4))
        yaw = rng.uniform(-np.pi, np.pi, 400)
        for dz in (0.0, 1e-12, -1e-12):
            rays = np.column_stack([np.cos(yaw), np.sin(yaw), np.full(400, dz)])
            rays /= np.linalg.norm(rays, axis=1, keepdims=True)
            for j in (0, 5, 10, 20):
                x0, x1, h = hf.x_runs[j]
                _assert_matches_all_runs(hf, [0.5 * (x0 + x1), 1.0, h], rays)

    def test_400_run_ramp(self, rng):
        hf = _profile_hf(_ramp(400))
        assert len(hf.x_runs) > 400
        cam = default_front_camera()
        for x, yaw in ((0.2, 0.0), (2.0, 0.3), (5.0, np.pi), (7.5, 2.8)):
            st_ = _posed_state(x, 1.0, float(hf.heights_at([[x, 1.0]])[0]) + 0.35, yaw)
            pose = st_.pose.compose(cam.mount)
            rays = pose.rotate(cam.ray_directions())
            got, searched = _assert_matches_all_runs(hf, pose.position, rays, cam.max_range)
            assert searched and np.isfinite(got).all()

    def test_allocates_less_than_one_runs_by_rays_array(self):
        # a dense test of this frame's window would hold several
        # (runs, rays) float arrays at once
        hf = _profile_hf(_ramp(400))
        cam = default_front_camera()
        pose = _posed_state(0.2, 1.0, 1.35).pose.compose(cam.mount)
        rays = pose.rotate(cam.ray_directions())
        sensorsim._first_hits(hf, pose.position, rays, cam.max_range)  # warm the caches
        tracemalloc.start()
        try:
            sensorsim._first_hits(hf, pose.position, rays, cam.max_range)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(hf.x_runs) * len(rays) * 8


class TestCaches:
    def test_ray_directions_shared_and_read_only(self):
        a = default_front_camera()
        b = replace(default_front_camera(), name="other", max_range=5.0)
        assert a.ray_directions() is b.ray_directions()
        assert not a.ray_directions().flags.writeable
        c = replace(a, width=a.width + 1)
        assert c.ray_directions().shape == ((a.width + 1) * a.height, 3)


class TestSensorNoise:
    def test_noiseless_camera_returns_cloud_unchanged(self, flat_hf, short_trajectory, rng):
        cloud = _render(default_front_camera(), short_trajectory.state(0), flat_hf)
        out = inject_sensor_noise(cloud, SensorNoise(), rng)
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_range_noise_perturbs_along_rays(self, flat_hf, short_trajectory):
        cloud = _render(default_front_camera(), short_trajectory.state(0), flat_hf)
        out = inject_sensor_noise(cloud, SensorNoise(sigma0=0.01), np.random.default_rng(0))
        assert len(out) == len(cloud)
        dr = np.linalg.norm(out.points, axis=1) - np.linalg.norm(cloud.points, axis=1)
        assert 0.005 < dr.std() < 0.02
        # direction preserved
        unit_in = cloud.points / np.linalg.norm(cloud.points, axis=1, keepdims=True)
        unit_out = out.points / np.linalg.norm(out.points, axis=1, keepdims=True)
        np.testing.assert_allclose(unit_in, unit_out, atol=1e-9)

    def test_dropout_removes_expected_fraction(self, flat_hf, short_trajectory):
        cloud = _render(default_front_camera(), short_trajectory.state(0), flat_hf)
        out = inject_sensor_noise(cloud, SensorNoise(dropout=0.3), np.random.default_rng(0))
        frac = 1.0 - len(out) / len(cloud)
        assert 0.15 < frac < 0.45

    def test_noise_deterministic_per_seed(self, flat_hf, short_trajectory):
        noise = SensorNoise(sigma0=0.01, dropout=0.1)
        cloud = _render(default_front_camera(), short_trajectory.state(0), flat_hf)
        a = inject_sensor_noise(cloud, noise, np.random.default_rng(42))
        b = inject_sensor_noise(cloud, noise, np.random.default_rng(42))
        np.testing.assert_array_equal(a.points, b.points)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", range(6))
    def test_point_at_sensor_origin_rejected_whatever_the_draw(self, seed):
        # the dropout takes the zero row in about half of these draws
        noise = SensorNoise(sigma0=0.01, dropout=0.5)
        cloud = PointCloud(t=0.0, frame="front", points=np.array([[1.0, 0, 0], [0.0, 0, 0]]))
        with pytest.raises(ValueError, match="sensor origin"):
            inject_sensor_noise(cloud, noise, np.random.default_rng(seed))


def test_camera_model_validation():
    with pytest.raises(ValueError):
        CameraModel(
            name="bad",
            mount=Pose(np.zeros(3), np.array([1.0, 0, 0, 0])),
            h_fov=0.0,
            v_fov=1.0,
            width=4,
            height=4,
            min_range=0.1,
            max_range=1.0,
        )
    with pytest.raises(ValueError):
        CameraModel(
            name="bad",
            mount=Pose(np.zeros(3), np.array([1.0, 0, 0, 0])),
            h_fov=1.0,
            v_fov=1.0,
            width=4,
            height=4,
            min_range=2.0,
            max_range=1.0,
        )


def test_sensor_noise_validation():
    # a negative sigma0 still drew about 1 m of noise; a dropout of 1.5 kept
    # no point and the run reported a NaN chamfer
    for key, value in (("sigma0", -1.0), ("sigma0", float("inf")), ("k", -0.1),
                       ("dropout", 1.5), ("dropout", 1.0), ("dropout", -0.1),
                       ("dropout", float("nan"))):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            SensorNoise(**{key: value})


def test_ray_directions_unit_and_counted():
    for cam in (default_front_camera(), default_rear_camera()):
        dirs = cam.ray_directions()
        assert dirs.shape == (cam.width * cam.height, 3)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        assert (dirs[:, 0] > 0).all()  # sensor x is forward


@pytest.mark.parametrize(
    "cmd", [(0.5, 0.0), (0.5, 0.0, 0.0, 9.0), (), 0.5, "abc", (0.5, (0.0, 0.0), 0.1)]
)
def test_command_profile_needs_three_components(cmd):
    # a short command used to fail in simulate_trajectory and a long one in
    # the reward, after the whole map loop
    pair = r"command\[1\] must be a \(duration, \[v_x, v_y, w_z\]\) pair"
    with pytest.raises(ValueError, match=pair):
        CommandProfile([(1.0, (0.5, 0.0, 0.0)), (2.0, cmd)])


def test_command_profile_segments():
    p = CommandProfile([(1.0, (0.5, 0.0, 0.0)), (2.0, (0.0, 0.0, 0.3))])
    assert p.total_duration == 3.0
    np.testing.assert_allclose(p.at(0.5), [0.5, 0.0, 0.0])
    np.testing.assert_allclose(p.at(1.5), [0.0, 0.0, 0.3])
    np.testing.assert_allclose(p.at(99.0), [0.0, 0.0, 0.3])
    with pytest.raises(ValueError):
        CommandProfile([(0.0, (0.1, 0.0, 0.0))])
