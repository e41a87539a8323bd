import numpy as np
import pytest

from elevsim.geometry import Pose, quat_conj, quat_from_euler, quat_rotate, rotz
from elevsim.scene import FlatRegion, SceneSpec, build_scene, obstacle_scene
from elevsim.sensorsim import (
    HIP_OFFSETS,
    CameraModel,
    CommandProfile,
    GaitParams,
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
    return simulate_trajectory(profile, hf, dt=1.0 / 300, gait=GaitParams(), **kw)


def _reference_trajectory(profile, hf, dt, gait, start_xy, start_yaw):
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
        z = float(foot_h.mean()) + gait.trunk_height
        target = -np.arctan2(foot_h[:2].mean() - foot_h[2:].mean(), 2 * abs(HIP_OFFSETS[0, 0]))
        pitch += min(1.0, dt / gait.pitch_tau) * (target - pitch)
        quat = quat_from_euler(0.0, pitch, yaw)
        v_world = quat_rotate(quat, np.array([cmd[0], cmd[1], 0.0]))
        if prev_z is not None:
            v_world[2] = (z - prev_z) / dt
        moving = bool(np.linalg.norm(cmd) > 1e-9)
        phase = (2 * np.pi * gait.frequency * t + np.array([0, np.pi, np.pi, 0])) % (2 * np.pi)
        contact = phase / (2 * np.pi) < gait.duty if moving else np.ones(4, dtype=bool)
        touchdown_air = np.where(contact & ~prev_contact, air, 0.0)
        air = np.where(contact, 0.0, air + dt)
        q, dq = gait.q_default.copy(), np.zeros(12)
        if moving:
            s = np.pi * np.clip((phase / (2 * np.pi) - gait.duty) / (1 - gait.duty), 0.0, 1.0)
            swing = np.where(contact, 0.0, np.sin(s))
            dswing = np.where(contact, 0.0, np.pi * np.cos(s) * gait.frequency / (1 - gait.duty))
            q[1::3] -= gait.swing_amplitude * swing
            q[2::3] += gait.swing_amplitude * swing
            dq[1::3] = -gait.swing_amplitude * dswing
            dq[2::3] = -dq[1::3]
        v_body = quat_rotate(quat_conj(quat), v_world)
        w_body = np.array([0.0, 0.0, cmd[2]])
        rows.append((t, [xy[0], xy[1], z], quat, v_body, w_body, q, dq, contact, air, touchdown_air))
        prev_contact, prev_z = contact, z
        xy = xy + rotz(yaw)[:2, :2] @ np.array([cmd[0], cmd[1]]) * dt
        yaw += cmd[2] * dt
    return [np.array(col) for col in zip(*rows)], truncated


class TestTrajectory:
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
        gait = GaitParams()
        traj = simulate_trajectory(
            profile, hf, 1.0 / 300, gait, start_xy=start_xy, start_yaw=start_yaw
        )
        columns, truncated = _reference_trajectory(
            profile, hf, 1.0 / 300, gait, start_xy, start_yaw
        )
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
        assert traj.pos[:, 2] == pytest.approx(GaitParams().trunk_height)

    def test_turn_in_place_integrates_yaw(self, flat_hf):
        traj = _run(CommandProfile.constant((0.0, 0.0, 0.5), 2.0), flat_hf)
        assert traj.state(-1).pose.yaw == pytest.approx(1.0, abs=0.01)
        assert np.allclose(traj.pos[-1, :2], traj.pos[0, :2])

    def test_walking_off_the_map_truncates(self, flat_hf):
        traj = _run(CommandProfile.constant((1.0, 0.0, 0.0), 30.0), flat_hf)
        assert traj.truncated
        assert traj.t[-1] < 30.0

    def test_base_climbs_obstacle(self, obstacle_hf):
        traj = _run(CommandProfile.constant((0.5, 0.0, 0.0), 9.0), obstacle_hf)
        assert traj.pos[:, 2].max() == pytest.approx(0.30 + GaitParams().trunk_height, abs=0.02)

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
        gait = GaitParams()
        traj = _run(CommandProfile.constant((0.5, 0.0, 0.0), 2.0), flat_hf)
        swing_time = (1.0 - gait.duty) / gait.frequency
        credits = traj.touchdown_air
        nonzero = credits[credits > 0]
        # every credit equals the swing duration (one sim tick of slack)
        assert np.allclose(nonzero, swing_time, atol=2.0 / 300)
        # per foot: one credit per completed stride
        per_foot = (credits > 0).sum(axis=0)
        assert (per_foot >= 3).all() and (per_foot <= 5).all()

    def test_stride_interval_sum(self, flat_hf):
        # contact + air intervals over one stride add up to the stride duration
        gait = GaitParams()
        traj = _run(CommandProfile.constant((0.5, 0.0, 0.0), 1.0), flat_hf)
        dt = 1.0 / 300
        contact0 = traj.contacts[:, 0]
        stride_ticks = int(round(1.0 / gait.frequency / dt))
        one_stride = contact0[:stride_ticks]
        assert abs(one_stride.sum() * dt + (~one_stride).sum() * dt - 1.0 / gait.frequency) <= dt


class TestRenderDepth:
    def test_points_lie_on_terrain_flat(self, flat_hf, short_trajectory):
        cam = default_front_camera()
        st = short_trajectory.state(0)
        cloud = render_depth(cam, st, flat_hf)
        assert len(cloud) > 0
        world = cloud.transformed(st.pose.compose(cam.mount))
        np.testing.assert_allclose(world.points[:, 2], 0.0, atol=1e-6)

    def test_ranges_within_camera_limits(self, flat_hf, short_trajectory):
        cam = default_front_camera()
        cloud = render_depth(cam, short_trajectory.state(0), flat_hf)
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
        cloud = render_depth(cam, st, obstacle_hf)
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
                try:
                    h = obstacle_hf.height_at(p[0], p[1])
                except Exception:
                    continue
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

    def test_camera_below_terrain_returns_empty(self, obstacle_hf):
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
        cloud = render_depth(default_front_camera(), st, obstacle_hf)
        assert len(cloud) == 0


class TestSensorNoise:
    def test_noiseless_camera_returns_cloud_unchanged(self, flat_hf, short_trajectory, rng):
        cam = default_front_camera()
        cloud = render_depth(cam, short_trajectory.state(0), flat_hf)
        out = inject_sensor_noise(cloud, cam, rng)
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_range_noise_perturbs_along_rays(self, flat_hf, short_trajectory):
        from dataclasses import replace

        cam = replace(default_front_camera(), noise_sigma0=0.01)
        cloud = render_depth(cam, short_trajectory.state(0), flat_hf)
        out = inject_sensor_noise(cloud, cam, np.random.default_rng(0))
        assert len(out) == len(cloud)
        dr = np.linalg.norm(out.points, axis=1) - np.linalg.norm(cloud.points, axis=1)
        assert 0.005 < dr.std() < 0.02
        # direction preserved
        unit_in = cloud.points / np.linalg.norm(cloud.points, axis=1, keepdims=True)
        unit_out = out.points / np.linalg.norm(out.points, axis=1, keepdims=True)
        np.testing.assert_allclose(unit_in, unit_out, atol=1e-9)

    def test_dropout_removes_expected_fraction(self, flat_hf, short_trajectory):
        from dataclasses import replace

        cam = replace(default_front_camera(), dropout=0.3)
        cloud = render_depth(cam, short_trajectory.state(0), flat_hf)
        out = inject_sensor_noise(cloud, cam, np.random.default_rng(0))
        frac = 1.0 - len(out) / len(cloud)
        assert 0.15 < frac < 0.45

    def test_noise_deterministic_per_seed(self, flat_hf, short_trajectory):
        from dataclasses import replace

        cam = replace(default_front_camera(), noise_sigma0=0.01, dropout=0.1)
        cloud = render_depth(cam, short_trajectory.state(0), flat_hf)
        a = inject_sensor_noise(cloud, cam, np.random.default_rng(42))
        b = inject_sensor_noise(cloud, cam, np.random.default_rng(42))
        np.testing.assert_array_equal(a.points, b.points)


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


def test_ray_directions_unit_and_counted():
    for cam in (default_front_camera(), default_rear_camera()):
        dirs = cam.ray_directions()
        assert dirs.shape == (cam.width * cam.height, 3)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        assert (dirs[:, 0] > 0).all()  # sensor x is forward


def test_command_profile_segments():
    p = CommandProfile([(1.0, (0.5, 0.0, 0.0)), (2.0, (0.0, 0.0, 0.3))])
    assert p.total_duration == 3.0
    np.testing.assert_allclose(p.at(0.5), [0.5, 0.0, 0.0])
    np.testing.assert_allclose(p.at(1.5), [0.0, 0.0, 0.3])
    np.testing.assert_allclose(p.at(99.0), [0.0, 0.0, 0.3])
    with pytest.raises(ValueError):
        CommandProfile([(0.0, (0.1, 0.0, 0.0))])
