import numpy as np
import pytest

from elevsim.reward import (
    DEFAULT_WEIGHTS,
    GO1_TORQUE_LIMIT,
    RewardConfig,
    compute_terms,
    phi,
    total,
)
from elevsim.pipeline import CONTROL_EVERY, SIM_RATE
from elevsim.scene import FlatRegion, SceneSpec, build_scene
from elevsim.sensorsim import Q_STAND, CommandProfile, RobotState, simulate_trajectory


def _state(**kw):
    base = dict(
        t=0.0,
        position=np.array([0.0, 0.0, 0.30]),
        quat=np.array([1.0, 0.0, 0.0, 0.0]),
        lin_vel_body=np.zeros(3),
        ang_vel_body=np.zeros(3),
        q=Q_STAND.copy(),
        dq=np.zeros(12),
        foot_contacts=np.ones(4, dtype=bool),
        foot_air_times=np.zeros(4),
        foot_touchdown_air=np.zeros(4),
    )
    base.update(kw)
    return RobotState(**base)


def _terms(state, cmd=(0, 0, 0), **kw):
    args = dict(
        action=Q_STAND.copy(),
        prev_action=Q_STAND.copy(),
        torques=np.zeros(12),
        collisions=0,
        cfg=RewardConfig(),
    )
    args.update(kw)
    return compute_terms(state, np.asarray(cmd, dtype=float), **args)


class TestPhi:
    def test_analytic_points(self):
        sigma = 0.25
        assert phi(np.zeros(2), sigma) == pytest.approx(1.0, abs=1e-12)
        assert phi(np.array([sigma, 0.0]), sigma) == pytest.approx(np.exp(-1.0), rel=1e-12)
        x = sigma * np.sqrt(2.0)
        assert phi(np.array([x, 0.0]), sigma) == pytest.approx(np.exp(-2.0), rel=1e-12)

    def test_scalar_input(self):
        assert phi(0.25) == pytest.approx(np.exp(-1.0), rel=1e-12)


class TestTerms:
    def test_perfect_tracking_contribution(self):
        # both tracking kernels at 1: weighted sum 1.0 + 0.5 = 1.5
        cmd = np.array([0.4, 0.1, 0.2])
        state = _state(
            lin_vel_body=np.array([0.4, 0.1, 0.0]),
            ang_vel_body=np.array([0.0, 0.0, 0.2]),
        )
        b = _terms(state, cmd)
        assert b.weighted["lin_vel_track"] + b.weighted["ang_vel_track"] == pytest.approx(1.5, abs=1e-12)
        assert b.total == pytest.approx(1.5, abs=1e-12)

    def test_all_raw_magnitudes_nonnegative_except_air_credit(self, rng):
        state = _state(
            lin_vel_body=rng.normal(0, 0.3, 3),
            ang_vel_body=rng.normal(0, 0.3, 3),
            q=Q_STAND + rng.normal(0, 0.1, 12),
        )
        b = _terms(state, (0.5, 0, 0), torques=rng.normal(0, 5, 12),
                   joint_accel=rng.normal(0, 10, 12))
        for name, v in b.raw.items():
            if name != "feet_air_time":
                assert v >= 0.0, name

    def test_negative_total_scaled_by_quarter(self):
        state = _state(lin_vel_body=np.array([0.0, 0.0, 2.0]))  # big v_z penalty
        b = _terms(state, (0, 0, 0))
        assert b.pre_scale_sum < 0
        assert b.total == pytest.approx(0.25 * b.pre_scale_sum, rel=1e-12)
        assert total(b, RewardConfig()) == b.total

    def test_scaling_branch_boundary_exact_at_zero(self):
        from elevsim.reward import RewardBreakdown

        z = RewardBreakdown(raw={}, weighted={}, pre_scale_sum=0.0, total=0.0)
        assert total(z, RewardConfig()) == 0.0
        eps = RewardBreakdown(raw={}, weighted={}, pre_scale_sum=-1e-300, total=0.0)
        assert total(eps, RewardConfig()) == 0.25 * -1e-300

    def test_air_time_credit_at_touchdown_only(self):
        quiet = _terms(_state(), (0.5, 0, 0))
        assert quiet.raw["feet_air_time"] == 0.0
        touchdown = _state(foot_touchdown_air=np.array([0.3, 0.0, 0.0, 0.3]))
        b = _terms(touchdown, (0.5, 0, 0))
        # two feet, each (0.3 - 0.25) credit
        assert b.raw["feet_air_time"] == pytest.approx(2 * (0.3 - 0.25), rel=1e-12)
        assert b.weighted["feet_air_time"] == pytest.approx(3.0 * 0.1, rel=1e-12)

    def test_torque_limit_term_uses_excess_only(self):
        tau = np.zeros(12)
        tau[0] = GO1_TORQUE_LIMIT + 2.0
        tau[1] = GO1_TORQUE_LIMIT - 1.0
        b = _terms(_state(), (0, 0, 0), torques=tau)
        assert b.raw["torque_limits"] == pytest.approx(2.0, rel=1e-12)

    def test_trunk_height_uses_terrain_reference(self):
        state = _state(position=np.array([0.0, 0.0, 0.55]))
        b = _terms(state, (0, 0, 0), terrain_height=0.2)
        assert b.raw["trunk_height"] == pytest.approx((0.55 - 0.2 - 0.30) ** 2, rel=1e-12)

    def test_gait_base_height_is_the_reward_trunk_height(self):
        # the trajectory and the reward read one nominal trunk height
        hf = build_scene(SceneSpec([FlatRegion(0.0)], extent=(8.0, 3.0)), 0.0175)
        profile = CommandProfile([(1.0, (0.5, 0.0, 0.0)), (1.0, (0.0, 0.0, 0.0))])
        traj = simulate_trajectory(profile, hf, dt=1.0 / SIM_RATE)
        for i in range(0, len(traj), CONTROL_EVERY):
            assert _terms(traj.state(i)).raw["trunk_height"] == 0.0, traj.t[i]

    def test_action_rate_term(self):
        b = _terms(_state(), (0, 0, 0), action=Q_STAND + 0.1, prev_action=Q_STAND)
        assert b.raw["action_rate"] == pytest.approx(12 * 0.01, rel=1e-12)

    def test_collision_penalty_weighted(self):
        b = _terms(_state(), (0, 0, 0), collisions=2)
        assert b.weighted["collisions"] == pytest.approx(-2.0, rel=1e-12)

    def test_weight_table_complete(self):
        b = _terms(_state(), (0, 0, 0))
        assert set(b.raw) == set(DEFAULT_WEIGHTS)
        assert set(b.weighted) == set(DEFAULT_WEIGHTS)


class TestConfig:
    def test_invalid_sigma_rejected(self):
        with pytest.raises(ValueError):
            RewardConfig(tracking_sigma=0.0)

    def test_invalid_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            RewardConfig(negative_scale=0.0)
