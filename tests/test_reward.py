from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elevsim import reward
from elevsim.reward import (
    DEFAULT_WEIGHTS,
    GO1_TORQUE_LIMIT,
    RewardConfig,
    compute_terms,
    phi,
    total,
)
from elevsim.pipeline import CONTROL_EVERY, SIM_RATE, ScenarioConfig, _reward_mean, run_scenario
from elevsim.scene import FlatRegion, SceneSpec, build_scene
from elevsim.sensorsim import (
    Q_STAND,
    TRUNK_HEIGHT,
    CommandProfile,
    RobotState,
    Trajectory,
    simulate_trajectory,
)


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

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            # NaN passed the `<= 0` test; the target and the limit were not checked
            ({"tracking_sigma": float("nan")}, "tracking_sigma"),
            ({"tracking_sigma": float("inf")}, "tracking_sigma"),
            ({"air_time_target": float("nan")}, "air_time_target"),
            ({"air_time_target": float("-inf")}, "air_time_target"),
            ({"negative_scale": float("nan")}, "negative_scale"),
            ({"tau_limit": float("inf")}, "tau_limit"),
            ({"tau_limit": float("nan")}, "tau_limit"),
            ({"weights": {**DEFAULT_WEIGHTS, "collisions": float("nan")}}, "collisions"),
            ({"weights": {**DEFAULT_WEIGHTS, "lin_vel_track": float("-inf")}}, "lin_vel_track"),
        ],
    )
    def test_non_finite_field_rejected(self, kwargs, key):
        with pytest.raises(ValueError, match=f"{key}.*must be finite"):
            RewardConfig(**kwargs)

    def test_sign_rules_name_the_field(self):
        with pytest.raises(ValueError, match="tracking_sigma must be positive"):
            RewardConfig(tracking_sigma=-0.25)
        with pytest.raises(ValueError, match="negative_scale must be in"):
            RewardConfig(negative_scale=1.5)


def _one_tick_terms(state, cmd, action, prev_action, torques, collisions, cfg,
                    joint_accel=None, terrain_height=0.0):
    """The one-tick reward as it was computed before `compute_terms` took a
    stack, on Python floats and numpy scalars: the oracle of every row.
    Returns the raw terms, the pre-scale sum and the total."""
    qdd = np.zeros(12) if joint_accel is None else np.asarray(joint_accel).reshape(12)
    v, w, td = state.lin_vel_body, state.ang_vel_body, state.foot_touchdown_air

    def phi_one(x):
        x = np.atleast_1d(x)
        return float(np.exp(-(x @ x) / cfg.tracking_sigma**2))

    raw = {
        "lin_vel_track": phi_one(cmd[:2] - v[:2]),
        "ang_vel_track": phi_one(cmd[2] - w[2]),
        "feet_air_time": float(np.sum((td[td > 0] - cfg.air_time_target))),
        "lin_vel_z": float(v[2] ** 2),
        "ang_vel_xy": float(w[0] ** 2 + w[1] ** 2),
        "joint_position": float(np.sum((state.q - Q_STAND) ** 2)),
        "joint_acceleration": float(qdd @ qdd),
        "joint_torques": float(torques @ torques),
        "action_rate": float(np.sum((action - prev_action) ** 2)),
        "collisions": float(collisions),
        "trunk_height": float((state.position[2] - terrain_height - TRUNK_HEIGHT) ** 2),
        "torque_limits": float(np.sum(np.maximum(0.0, np.abs(torques) - cfg.tau_limit))),
    }
    pre = float(sum(cfg.weights[name] * val for name, val in raw.items()))
    return raw, pre, pre if pre >= 0 else cfg.negative_scale * pre


def _loop_reward_mean(cfg, traj, hf) -> float:
    """`pipeline._reward_mean` as a loop of one-tick calls: the oracle of
    the stacked call."""
    rcfg = RewardConfig()
    ticks = np.arange(0, len(traj), CONTROL_EVERY)
    terrain = hf.heights_at(traj.pos[ticks, :2], fill=0.0)
    commands = cfg.profile.at(traj.t[ticks])
    prev_q, prev_dq = Q_STAND, np.zeros(12)
    totals = []
    for i, terrain_h, cmd in zip(ticks, terrain, commands):
        st = traj.state(i)
        qdd = (st.dq - prev_dq) / (CONTROL_EVERY / SIM_RATE)
        b = compute_terms(st, cmd, st.q, prev_q, np.zeros(12), 0, rcfg,
                          joint_accel=qdd, terrain_height=float(terrain_h))
        totals.append(b.total)
        prev_q, prev_dq = st.q, st.dq
    return float(np.mean(totals))


def _row(stack: RobotState, k: int) -> RobotState:
    return RobotState(*(getattr(stack, f.name)[k] for f in fields(RobotState)))


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
TERMS = list(DEFAULT_WEIGHTS)


@st.composite
def reward_stacks(draw):
    """A stack of 1 to 12 ticks and a config. Rows are moving, standing (all
    feet down, no velocity, the standing pose) or touching down (1 to 4
    feet, one of them at exactly the air-time target, so its credit is 0);
    some torques pass the limit; a config's weights are the defaults, or
    with some terms weighted 0 or drawn, so that pre-scale sums fall below,
    at and above 0."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = rng.choice(["moving", "standing", "touchdown"], n)
    v, w = rng.normal(0, 0.5, (n, 3)), rng.normal(0, 0.5, (n, 3))
    q = Q_STAND + rng.normal(0, 0.2, (n, 12))
    td = np.zeros((n, 4))
    for k in np.flatnonzero(kinds == "standing"):
        v[k], w[k], q[k] = 0.0, 0.0, Q_STAND
    for k in np.flatnonzero(kinds == "touchdown"):
        feet = rng.choice(4, rng.integers(1, 5), replace=False)
        td[k, feet] = rng.uniform(0.0, 0.6, len(feet))
        td[k, feet[0]] = 0.25
    stack = RobotState(
        t=np.arange(n) / 50.0,
        position=np.column_stack([rng.normal(0, 1, (n, 2)), rng.uniform(0.1, 0.7, n)]),
        quat=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        lin_vel_body=v, ang_vel_body=w, q=q, dq=rng.normal(0, 1, (n, 12)),
        foot_contacts=td == 0, foot_air_times=np.zeros((n, 4)), foot_touchdown_air=td,
    )
    weights = dict(DEFAULT_WEIGHTS)
    for name in draw(st.lists(st.sampled_from(TERMS), unique=True)):
        weights[name] = draw(st.sampled_from([0.0, -1.0, 2.5]))
    args = dict(
        cmd=np.where(kinds[:, None] == "standing", 0.0, rng.normal(0, 0.5, (n, 3))),
        action=q + rng.normal(0, 0.05, (n, 12)),
        prev_action=q,
        torques=rng.normal(0, 15, (n, 12)),
        collisions=rng.integers(0, 3, n),
        cfg=RewardConfig(weights=weights),
        joint_accel=draw(st.sampled_from([None, rng.normal(0, 20, (n, 12))])),
        terrain_height=rng.uniform(-0.2, 0.3, n),
    )
    return stack, args


def _hex(x) -> str:
    return float(x).hex()


class TestStacked:
    @PROPERTY
    @given(reward_stacks())
    def test_each_row_has_the_bits_of_a_one_tick_call(self, drawn):
        stack, args = drawn
        b = compute_terms(stack, **args)
        n = len(stack.t)
        for name in TERMS:
            assert b.raw[name].shape == (n,) and b.weighted[name].shape == (n,), name
        for k in range(n):
            row_args = {key: v if v is None or isinstance(v, RewardConfig) else v[k]
                        for key, v in args.items()}
            one = compute_terms(_row(stack, k), **row_args)
            raw, pre, tot = _one_tick_terms(_row(stack, k), **row_args)
            for name in TERMS:
                assert _hex(b.raw[name][k]) == _hex(one.raw[name]) == _hex(raw[name]), name
                assert _hex(b.weighted[name][k]) == _hex(one.weighted[name]), name
            assert _hex(b.pre_scale_sum[k]) == _hex(one.pre_scale_sum) == _hex(pre)
            assert _hex(b.total[k]) == _hex(one.total) == _hex(tot)
            assert type(one.total) is float and type(one.raw["feet_air_time"]) is float

    def test_stack_spans_the_scaling_branch(self):
        # tracking weighted 0, so that standing still sums to exactly 0: a big
        # v_z penalty (below 0), standing (at 0), a touchdown's credit (above 0)
        cfg = RewardConfig(weights={**DEFAULT_WEIGHTS, "lin_vel_track": 0.0,
                                    "ang_vel_track": 0.0})
        rows = [_state(lin_vel_body=np.array([0.0, 0.0, 2.0])), _state(),
                _state(foot_touchdown_air=np.array([0.35, 0.0, 0.0, 0.35]))]
        stack = RobotState(*(np.array([getattr(r, f.name) for r in rows])
                             for f in fields(RobotState)))
        args = (np.zeros(3), Q_STAND, Q_STAND, np.zeros(12), 0, cfg)
        b = compute_terms(stack, *args)
        assert b.pre_scale_sum[0] < 0 == b.pre_scale_sum[1] < b.pre_scale_sum[2]
        assert b.total[0] == 0.25 * b.pre_scale_sum[0] and b.total[2] == b.pre_scale_sum[2]
        assert _hex(b.total[1]) == "0x0.0p+0"
        assert [_hex(t) for t in b.total] == [_hex(compute_terms(r, *args).total) for r in rows]

    def test_squares_round_as_a_floats_square(self):
        # velocities whose `** 2` as a float (libm's pow) and x * x round apart
        x = np.random.default_rng(0).normal(size=20000)
        apart = x[np.array([v**2 for v in x]) != x * x][:8]
        assert len(apart) == 8
        n = len(apart)
        vel = np.column_stack([np.zeros(n), apart, apart])
        stack = RobotState(
            np.zeros(n), np.column_stack([np.zeros((n, 2)), apart + TRUNK_HEIGHT]),
            np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), vel, vel[:, ::-1], np.tile(Q_STAND, (n, 1)),
            np.zeros((n, 12)), np.ones((n, 4), bool), np.zeros((n, 4)), np.zeros((n, 4)),
        )
        args = (np.zeros(3), Q_STAND, Q_STAND, np.zeros(12), 0, RewardConfig())
        b = compute_terms(stack, *args)
        for k in range(n):
            raw, _, _ = _one_tick_terms(_row(stack, k), *args)
            for name in ("lin_vel_z", "ang_vel_xy", "trunk_height"):
                assert _hex(b.raw[name][k]) == _hex(raw[name]), (name, k)

    @pytest.mark.parametrize(
        "command, start_xy",
        [
            ([[2.0, [0.5, 0.0, 0.0]]], (2.2, None)),  # climbs the obstacle's step
            ([[0.6, [0.0, 0.0, 0.0]], [1.2, [0.4, 0.1, 0.3]], [0.6, [0.0, 0.0, 0.0]]], (0.8, 1.4)),
        ],
    )
    def test_reward_mean_is_the_loop_of_one_tick_calls(self, obstacle_hf, command, start_xy):
        cfg = ScenarioConfig.from_dict({"command": command, "start_xy": list(start_xy)})
        traj = simulate_trajectory(cfg.profile, obstacle_hf, 1.0 / SIM_RATE, start_xy=start_xy)
        assert _reward_mean(cfg, traj, obstacle_hf).hex() == _loop_reward_mean(
            cfg, traj, obstacle_hf).hex()


def test_a_run_makes_one_reward_call_on_one_stacked_state(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(reward, "compute_terms", counted("compute_terms", reward.compute_terms))
    monkeypatch.setattr(Trajectory, "state", counted("state", Trajectory.state))
    monkeypatch.setattr(RobotState, "__init__", counted("RobotState", RobotState.__init__))
    run_scenario(ScenarioConfig.from_dict(
        {"command": [[1.0, [0.5, 0.0, 0.0]]], "use_rear_camera": False}))
    assert calls == {"compute_terms": 1, "state": 1, "RobotState": 1}
