"""The config schema (`elevsim.schema`): each ruled field accepts exactly the
values inside its kind, and rejects every other one with a ValueError that
names it; the configs are frozen; and short whole runs from schema-drawn
configs finish untruncated with finite metrics.

`RULED` is this module's own copy of the schema: each ruled field with the
kind text its errors use. The drawn values come from each field's metadata
(its interval's bounds and their neighbours), and whether a value must be
accepted comes from `INSIDE`, written here without the schema's code.
"""

import math
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elevsim.elevmap import SensorVarianceModel
from elevsim.obsbuilder import HeightNoiseState
from elevsim.odometry import EstimatorErrors, ImuErrors, SourceErrorModel, VioErrors
from elevsim.pipeline import ScenarioConfig, run_scenario
from elevsim.reward import DEFAULT_WEIGHTS, RewardConfig
from elevsim.scene import SceneSpec
from elevsim.schema import BOOL, COUNT
from elevsim.sensorsim import CameraModel, CommandProfile

BASE = ScenarioConfig.from_dict({"scene": "obstacle", "command": [[2.0, [0.5, 0.0, 0.0]]]})

# whether a float lies inside a kind, by its text
INSIDE = {
    "finite": math.isfinite,
    "non-negative and finite": lambda x: 0 <= x < math.inf,
    "positive and finite": lambda x: 0 < x < math.inf,
    "in [0, 1)": lambda x: 0 <= x < 1,
    "in (0, pi)": lambda x: 0 < x < math.pi,
    "in (0, 5.0] m": lambda x: 0 < x <= 5.0,
    "in (0, 1]": lambda x: 0 < x <= 1,
}

# (class, field, kind text, shape, optional) for every ruled field that has a kind
RULED = [
    (ScenarioConfig, "seed", COUNT.text, None, False),
    (ScenarioConfig, "use_rear_camera", BOOL.text, None, False),
    (ScenarioConfig, "drift_compensation", BOOL.text, None, False),
    (ScenarioConfig, "injected_drift", "finite", 3, False),
    (ScenarioConfig, "map_resolution", "in (0, 5.0] m", None, False),
    (ScenarioConfig, "start_yaw", "finite", None, False),
    (ScenarioConfig, "snapshot_every", "positive and finite", None, True),
    (CameraModel, "h_fov", "in (0, pi)", None, False),
    (CameraModel, "v_fov", "in (0, pi)", None, False),
    (CameraModel, "noise_sigma0", "non-negative and finite", None, False),
    (CameraModel, "noise_k", "non-negative and finite", None, False),
    (CameraModel, "dropout", "in [0, 1)", None, False),
    (EstimatorErrors, "vel_sigma", "non-negative and finite", 3, False),
    (EstimatorErrors, "bias", "finite", 3, False),
    (ImuErrors, "orient_sigma", "non-negative and finite", None, False),
    (VioErrors, "walk_rate", "non-negative and finite", None, False),
    (VioErrors, "sample_sigma", "non-negative and finite", None, False),
    (SensorVarianceModel, "base_variance", "positive and finite", None, False),
    (SensorVarianceModel, "range_coeff", "non-negative and finite", None, False),
    (SensorVarianceModel, "time_variance_rate", "non-negative and finite", None, False),
    (RewardConfig, "weights", "finite", dict, False),
    (RewardConfig, "tracking_sigma", "positive and finite", None, False),
    (RewardConfig, "air_time_target", "finite", None, False),
    (RewardConfig, "negative_scale", "in (0, 1]", None, False),
    (RewardConfig, "tau_limit", "finite", None, False),
    (HeightNoiseState, "sample_sigma", "non-negative and finite", None, False),
    (HeightNoiseState, "bias_sigma", "non-negative and finite", 3, False),
    (HeightNoiseState, "bias", "finite", 3, False),
]
CONFIGS = sorted({row[0] for row in RULED}, key=lambda cls: cls.__name__)
FROZEN = [ScenarioConfig, CameraModel, CommandProfile, SceneSpec, EstimatorErrors,
          ImuErrors, VioErrors, SourceErrorModel, RewardConfig, SensorVarianceModel]


def _base(cls):
    """A valid instance to replace one field of; frozen ones are shared."""
    made = {ScenarioConfig: BASE, CameraModel: BASE.front_camera, SceneSpec: BASE.scene_spec,
            CommandProfile: BASE.profile, SourceErrorModel: BASE.source_errors}
    return made[cls] if cls in made else cls()


def _accepted(text: str, shape, value) -> bool:
    """Whether the schema must accept `value`: the kind's test on the value
    coerced as the schema says (float, or a float per vector entry)."""
    if text == BOOL.text:
        return isinstance(value, bool)
    if text == COUNT.text:
        return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0
    if shape is dict:
        return all(_accepted(text, None, v) for v in value.values())
    if shape is not None:
        return len(value) == shape and all(_accepted(text, None, v) for v in value)
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return INSIDE[text](x)


def _edges(kind) -> list:
    """The values at the edge of a field's kind, from its metadata: the
    interval's bounds and their neighbours, NaN, the infinities, both zeros,
    bools; for the exact kinds, the near misses."""
    if kind is BOOL or kind is COUNT:
        return [True, False, 0, 1, -1, np.int64(4), np.int64(-1), np.True_, 1.0, "true", None]
    return [kind.lo, kind.hi, math.nextafter(kind.lo, -math.inf),
            math.nextafter(kind.hi, -math.inf), math.nan, math.inf, -math.inf, 0.0, -0.0, True]


def _values(kind, shape) -> st.SearchStrategy:
    """Values inside and outside a field's kind: its edges, any float or
    int, strings, and vectors of the wrong length."""
    edges = st.sampled_from(_edges(kind))
    if kind is BOOL or kind is COUNT:
        return st.one_of(edges, st.integers(-3, 2**40), st.floats(allow_nan=True))
    number = st.one_of(edges, st.floats(allow_nan=True, allow_infinity=True),
                       st.integers(-(2**1100), 2**1100))
    if shape is dict:
        return st.dictionaries(st.sampled_from(sorted(DEFAULT_WEIGHTS)), number, max_size=4)
    if shape is not None:
        return st.one_of(st.lists(number, min_size=shape, max_size=shape),
                         st.lists(number, max_size=shape + 1))
    return st.one_of(number, st.sampled_from(["0.5", "nan", "x", "", None, [0.5]]))


def _rules(cls) -> dict:
    return {f.name: f.metadata["rule"] for f in fields(cls) if "rule" in f.metadata}


def test_every_ruled_field_is_in_the_table():
    for cls in CONFIGS:
        declared = {
            name: (kind.text, shape, optional)
            for name, (kind, shape, _, optional) in _rules(cls).items()
            if kind is not None
        }
        expected = {row[1]: row[2:] for row in RULED if row[0] is cls}
        assert declared == expected, cls.__name__


def _constructs_or_names_the_key(cls, name: str, text: str, shape, optional: bool, value):
    """Replacing the field with `value` succeeds, storing a float inside the
    kind, exactly when the value belongs to it; else the error names the key."""
    if (value is None and optional) or (value is not None and _accepted(text, shape, value)):
        stored = getattr(replace(_base(cls), **{name: value}), name)
        if value is not None and text not in (BOOL.text, COUNT.text):
            entries = stored.values() if shape is dict else np.ravel(stored)
            assert all(type(v) in (float, np.float64) and INSIDE[text](v) for v in entries)
    else:
        with pytest.raises(ValueError, match=re.escape(name)):
            replace(_base(cls), **{name: value})


FIELD_IDS = [f"{r[0].__name__}.{r[1]}" for r in RULED]


@pytest.mark.parametrize("cls, name, text, shape, optional", RULED, ids=FIELD_IDS)
def test_field_edges(cls, name, text, shape, optional):
    # each edge alone, or in the first entry of the field's valid default
    kind, *_ = _rules(cls)[name]
    default = getattr(_base(cls), name)
    for edge in _edges(kind):
        if shape is dict:
            value = {**default, "collisions": edge}
        elif shape is not None:
            value = [edge, *np.ravel(default)[1:]]
        else:
            value = edge
        _constructs_or_names_the_key(cls, name, text, shape, optional, value)


@pytest.mark.parametrize("cls, name, text, shape, optional", RULED, ids=FIELD_IDS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_field_fuzz(cls, name, text, shape, optional, data):
    kind, *_ = _rules(cls)[name]
    value = data.draw(_values(kind, shape), label=name)
    _constructs_or_names_the_key(cls, name, text, shape, optional, value)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_config_fields_cannot_be_assigned(cls):
    obj = _base(cls)
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))


def test_height_noise_state_stays_mutable():
    state = HeightNoiseState()
    state.bias = np.ones(3)
    state.last_resample = 1.0


def _within(kind_text: str, lo: float, hi: float) -> st.SearchStrategy:
    """Floats in [lo, hi], each inside the kind: workload magnitudes."""
    return st.floats(lo, hi).filter(INSIDE[kind_text])


@st.composite
def _short_runs(draw) -> dict:
    """A 1 s config whose ruled values are drawn inside their kinds, at the
    benchmark workloads' magnitudes."""
    vec = st.lists(_within("finite", -0.01, 0.01), min_size=3, max_size=3)
    sigmas = st.lists(_within("non-negative and finite", 0.0, 0.03), min_size=3, max_size=3)
    return {
        "scene": "obstacle",
        "command": [[1.0, [draw(st.floats(0.2, 0.6)), 0.0, draw(st.floats(-0.3, 0.3))]]],
        "odometry": draw(st.sampled_from(["gt", "ekf-vio", "ekf-novio"])),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "use_rear_camera": draw(st.booleans()),
        "drift_compensation": draw(st.booleans()),
        "injected_drift": draw(vec),
        "map_resolution": draw(st.sampled_from([0.0125, 0.025, 0.05])),
        "start_yaw": draw(_within("finite", -0.3, 0.3)),
        "sensor_noise": {
            "sigma0": draw(_within("non-negative and finite", 0.0, 0.005)),
            "k": draw(_within("non-negative and finite", 0.0, 0.01)),
            "dropout": draw(_within("in [0, 1)", 0.0, 0.05)),
        },
        "source_errors": {
            "estimator": {"vel_sigma": draw(sigmas), "bias": draw(vec)},
            "imu": {"orient_sigma": draw(_within("non-negative and finite", 0.0, 0.005))},
            "vio": {"walk_rate": draw(_within("non-negative and finite", 0.0, 0.01)),
                    "sample_sigma": draw(_within("non-negative and finite", 0.0, 0.02))},
        },
    }


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(config=_short_runs())
def test_short_runs_from_drawn_configs_finish(config):
    metrics = run_scenario(ScenarioConfig.from_dict(config)).metrics
    assert metrics["truncated"] == 0
    assert all(math.isfinite(v) for v in metrics.values()), metrics
