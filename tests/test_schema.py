"""The config schema (`elevsim.schema`): each ruled field accepts exactly the
values inside its kind, and rejects every other one with a ValueError that
names it; the configs are frozen; and short whole runs from schema-drawn
configs finish untruncated with finite metrics.

`RULED` is this module's own copy of the schema: each ruled field with the
kind text its errors use, and every ruled class in the package must be in it.
The drawn values come from each field's metadata (its interval's bounds and
their neighbours), and whether a value must be accepted comes from `INSIDE`
and `RELATED`, written here without the schema's code.
"""

import gc
import importlib
import math
import pkgutil
import re
from dataclasses import FrozenInstanceError, dataclass, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elevsim
from elevsim.elevmap import SensorVarianceModel
from elevsim.obsbuilder import HeightNoiseState
from elevsim.odometry import EstimatorErrors, ImuErrors, SourceErrorModel, VioErrors
from elevsim.pipeline import ScenarioConfig, run_scenario
from elevsim.reward import DEFAULT_WEIGHTS, RewardConfig
from elevsim.scene import PRIMITIVE_TYPES, FlatRegion, Platform, SceneSpec, Step, obstacle_scene
from elevsim.schema import BOOL, COUNT, PAIRS, POSITIVE, Validated, rule
from elevsim.sensorsim import CameraModel, CommandProfile, SensorNoise, default_front_camera

SHORT = {"scene": "obstacle", "command": [[2.0, [0.5, 0.0, 0.0]]]}
BASE = ScenarioConfig.from_dict(SHORT)

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
    (SensorNoise, "sigma0", "non-negative and finite", None, False),
    (SensorNoise, "k", "non-negative and finite", None, False),
    (SensorNoise, "dropout", "in [0, 1)", None, False),
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
    (VioErrors, "dropouts", "finite", PAIRS, False),
    (FlatRegion, "z", "finite", None, False),
    (Step, "x_start", "finite", None, False),
    (Step, "height", "finite", None, False),
    (Step, "depth", "positive and finite", None, False),
    (Platform, "x_start", "finite", None, False),
    (Platform, "rise_steps", "positive and finite", PAIRS, False),
    (Platform, "platform_height", "positive and finite", None, False),
    (Platform, "platform_length", "positive and finite", None, False),
    (Platform, "ramp_slope", "positive and finite", None, False),
    (SceneSpec, "extent", "positive and finite", 2, False),
]
# the hand-written rules that relate the entries of one ruled field
RELATED = {(VioErrors, "dropouts"): lambda pairs: all(float(a) < float(b) for a, b in pairs)}
FROZEN = [ScenarioConfig, CameraModel, SensorNoise, CommandProfile, SceneSpec, FlatRegion, Step,
          Platform, EstimatorErrors, ImuErrors, VioErrors, SourceErrorModel, RewardConfig,
          SensorVarianceModel]


STEP = {"type": "step", "x_start": 3.0, "height": 0.1, "depth": 0.8}
PLATFORM = {"type": "platform", "x_start": 5.0, "rise_steps": [[0.1, 0.3]], "platform_height": 0.3,
            "platform_length": 1.0, "ramp_slope": 0.3}


def _scene(*primitives) -> dict:
    return {"scene": {"extent": [8.0, 3.0], "primitives": list(primitives)}}


# every config section that `ScenarioConfig.from_dict` reads, with its full
# key path and the config keys that put a section's values there
SECTION_PATHS = [
    (SensorNoise, "sensor_noise", lambda s: {"sensor_noise": s}),
    (EstimatorErrors, "source_errors.estimator", lambda s: {"source_errors": {"estimator": s}}),
    (ImuErrors, "source_errors.imu", lambda s: {"source_errors": {"imu": s}}),
    (VioErrors, "source_errors.vio", lambda s: {"source_errors": {"vio": s}}),
    (HeightNoiseState, "height_noise", lambda s: {"height_noise": s}),
    (SceneSpec, "scene", lambda s: {"scene": {"extent": [8.0, 3.0], **s}}),
    (FlatRegion, "scene.primitives[0]", lambda s: _scene({"type": "flat", **s})),
    (Step, "scene.primitives[1]", lambda s: _scene({"type": "flat"}, {**STEP, **s})),
    (Platform, "scene.primitives[2]", lambda s: _scene({"type": "flat"}, STEP, {**PLATFORM, **s})),
]
# each ruled field of those sections, but the noise state's `bias`, which is
# not a `height_noise` key
PATH_CASES = [
    (path, place, name, shape)
    for cls, path, place in SECTION_PATHS
    for ruled, name, _, shape, _ in RULED
    if ruled is cls and (ruled, name) != (HeightNoiseState, "bias")
]


def _base(cls):
    """A valid instance to replace one field of; frozen ones are shared. The
    scene is flat only, so that it is valid at every extent: a primitive off
    the terrain is an error."""
    made = {ScenarioConfig: BASE, CameraModel: default_front_camera(),
            SceneSpec: SceneSpec([FlatRegion()], extent=(8.0, 3.0)),
            CommandProfile: BASE.profile, SourceErrorModel: BASE.source_errors,
            Step: Step(x_start=3.0, height=0.1, depth=0.8), Platform: obstacle_scene().primitives[1]}
    return made[cls] if cls in made else cls()


def _accepted(text: str, shape, value) -> bool:
    """Whether the schema must accept `value`: the kind's test on the value
    coerced as the schema says (float, a float per vector entry, or a list of
    two-entry lists of them)."""
    if text == BOOL.text:
        return isinstance(value, bool)
    if text == COUNT.text:
        return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0
    if shape is dict:
        return all(_accepted(text, None, v) for v in value.values())
    if shape is PAIRS:
        sequence = (list, tuple)
        return isinstance(value, sequence) and all(
            isinstance(p, sequence) and len(p) == 2 and all(_accepted(text, None, v) for v in p)
            for p in value
        )
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
    if shape is PAIRS:
        pairs = st.lists(st.lists(number, min_size=2, max_size=2), max_size=3)
        ragged = st.lists(st.lists(number, max_size=3), max_size=2)
        return st.one_of(pairs, ragged, st.lists(number, max_size=4), number)
    if shape is not None:
        return st.one_of(st.lists(number, min_size=shape, max_size=shape),
                         st.lists(number, max_size=shape + 1))
    return st.one_of(number, st.sampled_from(["0.5", "nan", "x", "", None, [0.5]]))


def _rules(cls) -> dict:
    return {f.name: f.metadata["rule"] for f in fields(cls) if "rule" in f.metadata}


def _ruled_classes() -> list[type]:
    """Every dataclass in the package that subclasses `Validated`, at any
    depth, and has a ruled field with a kind."""
    for module in pkgutil.iter_modules(elevsim.__path__):
        importlib.import_module(f"elevsim.{module.name}")
    found, todo = [], list(Validated.__subclasses__())
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        ruled = is_dataclass(cls) and any(kind for kind, *_ in _rules(cls).values())
        if ruled and cls.__module__.startswith("elevsim."):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def _off_the_table(classes: list[type]) -> list[str]:
    """The classes whose ruled fields differ from their rows in `RULED`."""
    off = []
    for cls in classes:
        declared = {
            name: (kind.text, shape, optional)
            for name, (kind, shape, _, optional) in _rules(cls).items()
            if kind is not None
        }
        if declared != {row[1]: row[2:] for row in RULED if row[0] is cls}:
            off.append(cls.__name__)
    return off


def test_every_ruled_field_is_in_the_table():
    classes = _ruled_classes()
    assert {row[0] for row in RULED} <= set(classes)
    assert _off_the_table(classes) == []


def test_table_check_finds_a_ruled_class_left_out():
    @dataclass(frozen=True)
    class Planted(Validated):
        gain: float = rule(POSITIVE, default=1.0)

    Planted.__module__ = "elevsim.planted"
    try:
        assert _off_the_table(_ruled_classes()) == ["Planted"]
    finally:
        del Planted
        gc.collect()
    assert _off_the_table(_ruled_classes()) == []


def _constructs_or_names_the_key(cls, name: str, text: str, shape, optional: bool, value):
    """Replacing the field with `value` succeeds, storing a float inside the
    kind (pairs as a tuple of float pairs), exactly when the value belongs to
    it and keeps the field's related rule; else the error names the key."""
    related = RELATED.get((cls, name), lambda value: True)
    accepted = value is not None and _accepted(text, shape, value) and related(value)
    if (value is None and optional) or accepted:
        stored = getattr(replace(_base(cls), **{name: value}), name)
        if shape is PAIRS:
            assert type(stored) is tuple and all(type(p) is tuple and len(p) == 2 for p in stored)
        if value is not None and text not in (BOOL.text, COUNT.text):
            entries = stored.values() if shape is dict else np.ravel(stored)
            assert all(type(v) in (float, np.float64) and INSIDE[text](v) for v in entries)
    else:
        with pytest.raises(ValueError, match=re.escape(name)):
            replace(_base(cls), **{name: value})


FIELD_IDS = [f"{r[0].__name__}.{r[1]}" for r in RULED]


@pytest.mark.parametrize("cls, name, text, shape, optional", RULED, ids=FIELD_IDS)
def test_field_edges(cls, name, text, shape, optional):
    # each edge alone, in the first entry of the field's valid default, or in
    # either place of a pair
    kind, *_ = _rules(cls)[name]
    default = getattr(_base(cls), name)
    for edge in _edges(kind):
        if shape is dict:
            values = [{**default, "collisions": edge}]
        elif shape is PAIRS:
            values = [[[edge, 1.0]], [[1.0, edge]]]
        elif shape is not None:
            values = [[edge, *np.ravel(default)[1:]]]
        else:
            values = [edge]
        for value in values:
            _constructs_or_names_the_key(cls, name, text, shape, optional, value)


@pytest.mark.parametrize("cls, name, text, shape, optional", RULED, ids=FIELD_IDS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_field_fuzz(cls, name, text, shape, optional, data):
    kind, *_ = _rules(cls)[name]
    value = data.draw(_values(kind, shape), label=name)
    _constructs_or_names_the_key(cls, name, text, shape, optional, value)


def _reachable(cls) -> list[type]:
    """The sections that `cls`'s default factories build, and theirs."""
    made = [f.default_factory for f in fields(cls) if is_dataclass(f.default_factory)]
    return [c for sub in made for c in (sub, *_reachable(sub))]


def test_section_paths_cover_every_ruled_section():
    reachable = {*_reachable(ScenarioConfig), SceneSpec, *PRIMITIVE_TYPES.values()}
    reachable.add(HeightNoiseState)  # the height_noise section, validated and discarded
    ruled = {cls for cls in reachable if any(row[0] is cls for row in RULED)}
    assert ruled == {cls for cls, _, _ in SECTION_PATHS}


@pytest.mark.parametrize("path, place, name, shape", PATH_CASES,
                         ids=[f"{case[0]}.{case[2]}" for case in PATH_CASES])
def test_section_errors_start_with_the_full_key_path(path, place, name, shape):
    # NaN is outside every kind of these sections
    bad = math.nan if shape is None else [[math.nan, 1.0]] if shape is PAIRS else [math.nan] * shape
    with pytest.raises(ValueError) as err:
        ScenarioConfig.from_dict({**SHORT, **place({name: bad})})
    assert str(err.value).startswith(f"{path}.{name} must be "), err.value


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
