import copy
import re
import weakref
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from elevsim import pipeline, scene
from elevsim.cli import main
from elevsim.elevmap import ElevationMap
from elevsim.geometry import Pose, rotz
from elevsim.pipeline import (
    CHAMFER_EVERY,
    CLOUD_EVERY,
    CONTROL_EVERY,
    SIM_RATE,
    ScenarioConfig,
    compare_runs,
    read_metrics_csv,
    run_scenario,
    run_step_sweep,
    write_metrics,
)
from elevsim.schema import build
from elevsim.sensorsim import HIP_OFFSETS, CommandProfile, simulate_trajectory

SHORT = {
    "scene": "obstacle",
    "command": [[3.0, [0.5, 0.0, 0.0]]],
    "seed": 0,
}


# misspelled section keys: each must be an error, not zero noise
MISSPELLED_SECTIONS = {
    "sensor_noise": {"sigma": 0.01, "drop_out": 0.5},
    "height_noise": {"sigma": 0.1},
}
HEIGHT_NOISE = {"sample_sigma": 0.005, "bias_sigma": [0.01, 0.01, 0.01]}

NAN, INF = float("nan"), float("inf")
# scalar keys whose bad values used to fail deep in the run, or to finish with
# a NaN chamfer (a 0.01 m map_size held no 0.025 m cell). scene_resolution,
# map_size, drift_gate and drift_min_points are module constants now, so a
# config that still sets one fails as an unknown key, which names it too
BAD_SCALARS = [
    ("scene_resolution", 0),
    ("scene_resolution", -0.01),
    ("scene_resolution", NAN),
    ("map_resolution", 0),
    ("map_resolution", INF),
    ("map_size", 6.0),
    ("map_size", 0.0),
    ("map_size", 0.01),
    ("map_size", NAN),
    ("start_xy", [NAN, 1.5]),
    ("start_xy", [1.0, INF]),
    ("start_yaw", NAN),
    ("drift_min_points", 0),
    ("drift_gate", -1.0),
    ("drift_gate", 0.0),
    ("drift_gate", NAN),
    ("injected_drift", [NAN, 0.0, 0.0]),
    ("injected_drift", [0.0, INF, 0.0]),
    # one cell larger than the 5 m map
    ("map_resolution", 6.0),
    # the switches take a YAML bool: a string such as "false" is truthy, so
    # it used to run the rear camera or the compensation silently
    ("use_rear_camera", "false"),
    ("use_rear_camera", 0),
    ("use_rear_camera", None),
    ("drift_compensation", "no"),
    ("drift_compensation", 2),
]

STEP = {"type": "step", "x_start": 3.0, "height": 0.1, "depth": 0.8}
PLATFORM = {
    "type": "platform",
    "x_start": 3.0,
    "rise_steps": [[0.1, 0.3], [0.1, 0.3]],
    "platform_height": 0.3,
    "platform_length": 1.0,
    "ramp_slope": 0.3,
}


def _scene(prim, extent=(8.0, 3.0)) -> dict:
    """An inline scene: flat ground plus `prim`."""
    return {"extent": list(extent), "primitives": [{"type": "flat", "z": 0.0}, prim]}


NO_SUCCESS = "unknown config keys: ['success']"
SWEEP_HEIGHTS = "sweep_step_heights must be a non-empty list of finite, non-zero heights"
TAG = "tag must be a string without a comma or line break"

# config values that used to fail only once the run had started (or, for
# the NaN step start, silently drop the step), each with the text its
# error must name
BAD_CONFIGS = {
    "extent_nan": ({"scene": _scene(STEP, extent=(8.0, NAN))}, "scene.extent must be finite"),
    "extent_inf": ({"scene": _scene(STEP, extent=(INF, 3.0))}, "scene.extent must be finite"),
    "step_height_nan": (
        {"scene": _scene({**STEP, "height": NAN})}, "scene.primitives[1].height must be finite"
    ),
    "step_x_start_nan": (
        {"scene": _scene({**STEP, "x_start": NAN})}, "scene.primitives[1].x_start must be finite"
    ),
    "flat_z_nan": (
        {"scene": {"extent": [8.0, 3.0], "primitives": [{"type": "flat", "z": NAN}]}},
        "scene.primitives[0].z must be finite",
    ),
    "rise_step_nan": (
        {"scene": _scene({**PLATFORM, "rise_steps": [[0.1, NAN]]})},
        "scene.primitives[1].rise_steps must be finite",
    ),
    "ramp_slope_inf": (
        {"scene": _scene({**PLATFORM, "ramp_slope": INF})},
        "scene.primitives[1].ramp_slope must be finite",
    ),
    # a malformed scene section used to escape as a bare TypeError or
    # KeyError that named no section, or (an unknown scene key) to pass
    "step_key_misspelled": (
        {"scene": _scene({"type": "step", "heigth": 0.1, "x_start": 3.0, "depth": 0.8})},
        "unknown scene.primitives[1] keys: ['heigth']",
    ),
    "extent_missing": ({"scene": {"primitives": []}}, "missing scene keys: ['extent']"),
    "type_missing": (
        {"scene": _scene({"height": 0.1, "x_start": 3.0, "depth": 0.8})},
        "scene.primitives[1] must be a mapping with a type in ['flat', 'platform', 'step']",
    ),
    "step_height_missing": (
        {"scene": _scene({"type": "step", "x_start": 3.0, "depth": 0.8})},
        "missing scene.primitives[1] keys: ['height']",
    ),
    "primitives_not_a_list": (
        {"scene": {"extent": [8.0, 3.0], "primitives": 5}}, "scene.primitives must be a list: 5"
    ),
    "primitive_not_a_mapping": (
        {"scene": {"extent": [8.0, 3.0], "primitives": [5]}},
        "scene.primitives[0] must be a mapping",
    ),
    "rise_steps_not_a_list": (
        {"scene": _scene({**PLATFORM, "rise_steps": 5})},
        "scene.primitives[1].rise_steps must be (a, b) pairs",
    ),
    "rise_step_of_four": (
        {"scene": _scene({**PLATFORM, "rise_steps": [[0.1, 0.3, 0.1, 0.3]]})},
        "scene.primitives[1].rise_steps must be (a, b) pairs",
    ),
    "extent_not_a_pair": (
        {"scene": {"extent": 8.0, "primitives": []}}, "scene.extent must be 2 values"
    ),
    "scene_key_unknown": (
        {"scene": {"extent": [8.0, 3.0], "primitives": [], "colour": 1}},
        "unknown scene keys: ['colour']",
    ),
    "step_height_zero": (
        {"scene": _scene({**STEP, "height": 0.0})}, "scene.primitives[1].height must be non-zero"
    ),
    # each ran and changed nothing: the base height is the first flat's z, and
    # a primitive off the terrain raises no cell (a swept step at x = 9 m
    # reported success 0 with no window chamfer at every height)
    "flat_twice": (
        {"scene": {"extent": [8.0, 3.0],
                   "primitives": [{"type": "flat", "z": 0.0}, {"type": "flat", "z": 0.4}]}},
        "scene.primitives[1] is a second flat region",
    ),
    "step_past_extent": (
        {"scene": _scene({**STEP, "x_start": 9.0})},
        "scene.primitives[1] spans x in [9.0, 9.8), outside the scene's [0, 8.0)",
    ),
    "platform_before_origin": (
        {"scene": _scene({**PLATFORM, "x_start": -10.0})},
        "scene.primitives[1] spans x in [-10.0, ",
    ),
    # a short command died in simulate_trajectory, a long one in the reward
    # after the whole map loop, each with exit 1
    "command_two_components": (
        {"command": [[2.0, [0.5, 0.0]]]}, "command[0] must be a (duration, [v_x, v_y, w_z]) pair"
    ),
    "command_four_components": (
        {"command": [[2.0, [0.5, 0.0, 0.0, 9.0]]]},
        "command[0] must be a (duration, [v_x, v_y, w_z]) pair: [2.0, [0.5, 0.0, 0.0, 9.0]]",
    ),
    # these named neither `command` nor the segment
    "command_nan": ({"command": [[NAN, [0.5, 0.0, 0.0]]]}, "command[0] is not finite: [nan, [0.5"),
    "command_negative_duration": (
        {"command": [[3.0, [0.5, 0.0, 0.0]], [-1.0, [0.5, 0.0, 0.0]]]},
        "command[1] duration must be positive: -1.0",
    ),
    "seed_negative": ({"seed": -1}, "seed must be a non-negative integer: -1"),
    "seed_float": ({"seed": 1.5}, "seed must be a non-negative integer: 1.5"),
    "seed_bool": ({"seed": True}, "seed must be a non-negative integer: True"),
    "sweep_zero_height": (
        {"scene": _scene(STEP), "sweep_step_heights": [0.1, 0.0]},
        f"{SWEEP_HEIGHTS}: [0.1, 0.0]",
    ),
    "sweep_nan_height": (
        {"scene": _scene(STEP), "sweep_step_heights": [NAN]}, f"{SWEEP_HEIGHTS}: [nan]"
    ),
    # a string failed in numpy, naming no key; an empty list ran one plain
    # scenario instead of a sweep
    "sweep_not_numbers": (
        {"scene": _scene(STEP), "sweep_step_heights": "abc"}, f"{SWEEP_HEIGHTS}: 'abc'"
    ),
    "sweep_empty": ({"scene": _scene(STEP), "sweep_step_heights": []}, f"{SWEEP_HEIGHTS}: []"),
    "sweep_without_step": (
        {"sweep_step_heights": [0.1]}, "sweep_step_heights needs a Step primitive in the scene"
    ),
    # a non-string tag was stored as is, and a comma split the tag column
    # of metrics.csv in two
    "tag_not_a_string": ({"tag": 5}, f"{TAG}: 5"),
    "tag_with_comma": ({"tag": "a,b"}, f"{TAG}: 'a,b'"),
    "tag_with_newline": ({"tag": "a\nb"}, f"{TAG}: 'a\\nb'"),
    "vio_dropout_not_a_pair": (
        {"source_errors": {"vio": {"dropouts": [[1.0]]}}},
        "source_errors.vio.dropouts must be (a, b) pairs",
    ),
    "vio_dropout_reversed": (
        {"source_errors": {"vio": {"dropouts": [[1.0, 0.5]]}}},
        "source_errors.vio.dropouts must be (t0, t1) pairs with t0 < t1: (1.0, 0.5)",
    ),
    "vio_dropout_nan": (
        {"source_errors": {"vio": {"dropouts": [[NAN, 1.0]]}}},
        "source_errors.vio.dropouts must be finite",
    ),
    # each used to be a bare TypeError; a flat list is not read as two windows
    "vio_dropouts_not_a_list": (
        {"source_errors": {"vio": {"dropouts": 5}}}, "source_errors.vio.dropouts must be"
    ),
    "vio_dropout_not_a_list": (
        {"source_errors": {"vio": {"dropouts": [5]}}}, "source_errors.vio.dropouts must be"
    ),
    "vio_dropouts_flat": (
        {"source_errors": {"vio": {"dropouts": [1.0, 2.0, 3.0, 4.0]}}},
        "source_errors.vio.dropouts must be",
    ),
    "sigma0_negative": (
        {"sensor_noise": {"sigma0": -1.0}}, "sensor_noise.sigma0 must be non-negative and finite"
    ),
    "k_negative": ({"sensor_noise": {"k": -0.1}}, "sensor_noise.k must be non-negative and finite"),
    "dropout_above_one": (
        {"sensor_noise": {"dropout": 1.5}}, "sensor_noise.dropout must be in [0, 1): 1.5"
    ),
    "dropout_one": (
        {"sensor_noise": {"dropout": 1.0}}, "sensor_noise.dropout must be in [0, 1): 1.0"
    ),
    # NaN noise used to pass a `< 0` check: the run died at the first cloud,
    # or (orient_sigma) reported finite metrics with exit 0
    "vel_sigma_nan": (
        {"source_errors": {"estimator": {"vel_sigma": [NAN, 0.02, 0.01]}}},
        "source_errors.estimator.vel_sigma must be finite",
    ),
    "vel_sigma_two_values": (
        {"source_errors": {"estimator": {"vel_sigma": [0.02, 0.02]}}},
        "source_errors.estimator.vel_sigma must be 3 values, each non-negative and finite",
    ),
    "bias_inf": (
        {"source_errors": {"estimator": {"bias": [0.0, INF, 0.0]}}},
        "source_errors.estimator.bias must be finite",
    ),
    "orient_sigma_nan": (
        {"source_errors": {"imu": {"orient_sigma": NAN}}},
        "source_errors.imu.orient_sigma must be finite",
    ),
    # a misspelled or non-mapping sub-section used to be a bare TypeError
    "imu_unknown_key": (
        {"source_errors": {"imu": {"gyro_sigma": 0.01}}},
        "unknown source_errors.imu keys: ['gyro_sigma']",
    ),
    "vio_not_a_mapping": ({"source_errors": {"vio": 5}}, "source_errors.vio must be a mapping"),
    "walk_rate_nan": (
        {"source_errors": {"vio": {"walk_rate": NAN}}}, "source_errors.vio.walk_rate must be finite"
    ),
    "sample_sigma_inf": (
        {"source_errors": {"vio": {"sample_sigma": INF}}},
        "source_errors.vio.sample_sigma must be finite",
    ),
    # a NaN threshold used to report success 0 with exit 0; the success
    # thresholds are pipeline constants now, so the section is unknown
    "success_chamfer_nan": ({"success": {"chamfer_cm": NAN}}, NO_SUCCESS),
    "success_chamfer_negative": ({"success": {"chamfer_cm": -1.0}}, NO_SUCCESS),
    "success_fill_negative": ({"success": {"max_fill_fraction": -0.1}}, NO_SUCCESS),
    "success_fill_inf": ({"success": {"max_fill_fraction": INF}}, NO_SUCCESS),
    "success_margin_nan": ({"success": {"window_margin": NAN}}, NO_SUCCESS),
    # the height noise is validated and then discarded: these used to pass
    "height_sample_sigma_nan": (
        {"height_noise": {"sample_sigma": NAN}}, "height_noise.sample_sigma must be finite"
    ),
    "height_sample_sigma_negative": (
        {"height_noise": {"sample_sigma": -1.0}},
        "height_noise.sample_sigma must be non-negative and finite: -1.0",
    ),
    "height_bias_sigma_inf": (
        {"height_noise": {"bias_sigma": [INF, 0, 0]}}, "height_noise.bias_sigma must be finite"
    ),
    # each failed to unpack with a message that named no key
    "start_xy_one_value": ({"start_xy": [1.0]}, "start_xy must be 2 values"),
    "start_xy_three_values": ({"start_xy": [1.0, 1.5, 2.0]}, "start_xy must be 2 values"),
}

# YAML documents that are not a mapping: each was a bare TypeError or
# ValueError naming nothing, or (an empty list, false, 0 or '') silently the
# default scenario
NOT_A_MAPPING = ["5", "[1, 2]", "abc", "[]", "false", "0", "''"]


def _same(a, b) -> bool:
    """Deep equality over dataclasses, arrays and sequences."""
    if type(a) is not type(b):
        return False
    if is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.fixture(scope="module")
def short_result():
    return run_scenario(ScenarioConfig.from_dict(dict(SHORT)))


class TestRates:
    def test_rate_contract(self):
        # control ticks outnumber cloud frames 5:3 over any whole second
        per_second_control = SIM_RATE // CONTROL_EVERY
        per_second_cloud = SIM_RATE // CLOUD_EVERY
        assert per_second_control == 50 and per_second_cloud == 30
        assert per_second_control * 3 == per_second_cloud * 5
        assert SIM_RATE // CHAMFER_EVERY == 20


class TestConfig:
    def test_unknown_keys_rejected(self):
        # fields without a plain default are not scalar knobs, and the
        # resolutions, drift gate and success thresholds are constants
        for key in ("bogus", "sweep_duration", "gait", "ekf", "variance_model",
                    "front_camera", "scene_spec", "profile", "drift_gate",
                    "drift_min_points", "map_size", "scene_resolution", "success"):
            with pytest.raises(ValueError, match="unknown config keys"):
                ScenarioConfig.from_dict({**SHORT, key: 1})
        # misspelled keys inside a section are named too
        for section, value, bad in (
            ("sensor_noise", MISSPELLED_SECTIONS["sensor_noise"], "drop_out"),
            ("height_noise", MISSPELLED_SECTIONS["height_noise"], "sigma"),
            ("source_errors", {"imu": {}, "odom": {}}, "odom"),
        ):
            with pytest.raises(ValueError, match=f"unknown {section} keys.*{bad}"):
                ScenarioConfig.from_dict({**SHORT, section: value})
            with pytest.raises(ValueError, match=f"{section} must be a mapping"):
                ScenarioConfig.from_dict({**SHORT, section: None})
        # and so are those of a source_errors sub-section, and a sub-section
        # that is not a mapping; both used to be a bare TypeError
        for value, match in (
            ({"vio": {"walk_rte": 0.01}}, r"unknown source_errors\.vio keys.*walk_rte"),
            ({"vio": 5}, r"source_errors\.vio must be a mapping, got 5"),
            ({"imu": None}, r"source_errors\.imu must be a mapping, got None"),
        ):
            with pytest.raises(ValueError, match=match):
                ScenarioConfig.from_dict({**SHORT, "source_errors": value})

    def test_height_noise_validated_and_discarded(self):
        assert "height_noise" not in {f.name for f in fields(ScenarioConfig)}
        with_section = ScenarioConfig.from_dict({**SHORT, "height_noise": HEIGHT_NOISE})
        assert _same(with_section, ScenarioConfig.from_dict(SHORT))
        # a bad value still fails in the noise model
        with pytest.raises(ValueError):
            ScenarioConfig.from_dict({**SHORT, "height_noise": {"bias_sigma": [0.1, 0.1]}})

    def test_sweep_heights_kept_as_floats(self):
        # a quoted height passed the check, ran every sub-run and then failed
        # to format as a number in the sweep's metrics.csv
        cfg = ScenarioConfig.from_dict(
            {**SHORT, "scene": _scene(STEP), "sweep_step_heights": ["0.1", 1, 0.05]}
        )
        assert cfg.sweep_step_heights == [0.1, 1.0, 0.05]
        assert all(type(h) is float for h in cfg.sweep_step_heights)

    def test_tag_with_plus_suffix_accepted(self):
        # `elevsim run --no-rear-camera` appends "+no-rear" to the tag
        cfg = ScenarioConfig.from_dict({**SHORT, "tag": "ablation"})
        assert replace(cfg, tag=cfg.tag + "+no-rear").tag == "ablation+no-rear"

    def test_snapshot_every_in_sweep_rejected(self):
        with pytest.raises(ValueError, match="snapshot_every"):
            ScenarioConfig.from_dict(
                {**SHORT, "sweep_step_heights": [0.1], "snapshot_every": 0.25, "out_dir": "sweep"}
            )

    def test_gyro_sigma_rejected(self):
        with pytest.raises(ValueError, match=r"unknown (source_errors\.)?imu keys.*gyro_sigma"):
            ScenarioConfig.from_dict({**SHORT, "source_errors": {"imu": {"gyro_sigma": 0.01}}})

    def test_scalar_knobs_coerced(self, tmp_path):
        cfg = ScenarioConfig.from_dict(
            {**SHORT, "injected_drift": [0, 0, 1], "start_xy": [1.0, 1.5], "out_dir": "runs/a"}
        )
        assert cfg.injected_drift.dtype == float and cfg.injected_drift.tolist() == [0, 0, 1]
        assert cfg.start_xy == (1.0, 1.5) and cfg.out_dir == Path("runs/a")
        # replace() goes through the same coercions
        cfg = replace(cfg, start_xy=[0.9, None], out_dir=str(tmp_path))
        assert cfg.start_xy == (0.9, None) and cfg.out_dir == tmp_path

    @pytest.mark.parametrize("every", [0, 0.0, -1.0, float("nan"), float("inf")])
    def test_bad_snapshot_every_rejected(self, every):
        with pytest.raises(ValueError, match="snapshot_every"):
            ScenarioConfig.from_dict({**SHORT, "snapshot_every": every})

    @pytest.mark.parametrize("key, value", BAD_SCALARS)
    def test_bad_geometry_and_drift_keys_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            ScenarioConfig.from_dict({**SHORT, key: value})

    @pytest.mark.parametrize("case", BAD_CONFIGS)
    def test_bad_scene_seed_sweep_and_noise_rejected(self, case):
        extra, text = BAD_CONFIGS[case]
        with pytest.raises(ValueError) as err:
            ScenarioConfig.from_dict({**SHORT, **extra})
        assert text in str(err.value)

    @pytest.mark.parametrize("case", [c for c in BAD_CONFIGS if set(BAD_CONFIGS[c][0]) == {"scene"}])
    def test_bad_scene_is_a_scene_error(self, case):
        # from the whole config and from the scene section alone
        extra, text = BAD_CONFIGS[case]
        for parse in (lambda d: build(scene.SceneSpec, d, "scene"),
                      lambda d: ScenarioConfig.from_dict({**SHORT, "scene": d})):
            with pytest.raises(scene.SceneError) as err:
                parse(extra["scene"])
            assert text in str(err.value)

    @pytest.mark.parametrize(
        "command",
        [
            [[float("nan"), [0.5, 0.0, 0.0]]],
            [[float("inf"), [0.5, 0.0, 0.0]]],
            [[1.0, [0.5, 0.0, 0.0]], [1.0, [float("nan"), 0.0, 0.0]]],
            [[1.0, [0.5, float("-inf"), 0.0]]],
        ],
    )
    def test_non_finite_command_rejected(self, command):
        with pytest.raises(ValueError, match="not finite"):
            ScenarioConfig.from_dict({**SHORT, "command": command})

    @pytest.mark.parametrize(
        "command",
        [
            [[0.5, [0.5, 0.0, 0.0]]],
            [[0.7, [0.5, 0.0, 0.0]]],
            [[0.7, [0.5, 0.0, 0.0]], [0.6, [0.4, 0.0, 0.3]]],
        ],
    )
    def test_command_within_settle_time_rejected(self, command):
        # tracking RMS discards the first 0.7 s of each segment, so it would
        # have no samples to score
        with pytest.raises(ValueError, match="settle time"):
            ScenarioConfig.from_dict({**SHORT, "command": command})

    @pytest.mark.parametrize(
        "command, text",
        [
            ([[2.0, 0.5]], "command[0] must be a"),
            ([[2.0]], "command[0] must be a"),
            ([[1.0, [0.5, 0.0, 0.0]], [2.0, 0.5, 0.0, 0.0]], "command[1] must be a"),
            (2.0, "command must be a list of segments"),
            ({"v_x": 0.5}, "command must be a list of segments"),
        ],
    )
    def test_malformed_command_rejected(self, command, text):
        # these used to fail on unpacking, with a message that named no segment
        with pytest.raises(ValueError, match=re.escape(text)):
            ScenarioConfig.from_dict({**SHORT, "command": command})

    def test_one_segment_past_settle_time_accepted(self):
        command = [[0.5, [0.5, 0.0, 0.0]], [0.75, [0.5, 0.0, 0.0]]]
        cfg = ScenarioConfig.from_dict({**SHORT, "command": command})
        assert cfg.profile.total_duration == 1.25

    def test_unknown_scene_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig.from_dict({**SHORT, "scene": "volcano"})

    def test_unknown_odometry_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig.from_dict({**SHORT, "odometry": "magic"})

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(SHORT))
        cfg = ScenarioConfig.from_yaml(path)
        assert cfg.seed == 0
        assert cfg.profile.total_duration == 3.0

    @pytest.mark.parametrize("document", NOT_A_MAPPING)
    def test_config_that_is_not_a_mapping_rejected(self, tmp_path, document):
        path = tmp_path / "cfg.yaml"
        path.write_text(document + "\n")
        for parse in (lambda: ScenarioConfig.from_dict(yaml.safe_load(document)),
                      lambda: ScenarioConfig.from_yaml(path)):
            with pytest.raises(ValueError, match="config must be a mapping"):
                parse()

    def test_empty_yaml_file_is_the_default_scenario(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("")
        cfg = ScenarioConfig.from_yaml(path)
        assert cfg.profile.segments == [(12.0, (0.5, 0.0, 0.0))]
        assert cfg.seed == 0 and cfg.odometry == "gt"


class TestScenario:
    def test_metrics_present(self, short_result):
        m = short_result.metrics
        for key in (
            "chamfer_mean_cm",
            "tracking_rms_vx",
            "reward_mean",
            "obs_dim",
            "map_total_shift_m",
        ):
            assert key in m
        assert m["obs_dim"] == 1070.0
        assert np.isfinite(m["chamfer_mean_cm"])

    def test_gt_mode_tracks_command_tightly(self, short_result):
        m = short_result.metrics
        assert m["tracking_rms_vx"] < 0.05
        assert m["tracking_rms_vy"] < 0.01
        assert m["tracking_rms_wz"] < 0.01

    def test_reward_positive_under_good_tracking(self, short_result):
        assert short_result.metrics["reward_mean"] > 0.5

    def test_outputs_written(self, tmp_path):
        cfg = ScenarioConfig.from_dict({**SHORT, "out_dir": str(tmp_path / "run")})
        run_scenario(cfg)
        assert (tmp_path / "run" / "metrics.csv").exists()
        assert (tmp_path / "run" / "metrics.json").exists()
        assert (tmp_path / "run" / "trajectory_est.csv").exists()
        assert (tmp_path / "run" / "trajectory_gt.csv").exists()

    def test_snapshots_into_fresh_nested_dir(self, tmp_path):
        out = tmp_path / "fresh" / "run"
        cfg = ScenarioConfig.from_dict(
            {
                **SHORT,
                "command": [[1.0, [0.5, 0.0, 0.0]]],
                "snapshot_every": 0.25,
                "out_dir": str(out),
            }
        )
        run_scenario(cfg)
        snaps = sorted(p.name for p in out.glob("map_*.csv"))
        assert snaps[:4] == [f"map_000.{ms:03d}.csv" for ms in (0, 250, 500, 750)]
        assert (out / "metrics.csv").exists()

    def test_byte_identical_rerun(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = ScenarioConfig.from_dict(
                {**SHORT, "odometry": "ekf-vio", "out_dir": str(tmp_path / name)}
            )
            run_scenario(cfg)
            outs.append((tmp_path / name / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_different_seed_changes_metrics(self, tmp_path):
        vals = []
        for seed in (0, 1):
            cfg = ScenarioConfig.from_dict({**SHORT, "odometry": "ekf-vio", "seed": seed})
            vals.append(run_scenario(cfg).metrics["rte_mean_m"])
        assert vals[0] != vals[1]

    def test_run_leaves_config_unchanged(self):
        cfg = ScenarioConfig.from_dict(
            {
                **SHORT,
                "command": [[2.0, [0.5, 0.0, 0.0]]],
                "odometry": "ekf-vio",
                "sensor_noise": {"sigma0": 0.003, "k": 0.005, "dropout": 0.02},
                "source_errors": {"vio": {"dropouts": [[0.5, 1.0]]}},
                "injected_drift": [0.01, 0.0, 0.0],
                "start_xy": [1.6, 1.45],
            }
        )
        before = copy.deepcopy(cfg)
        first = run_scenario(cfg).metrics
        for f in fields(ScenarioConfig):
            assert _same(getattr(cfg, f.name), getattr(before, f.name)), f.name
        second = run_scenario(cfg).metrics
        first.pop("wall_time_s"), second.pop("wall_time_s")
        assert first == second

    def test_poses_built_once_per_run_not_per_tick(self, monkeypatch):
        # every tick's pose is a row of a stack built before the map loop,
        # so a run twice as long constructs no more poses
        built = []
        post_init = Pose.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        counts = []
        for seconds in (1.0, 2.0):
            cfg = ScenarioConfig.from_dict(
                {**SHORT, "command": [[seconds, [0.5, 0.0, 0.2]]], "odometry": "ekf-vio"}
            )
            built.clear()
            with monkeypatch.context() as m:
                m.setattr(Pose, "__post_init__", counted)
                run_scenario(cfg)
            counts.append(len(built))
        assert counts[0] == counts[1] > 0

    def test_snapshot_every_without_out_dir_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = ScenarioConfig.from_dict({**SHORT, "snapshot_every": 0.25})
        with pytest.raises(ValueError, match="out_dir"):
            run_scenario(cfg)
        assert not list(tmp_path.iterdir())

    def test_off_map_start_rejected(self):
        # at config time, before the scene is built
        with pytest.raises(ValueError, match="start pose"):
            ScenarioConfig.from_dict({**SHORT, "start_xy": [-1.0, 1.5]})

    def test_start_off_the_built_grid_rejected(self):
        # 8 m at 0.0175 m rounds to 457 cells, 7.9975 m: a front hip at
        # x = 7.999 is inside the spec's extent but off the grid
        x = 7.999 - HIP_OFFSETS[0, 0]
        assert x + HIP_OFFSETS[0, 0] < 8.0
        with pytest.raises(ValueError, match="start pose"):
            ScenarioConfig.from_dict({**SHORT, "start_xy": [x, 1.5]})
        ScenarioConfig.from_dict({**SHORT, "start_xy": [x - 0.002, 1.5]})

    @pytest.mark.parametrize("yaw", [0.0, 0.3, -2.0, np.pi / 2])
    def test_config_check_agrees_with_trajectory_at_the_edge(self, yaw):
        # starts whose footprint straddles each grid edge, by a millimetre
        # down to single ulps: a config is accepted iff the trajectory starts
        spec = scene.SceneSpec([scene.FlatRegion(0.0)], (8.0, 3.0))
        hf = scene.build_scene(spec, 0.0175)
        hips = HIP_OFFSETS[:, :2] @ rotz(yaw)[:2, :2].T
        starts = []
        for lo, hi, axis in ((0.0, hf.size[0], 0), (0.0, hf.size[1], 1)):
            for edge, reach in ((lo, -hips[:, axis].min()), (hi, -hips[:, axis].max())):
                at = edge + reach
                for d in (-1e-3, 1e-3, *(k * np.spacing(at) for k in range(-4, 5))):
                    xy = [4.0, 1.5]
                    xy[axis] = at + d
                    starts.append(xy)
        profile = CommandProfile.constant((0.5, 0.0, 0.0), 1.0)
        outcomes = set()
        for xy in starts:
            try:
                simulate_trajectory(profile, hf, 1.0 / SIM_RATE, start_xy=xy, start_yaw=yaw)
                starts_ok = True
            except scene.OutOfBoundsError:
                starts_ok = False
            try:
                ScenarioConfig(spec, profile, start_xy=xy, start_yaw=yaw)
                config_ok = True
            except scene.OutOfBoundsError:
                config_ok = False
            assert config_ok == starts_ok, xy
            outcomes.add(starts_ok)
        assert outcomes == {True, False}

    def test_injected_drift_reported_via_rte(self):
        cfg = ScenarioConfig.from_dict({**SHORT, "injected_drift": [0.0, 0.0, 0.01]})
        m = run_scenario(cfg).metrics
        assert "rte_mean_m" in m
        assert m["rte_mean_m"] > 0.0


class TestFrameStage:
    """The frame stage (`pipeline._frames`) run alone, with the run's seeds
    and no map, yields the clouds that the map loop integrates, byte for byte
    and in order: the frame-level oracle for any faster frame stage."""

    @staticmethod
    def _cfg(rear: bool) -> ScenarioConfig:
        # a turning ekf-vio walk with sensor noise, so that the true and the
        # estimated pose differ and every camera draws from its RNG
        return ScenarioConfig.from_dict({
            **SHORT,
            "command": [[1.0, [0.5, 0.0, 0.3]]],
            "odometry": "ekf-vio",
            "use_rear_camera": rear,
            "sensor_noise": {"sigma0": 0.003, "k": 0.005, "dropout": 0.02},
        })

    @pytest.mark.parametrize("rear", [False, True], ids=["one_camera", "two_cameras"])
    def test_map_integrates_what_the_frame_stage_yields_alone(self, monkeypatch, rear):
        cfg = self._cfg(rear)
        integrated = []
        integrate = ElevationMap.integrate_cloud

        def spy(emap, cloud, origin, *args, **kwargs):
            integrated.append((cloud.t, cloud.frame, origin.tobytes(), cloud.points.tobytes()))
            return integrate(emap, cloud, origin, *args, **kwargs)

        monkeypatch.setattr(ElevationMap, "integrate_cloud", spy)
        run_scenario(cfg)
        monkeypatch.undo()

        # the run's precompute and seed hierarchy, then the frame stage alone
        seeds = np.random.SeedSequence(cfg.seed).spawn(4)
        hf = scene.build_scene(cfg.scene_spec, scene.GT_PATCH_RESOLUTION)
        traj = simulate_trajectory(cfg.profile, hf, dt=1.0 / SIM_RATE, start_xy=cfg.start_xy,
                                   start_yaw=cfg.start_yaw)
        est_pos, _ = pipeline._estimate_odometry(cfg, traj, int(seeds[3].generate_state(1)[0]))
        rngs = [np.random.default_rng(s) for s in seeds[:2]]
        alone = [
            (world.t, world.frame, origin.tobytes(), world.points.tobytes())
            for frame in pipeline._frames(cfg, hf, traj, est_pos, rngs)
            for origin, world in frame
        ]
        cameras = 2 if rear else 1
        assert len(alone) == cameras * len(range(0, len(traj), CLOUD_EVERY))
        assert min(len(points) for *_, points in alone) > 0
        assert integrated == alone

    @pytest.mark.parametrize("rear", [False, True], ids=["one_camera", "two_cameras"])
    def test_one_render_per_camera_and_cloud_tick(self, monkeypatch, rear):
        rendered = []
        render = pipeline.render_depth

        def counted(camera, pose, hf, t):
            rendered.append(t)
            return render(camera, pose, hf, t)

        monkeypatch.setattr(pipeline, "render_depth", counted)
        ticks = run_scenario(self._cfg(rear)).gt_trajectory.t
        cameras = 2 if rear else 1
        assert rendered == [t for t in ticks[::CLOUD_EVERY] for _ in range(cameras)]


class TestSweepAndCompare:
    def test_step_sweep_rows(self, tmp_path):
        cfg = ScenarioConfig.from_dict(
            {
                "scene": {
                    "extent": [8.0, 3.0],
                    "primitives": [
                        {"type": "flat", "z": 0.0},
                        {"type": "step", "x_start": 3.0, "height": 0.1, "depth": 0.8},
                    ],
                },
                "command": [[3.0, [0.5, 0.0, 0.0]]],
                "sweep_step_heights": [0.075, 0.125],
                "out_dir": str(tmp_path),
            }
        )
        rows = run_step_sweep(cfg)
        assert [r["step_height_m"] for r in rows] == [0.075, 0.125]
        assert (tmp_path / "metrics.csv").exists()

    def test_sweep_frees_each_map_before_the_next(self, monkeypatch):
        # a sub-run's result (and with it its map) used to stay bound while
        # the next sub-run built its map: two maps live at once
        maps, live_at_build = [], []

        class RecordedMap(ElevationMap):
            def __init__(self, *args, **kwargs):
                live_at_build.append(sum(ref() is not None for ref in maps))
                super().__init__(*args, **kwargs)
                maps.append(weakref.ref(self))

        monkeypatch.setattr(pipeline, "ElevationMap", RecordedMap)
        cfg = ScenarioConfig.from_dict(
            {
                "scene": {
                    "extent": [8.0, 3.0],
                    "primitives": [
                        {"type": "flat", "z": 0.0},
                        {"type": "step", "x_start": 1.0, "height": 0.1, "depth": 0.8},
                    ],
                },
                "command": [[1.0, [0.5, 0.0, 0.0]]],
                "sweep_step_heights": [0.075, 0.125, 0.1],
            }
        )
        rows = run_step_sweep(cfg)
        assert [r["step_height_m"] for r in rows] == [0.075, 0.125, 0.1]
        assert live_at_build == [0, 0, 0]
        assert all(ref() is None for ref in maps)

    def test_sweep_without_step_rejected(self):
        # rejected with the config, before any sub-run
        with pytest.raises(ValueError, match="Step"):
            ScenarioConfig.from_dict({**SHORT, "sweep_step_heights": [0.1]})

    def test_compare_runs_delta(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        write_metrics(a, {"chamfer_mean_cm": 1.416}, "two-cam")
        write_metrics(b, {"chamfer_mean_cm": 1.982}, "front-only")
        table = compare_runs([a / "metrics.csv", b / "metrics.csv"])
        row = dict((name, deltas) for name, _, deltas in table)
        assert row["chamfer_mean_cm"] == [pytest.approx(-28.56, abs=0.01)]

    def test_compare_runs_delta_for_every_run(self, tmp_path):
        paths = []
        for name, values in (
            ("a", {"chamfer_mean_cm": 1.5, "rte_mean_m": 0.2}),
            ("b", {"chamfer_mean_cm": 3.0}),
            ("c", {"chamfer_mean_cm": 2.0, "rte_mean_m": 0.0}),
        ):
            (tmp_path / name).mkdir()
            write_metrics(tmp_path / name, values, name)
            paths.append(tmp_path / name / "metrics.csv")
        table = {name: (vals, deltas) for name, vals, deltas in compare_runs(paths)}
        assert table["chamfer_mean_cm"] == ([1.5, 3.0, 2.0], [-25.0, 50.0])
        # a gap in a run, or a zero in the last run, leaves its delta empty
        assert table["rte_mean_m"] == ([0.2, None, 0.0], [None, None])

    def test_compare_needs_two_reports(self, tmp_path):
        with pytest.raises(ValueError):
            compare_runs([tmp_path / "only.csv"])

    def test_read_metrics_csv_round_trip(self, tmp_path):
        write_metrics(tmp_path, {"x": 1.5, "y": -2.0}, "")
        back = read_metrics_csv(tmp_path / "metrics.csv")
        assert back == {"x": 1.5, "y": -2.0}

    def test_read_metrics_csv_skips_blank_lines(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("metric,value,tag\n\nx,1.5,\n  \ny,-2.0,a\n\n")
        assert read_metrics_csv(path) == {"x": 1.5, "y": -2.0}


class TestCli:
    def _write_cfg(self, tmp_path, extra=None):
        cfg = dict(SHORT)
        cfg.update(extra or {})
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return path

    def test_run_verb(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chamfer_mean_cm" in out
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_run_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("bogus_key: 1\n")
        rc = main(["run", "--config", str(path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("document", NOT_A_MAPPING)
    def test_run_config_that_is_not_a_mapping_exits_2(self, tmp_path, capsys, document):
        path = tmp_path / "cfg.yaml"
        path.write_text(document + "\n")
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config must be a mapping" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_nan_command_exits_2(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {"command": [[1.0, [float("nan"), 0.0, 0.0]]]})
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "not finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, text",
        [
            ([[2.0, 0.5]], "command[0] must be a"),
            ([[2.0]], "command[0] must be a"),
            (2.0, "command must be a list of segments"),
        ],
    )
    def test_run_malformed_command_exits_2(self, tmp_path, capsys, command, text):
        cfg = self._write_cfg(tmp_path, {"command": command})
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert text in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_command_within_settle_time_exits_2(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {"command": [[0.5, [0.5, 0.0, 0.0]]]})
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "settle time" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_off_map_start_exits_2(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {"start_xy": [-1.0, 1.5]})
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_bad_snapshot_every_flag_exits_2(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out), "--snapshot-every", "-1"])
        assert rc == 2
        assert "snapshot_every" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", BAD_SCALARS)
    def test_run_bad_scalar_exits_2(self, tmp_path, capsys, key, value):
        cfg = self._write_cfg(tmp_path, {key: value})
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", BAD_CONFIGS)
    def test_run_bad_scene_seed_sweep_and_noise_exits_2(self, tmp_path, capsys, case):
        extra, text = BAD_CONFIGS[case]
        cfg = self._write_cfg(tmp_path, extra)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert text in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_misspelled_section_key_exits_2(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, MISSPELLED_SECTIONS)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "unknown sensor_noise keys" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_snapshot_every_with_default_out_dir(self, tmp_path, monkeypatch):
        # the YAML sets snapshot_every; the out_dir comes from the CLI default
        cfg = self._write_cfg(
            tmp_path, {"command": [[1.0, [0.5, 0.0, 0.0]]], "snapshot_every": 0.5}
        )
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        snaps = sorted(p.name for p in (tmp_path / "elevsim_out").glob("map_*.csv"))
        assert snaps[:2] == ["map_000.000.csv", "map_000.500.csv"]

    def test_no_rear_camera_flag_tags_report(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = main(
            ["run", "--config", str(cfg), "--out", str(out), "--no-rear-camera"]
        )
        assert rc == 0
        assert "no-rear" in (out / "metrics.csv").read_text()

    def test_compare_verb(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        write_metrics(a, {"chamfer_mean_cm": 1.416}, "")
        write_metrics(b, {"chamfer_mean_cm": 1.982}, "")
        rc = main(["compare", str(a / "metrics.csv"), str(b / "metrics.csv")])
        assert rc == 0
        assert "-28.56%" in capsys.readouterr().out

    def test_compare_verb_three_reports(self, tmp_path, capsys):
        paths = []
        for name, value in (("a", 1.5), ("b", 3.0), ("c", 2.0)):
            (tmp_path / name).mkdir()
            write_metrics(tmp_path / name, {"chamfer_mean_cm": value}, "")
            paths.append(str(tmp_path / name / "metrics.csv"))
        assert main(["compare", *paths]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.endswith("| a | b | c | delta% | delta%")
        assert row.endswith("| 1.5 | 3 | 2 | -25.00% | +50.00%")

    def test_compare_verb_one_report_is_an_error(self, tmp_path, capsys):
        write_metrics(tmp_path, {"chamfer_mean_cm": 1.5}, "")
        assert main(["compare", str(tmp_path / "metrics.csv")]) == 2
        assert "need at least two reports" in capsys.readouterr().err

    def test_compare_verb_missing_report_is_an_error(self, tmp_path, capsys):
        write_metrics(tmp_path, {"chamfer_mean_cm": 1.5}, "")
        missing = tmp_path / "missing" / "metrics.csv"
        assert main(["compare", str(tmp_path / "metrics.csv"), str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_compare_verb_sweep_reports_are_an_error(self, tmp_path, capsys):
        # a sweep report holds only `sweep` rows, which used to read as an
        # empty report and print an empty table with exit 0
        paths = []
        for name, rows in (("a", ("0.075,1,1.2,0.9", "0.125,0,3.4,1.1")),
                           ("b", ("0.075,1,1.5,1.0", "0.125,1,2.8,1.2"))):
            path = tmp_path / f"{name}.csv"
            path.write_text(
                "metric,step_height_m,success,window_chamfer_mean_cm,chamfer_mean_cm\n"
                + "".join(f"sweep,{row}\n" for row in rows)
            )
            paths.append(str(path))
        assert main(["compare", *paths]) == 2
        err = capsys.readouterr().err
        assert err.startswith("compare error:")
        assert f"{paths[0]} is a step-sweep report" in err

    def test_compare_verb_empty_report_is_an_error(self, tmp_path, capsys):
        write_metrics(tmp_path, {"chamfer_mean_cm": 1.5}, "")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["compare", str(tmp_path / "metrics.csv"), str(empty)]) == 2
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, line, row",
        [
            # it used to print only "could not convert string to float: 'abc'"
            ("chamfer_mean_cm,1.5,\nrte_mean_m,abc,\n", 3, "rte_mean_m,abc,"),
            # a one-field row used to be skipped silently; a blank line still is
            ("\nchamfer_mean_cm,1.5,\nrte_mean_m\n", 4, "rte_mean_m"),
        ],
        ids=["value_not_a_number", "one_field"],
    )
    def test_compare_verb_bad_row_names_file_and_line(self, tmp_path, capsys, body, line, row):
        write_metrics(tmp_path, {"chamfer_mean_cm": 1.5}, "")
        bad = tmp_path / "bad.csv"
        bad.write_text("metric,value,tag\n" + body)
        assert main(["compare", str(tmp_path / "metrics.csv"), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"compare error: {bad} line {line} ") and err.count("\n") == 1
        assert repr(row) in err

    def test_run_out_onto_a_file_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        # it used to end in a FileExistsError traceback with exit 1, after the
        # trajectory and the odometry had run
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "out"
        out.write_text("kept")

        def no_work(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(pipeline, "simulate_trajectory", no_work)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"output error: {out} cannot be made a directory")
        assert err.count("\n") == 1
        assert out.read_text() == "kept"

    def test_export_scene_onto_a_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        # it used to end in an IsADirectoryError traceback with exit 1
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "out"
        out.mkdir()

        def no_work(*args, **kwargs):
            raise AssertionError("the scene was built")

        monkeypatch.setattr(scene, "build_scene", no_work)
        assert main(["export-scene", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"output error: {out} is a directory, not a CSV file\n"
        assert not list(out.iterdir())

    def test_export_scene_verb(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "scene.csv"
        rc = main(["export-scene", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "# resolution=0.0175 origin=0.0,0.0"
        grid = np.loadtxt(out, delimiter=",")
        # the obstacle scene's 8 x 3 m at 0.0175 m, one x-profile per column
        assert grid.shape == (457, 171)
        assert (grid == grid[:, :1]).all()

    def test_export_scene_into_a_new_directory(self, tmp_path):
        # the parent of --out is made, as `run` makes its --out directory
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "new" / "nested" / "scene.csv"
        assert main(["export-scene", "--config", str(cfg), "--out", str(out)]) == 0
        assert np.loadtxt(out, delimiter=",").shape == (457, 171)

    def test_export_scene_misspelled_key_exits_2(self, tmp_path, capsys):
        step = {"type": "step", "heigth": 0.1, "x_start": 3.0, "depth": 0.8}
        cfg = self._write_cfg(tmp_path, {"scene": _scene(step)})
        out = tmp_path / "scene.csv"
        assert main(["export-scene", "--config", str(cfg), "--out", str(out)]) == 2
        assert "unknown scene.primitives[1] keys: ['heigth']" in capsys.readouterr().err
        assert not out.exists()
