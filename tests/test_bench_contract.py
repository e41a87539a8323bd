"""The benchmark's tracer wraps names in `elevsim` by string and counts EKF
rejections by `result is False`. A renamed wrap target or a non-`bool` update
result would break its traced run or silently zero
`odometry.ekf.rejected_ratio`; these tests make either fail here instead, and
so does a call that moves out of the tracer's reach (its span count drops).

`perfbench/tracer.py` is read and executed in memory, so no bytecode is
written next to it.
"""

import types
from pathlib import Path

from elevsim import odometry, pipeline
from elevsim.pipeline import (
    CHAMFER_EVERY,
    CLOUD_EVERY,
    CONTROL_EVERY,
    ScenarioConfig,
    run_scenario,
)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_traced_ekf_run_counts_every_rejection(monkeypatch):
    tracer_mod = _load_tracer()
    made = []

    class Recorded(odometry.OdometryEkf):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    # a noisy velocity estimator, so that the gate rejects updates of both
    # kinds
    cfg = ScenarioConfig.from_dict(
        {
            "command": [[2.0, [0.5, 0.0, 0.0]]],
            "odometry": "ekf-vio",
            "use_rear_camera": False,
            "source_errors": {"estimator": {"vel_sigma": [0.08, 0.08, 0.08]}},
        }
    )
    fed = []
    tracer = tracer_mod.Tracer()
    # raises TraceTargetError if a wrapped name is missing
    with tracer.installed(tracer_mod.install_elevsim):
        # after install: the tracer wraps methods in OdometryEkf's own dict,
        # and the subclass inherits the wrapped ones
        monkeypatch.setattr(odometry, "OdometryEkf", Recorded)
        traced_fuse = pipeline.fuse_streams

        def fuse(streams, traj, use_vio):
            fed.append(len(streams.est_t) + (len(streams.vio_t) if use_vio else 0))
            return traced_fuse(streams, traj, use_vio=use_vio)

        monkeypatch.setattr(pipeline, "fuse_streams", fuse)
        run_scenario(cfg)
        # restore the tracer's wrappers before it removes them
        monkeypatch.undo()
    (ekf,), (samples,) = made, fed
    assert ekf.rejected_velocity > 0 and ekf.rejected_pose > 0
    rejected = ekf.rejected_velocity + ekf.rejected_pose
    assert tracer.counters["odometry.ekf.rejected"] == rejected
    # every velocity and pose sample goes through a traced update call
    assert tracer.counters["odometry.ekf.updates"] == samples > rejected
    assert pipeline.fuse_streams is odometry.fuse_streams


def test_traced_two_camera_run_counts_every_stage_call():
    tracer_mod = _load_tracer()
    cfg = ScenarioConfig.from_dict(
        {
            "command": [[1.0, [0.5, 0.0, 0.0]]],
            "sensor_noise": {"sigma0": 0.003, "k": 0.005, "dropout": 0.02},
        }
    )
    assert cfg.use_rear_camera and cfg.drift_compensation
    tracer = tracer_mod.Tracer()
    with tracer.installed(tracer_mod.install_elevsim):
        result = run_scenario(cfg)
    calls = {name: n for name, (n, _) in tracer.self_times().items()}
    ticks = len(result.gt_trajectory.t)
    cloud_ticks = len(range(0, ticks, CLOUD_EVERY))
    per_tick = {
        **dict.fromkeys(
            [
                "sensorsim.render_depth",
                "sensorsim.inject_sensor_noise",
                "cloudfilter.remove_outliers",
                "cloudfilter.body_filter",
                "cloudfilter.voxel_downsample",
                "elevmap.drift_compensate",
                "elevmap.integrate_cloud",
            ],
            2 * cloud_ticks,
        ),
        "elevmap.recenter": len(range(0, ticks, CONTROL_EVERY)),
        "obsbuilder.sample_heights": len(range(0, ticks, CONTROL_EVERY)),
        "metrics.map_vs_ground_truth": len(range(0, ticks, CHAMFER_EVERY)),
        "scene.ground_truth_patch": len(range(0, ticks, CHAMFER_EVERY)),
    }
    assert {name: calls.get(name, 0) for name in per_tick} == per_tick
