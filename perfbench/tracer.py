"""In-memory span tracer for the benchmark's traced run.

Wrappers go around the names `elevsim.pipeline` calls: module functions
where the pipeline looks them up by module attribute or imported name, and
methods at class level. Nothing under `src/` is edited. Every span records
its name, start, end and parent span, so children nest: `region_points`,
`ground_truth_patch` and `chamfer_one_way` under `map_vs_ground_truth`, the
EKF updates under `fuse_streams`. Spans stay in memory until the run ends.

A layer's self time is its spans' durations minus the part covered by their
child spans. The first dotted part of a span name is its layer.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

class TraceTargetError(RuntimeError):
    """A name the tracer must wrap does not exist in the program."""


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one [name id, start ns, end ns, parent index or -1] per call
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._installed: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, owner, attr: str, name: str, count=None, before=None) -> None:
        """Replace `owner.attr` with a spanning wrapper.

        `before(*args, **kwargs)` runs ahead of the call; its value reaches
        `count(counters, args, result, before_value)`, which runs after it.
        Both run outside the span, so their cost shows in the parent.
        """
        try:
            original = vars(owner)[attr]
        except KeyError:
            raise TraceTargetError(
                f"cannot trace {name}: {getattr(owner, '__name__', owner)!s}.{attr} "
                "does not exist"
            ) from None
        if not callable(original):
            raise TraceTargetError(f"cannot trace {name}: {attr} is not callable")
        name_id = self._name_id(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            pre = before(*args, **kwargs) if before is not None else None
            span = [name_id, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result, pre)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, install):
        """Install the wrappers with `install(self)`; restore the originals
        on exit, also when a wrap target is missing or the body raises."""
        try:
            install(self)
            yield self
        finally:
            self.uninstall()

    def self_times(self) -> dict[str, tuple[int, int]]:
        """{span name: (calls, self ns)} over all recorded spans."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for (name_id, t0, t1, _), covered in zip(spans, child_ns):
            acc = out[self.names[name_id]]
            acc[0] += 1
            acc[1] += t1 - t0 - covered
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def _bump(counters, key, by=1.0):
    counters[key] += by


def _count_in_out(name):
    def count(counters, args, result, pre):
        _bump(counters, name + ".in", len(args[0]))
        _bump(counters, name + ".out", len(result))

    return count


def install_elevsim(tracer: Tracer) -> None:
    """Wrap every layer entry point that `run_scenario` and
    `run_step_sweep` reach. Raises TraceTargetError if one is missing."""
    from elevsim import cloudfilter, metrics, obsbuilder, pipeline, reward, scene
    from elevsim.elevmap import ElevationMap
    from elevsim.odometry import OdometryEkf

    w = tracer.wrap

    # pipeline: the roots, so that glue time is measured inside them
    w(pipeline, "run_step_sweep", "pipeline.run_step_sweep")
    w(pipeline, "run_scenario", "pipeline.run_scenario")

    # scene
    w(scene, "build_scene", "scene.build_scene")
    w(metrics, "ground_truth_patch", "scene.ground_truth_patch")

    # sensorsim
    w(pipeline, "simulate_trajectory", "sensorsim.simulate_trajectory")

    def count_render(counters, args, result, pre):
        cam = args[0]
        _bump(counters, "sensorsim.render_depth.rays", cam.width * cam.height)
        _bump(counters, "sensorsim.render_depth.hits", len(result))

    w(pipeline, "render_depth", "sensorsim.render_depth", count=count_render)
    w(
        pipeline,
        "inject_sensor_noise",
        "sensorsim.inject_sensor_noise",
        count=_count_in_out("sensorsim.inject_sensor_noise"),
    )

    # cloudfilter
    for fn in ("remove_outliers", "body_filter", "voxel_downsample"):
        name = "cloudfilter." + fn
        w(cloudfilter, fn, name, count=_count_in_out(name))

    # elevmap
    def count_integrate(counters, args, result, pre):
        _bump(counters, "elevmap.integrate_cloud.in", len(args[1]))
        _bump(counters, "elevmap.integrate_cloud.skipped", result)

    def count_drift(counters, args, result, pre):
        _bump(counters, "elevmap.drift_compensate.applied", result != 0.0)

    def count_recenter(counters, args, result, pre):
        _bump(counters, "elevmap.recenter.moved", not np.array_equal(pre, args[0].center))

    w(ElevationMap, "integrate_cloud", "elevmap.integrate_cloud", count=count_integrate)
    w(ElevationMap, "drift_compensate", "elevmap.drift_compensate", count=count_drift)
    w(
        ElevationMap,
        "recenter",
        "elevmap.recenter",
        count=count_recenter,
        before=lambda emap, *a, **k: emap.center.copy(),
    )
    w(ElevationMap, "region_points", "elevmap.region_points")

    # odometry: `_estimate_odometry` is the odometry stage of the pipeline
    # (the ground-truth branch on `gt`, stream fusion on the EKF modes)
    w(pipeline, "_estimate_odometry", "odometry.estimate")
    w(pipeline, "make_source_streams", "odometry.make_source_streams")
    w(pipeline, "fuse_streams", "odometry.fuse_streams")

    def count_update(counters, args, result, pre):
        _bump(counters, "odometry.ekf.updates")
        _bump(counters, "odometry.ekf.rejected", result is False)

    w(OdometryEkf, "update_velocity", "odometry.ekf.update_velocity", count=count_update)
    w(OdometryEkf, "update_pose", "odometry.ekf.update_pose", count=count_update)

    # obsbuilder
    def count_fill(counters, args, result, pre):
        fill = result[2]
        _bump(counters, "obsbuilder.sample_heights.samples", fill.size)
        _bump(counters, "obsbuilder.sample_heights.filled", int(fill.sum()))

    w(obsbuilder, "sample_heights", "obsbuilder.sample_heights", count=count_fill)
    w(obsbuilder, "apply_height_noise", "obsbuilder.apply_height_noise")
    w(obsbuilder.HistoryBuffer, "push_and_flatten", "obsbuilder.push_and_flatten")

    # reward
    w(reward, "compute_terms", "reward.compute_terms")

    # metrics
    def count_chamfer(counters, args, result, pre):
        _bump(counters, "metrics.map_vs_ground_truth.excluded", result is None)

    w(metrics, "map_vs_ground_truth", "metrics.map_vs_ground_truth", count=count_chamfer)
    w(metrics, "chamfer_one_way", "metrics.chamfer_one_way")
    w(metrics, "rte", "metrics.rte")
    w(metrics, "tracking_rms", "metrics.tracking_rms")
