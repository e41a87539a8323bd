"""End-to-end benchmark of elevsim: seeded scenarios through the public entry
points `elevsim.pipeline.run_scenario` and `run_step_sweep`.

    python3 perfbench/run.py --workload perception_gt --seed 0 --seconds 30 --trace 0

One process, closed loop: one scenario pass at a time, the next only after
the previous returns, until `--seconds` of passes have run. Every scenario
run's outputs are checked. The first pass in the process is cold (lazy
imports, first-touch allocation); users of `elevsim run` pay it on every
invocation, so it is timed and printed as `first_pass_s`. It is one sample
per process, too noisy to gate, so the warm passes after it give `sim_rate`
and `wall_s` as medians. Pass and set-up times are rescaled to a reference
host speed sampled during each pass (see speed.py); the times as measured
are printed beside them.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
and traced warm passes and prints the per-layer metrics: self time and calls
per layer entry point, counts at the same boundaries, and the tracing
overhead. Human-readable lines come first; the last line of standard output
is one JSON object. Spans and per-pass details go to `perfbench/out/`.
The exit code is non-zero if any output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# BLAS and OpenMP read their thread counts when numpy is first imported, so
# they are pinned before `speed` imports it; set-up probe children inherit them.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7
MIN_PASSES = 3  # the cold pass plus two warm ones

END_TO_END = {
    "sim_rate": "sim_s/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "chamfer_mean_cm": "cm",
}
PER_LAYER = {
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
    "host.ref_kernel_ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in (
        "pipeline", "scene", "sensorsim", "cloudfilter", "elevmap",
        "odometry", "obsbuilder", "reward", "metrics",
    )},
    "sensorsim.render_depth.ms_per_call": "ms",
    "sensorsim.render_depth.calls": "count",
    "sensorsim.render_depth.rays": "count",
    "sensorsim.render_depth.hit_ratio": "frac",
    "sensorsim.inject_sensor_noise.ms_per_call": "ms",
    "sensorsim.inject_sensor_noise.kept_ratio": "frac",
    "sensorsim.simulate_trajectory.ms": "ms",
    **{
        f"cloudfilter.{fn}.{key}": unit
        for fn in ("remove_outliers", "body_filter", "voxel_downsample")
        for key, unit in (("ms_per_call", "ms"), ("points_in", "count"), ("kept_ratio", "frac"))
    },
    "elevmap.integrate_cloud.ms_per_call": "ms",
    "elevmap.integrate_cloud.points_in": "count",
    "elevmap.integrate_cloud.skipped_ratio": "frac",
    "elevmap.recenter.ms_per_call": "ms",
    "elevmap.recenter.moved_ratio": "frac",
    "elevmap.drift_compensate.ms_per_call": "ms",
    "elevmap.drift_compensate.applied_ratio": "frac",
    "elevmap.region_points.ms_per_call": "ms",
    "metrics.map_vs_ground_truth.ms_per_call": "ms",
    "metrics.map_vs_ground_truth.excluded_ratio": "frac",
    "scene.ground_truth_patch.ms_per_call": "ms",
    "metrics.chamfer_one_way.ms_per_call": "ms",
    "metrics.tracking_rms.ms": "ms",
    "metrics.rte.calls": "count",
    "odometry.ekf.updates": "count",
    "odometry.ekf.rejected_ratio": "frac",
    "obsbuilder.sample_heights.ms_per_call": "ms",
    "obsbuilder.sample_heights.fill_ratio": "frac",
    "obsbuilder.apply_height_noise.ms_per_call": "ms",
    "obsbuilder.push_and_flatten.ms_per_call": "ms",
    "reward.compute_terms.ms_per_call": "ms",
    "scene.build_scene.ms": "ms",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Import elevsim and build the config in fresh interpreters, one at a
    time; each child is waited for before the next starts. Returns one
    (seconds, seconds at reference host speed) per child, rescaled by the
    kernel timed right before and after it."""
    samples = []
    kernels = [speed.kernel_median()]
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        took = float(proc.stdout.strip().splitlines()[-1])
        kernels.append(speed.kernel_median())
        samples.append((took, speed.at_reference_speed(took, statistics.fmean(kernels[-2:]))))
    return samples


def digest(rows: list[dict]) -> str:
    exact = [{k: float(v).hex() for k, v in sorted(r.items())} for r in rows]
    return hashlib.sha256(json.dumps(exact).encode()).hexdigest()[:16]


class Bench:
    """Runs passes of one workload, checks every scenario run's outputs and
    keeps per-pass wall times."""

    def __init__(self, pipeline, workload, seed: int):
        self.pipeline = pipeline
        self.kernels: list[float] = []  # mean reference-kernel time per pass
        self.wl = workload
        self.seed = seed
        self.sim_s = workload.sim_seconds_per_pass(seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.reference: tuple[str, bytes | None] | None = None
        self.digests: list[str] = []
        self.rows: list[dict] = []  # outputs of the first pass

    def _timed(self, fn, cfg):
        with speed.HostSpeed() as host:
            t0 = time.perf_counter()
            out = fn(cfg)
            gross = time.perf_counter() - t0
        wall = gross - host.busy_s
        self.kernels.append(host.kernel_s())
        return out, (wall, speed.at_reference_speed(wall, host.kernel_s()), gross)

    def run_pass(self) -> tuple[float, float, float] | None:
        """One pass; returns its wall seconds as measured (without the host
        speed samples), at reference host speed, and including the samples;
        None if it failed."""
        n = self.wl.scenarios_per_pass()
        self.attempted += n
        tmp = tempfile.mkdtemp(prefix="sweep-", dir=OUT) if self.wl.sweep else None
        try:
            if self.wl.sweep:
                cfg = self.pipeline.ScenarioConfig.from_dict(self.wl.config(self.seed, tmp))
                rows, walls = self._timed(self.pipeline.run_step_sweep, cfg)
                csv = (Path(tmp) / "metrics.csv").read_bytes()
            else:
                cfg = self.pipeline.ScenarioConfig.from_dict(self.wl.config(self.seed))
                result, walls = self._timed(self.pipeline.run_scenario, cfg)
                rows, csv = [result.metrics], None
        except Exception:  # a failed run is counted, reported and stops the loop
            self.failed += n
            self.failures.append("exception:\n" + traceback.format_exc())
            return None
        finally:
            if tmp is not None:
                shutil.rmtree(tmp, ignore_errors=True)
        outputs = [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]
        self.check(outputs, csv)
        return walls

    def check(self, rows: list[dict], csv: bytes | None) -> None:
        d = digest(rows)
        self.digests.append(d)
        if self.reference is None:
            self.reference = (d, csv)
            self.rows = rows
        repeat_ok = self.reference == (d, csv)
        lo_hi = self.wl.rte_band_m
        floor = self.wl.chamfer_floor_cm
        if len(rows) != self.wl.scenarios_per_pass():
            self.failures.append(f"expected {self.wl.scenarios_per_pass()} runs, got {len(rows)}")
            self.failed += self.wl.scenarios_per_pass()
            return
        for i, r in enumerate(rows):
            bad = []
            if r.get("truncated") != 0.0:
                bad.append(f"truncated={r.get('truncated')}")
            bad += [f"{k}={v} not finite" for k, v in r.items() if not math.isfinite(v)]
            chamfer = r.get("chamfer_mean_cm", math.nan)
            if floor is not None and not chamfer <= floor:
                bad.append(f"chamfer_mean_cm={chamfer} above {floor}")
            if lo_hi is not None and not lo_hi[0] <= r.get("rte_mean_m", math.nan) <= lo_hi[1]:
                bad.append(f"rte_mean_m={r.get('rte_mean_m')} outside {lo_hi}")
            if not repeat_ok:
                bad.append(f"outputs differ from the first pass ({d} != {self.reference[0]})")
            if bad:
                self.failed += 1
                self.failures.append(f"run {i}: " + "; ".join(bad))


def layer_metrics(tracer, passes, kernels: list[float]):
    """Per-layer metrics from the traced passes: times and calls per pass,
    self time per call, and the counters as per-call means or ratios."""
    times = tracer.self_times()
    traced_walls = [p[3] for p in passes if p[0]]
    n = len(traced_walls)
    c = tracer.counters

    def calls(name):
        return times.get(name, (0, 0))[0]

    def self_ns(name):
        return times.get(name, (0, 0))[1]

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    layer_ns = {}
    for name, (_, ns) in times.items():
        layer = name.split(".")[0]
        layer_ns[layer] = layer_ns.get(layer, 0) + ns
    out = {
        "trace.overhead_frac": statistics.median(p[2] for p in passes[1:] if p[0])
        / statistics.median(p[2] for p in passes[1:] if not p[0]) - 1.0,
        "trace.coverage_frac": sum(layer_ns.values()) / 1e9 / sum(traced_walls),
        "host.ref_kernel_ms": statistics.median(kernels) * 1e3,
    }
    for key in PER_LAYER:
        name, _, stat = key.rpartition(".")
        if stat == "self_ms":
            out[key] = layer_ns.get(name, 0) / n / 1e6
        elif stat == "ms_per_call":
            out[key] = self_ns(name) / calls(name) / 1e6 if calls(name) else 0.0
        elif stat == "ms":
            out[key] = self_ns(name) / n / 1e6
        elif stat == "calls":
            out[key] = calls(name) / n
    rd = "sensorsim.render_depth"
    out[rd + ".rays"] = c[rd + ".rays"] / max(1, calls(rd))
    out[rd + ".hit_ratio"] = ratio(rd + ".hits", rd + ".rays")
    for name in ("sensorsim.inject_sensor_noise", "cloudfilter.remove_outliers",
                 "cloudfilter.body_filter", "cloudfilter.voxel_downsample"):
        out[name + ".kept_ratio"] = ratio(name + ".out", name + ".in")
    for name in ("cloudfilter.remove_outliers", "cloudfilter.body_filter",
                 "cloudfilter.voxel_downsample", "elevmap.integrate_cloud"):
        out[name + ".points_in"] = c[name + ".in"] / max(1, calls(name))
    ic = "elevmap.integrate_cloud"
    out[ic + ".skipped_ratio"] = ratio(ic + ".skipped", ic + ".in")
    for name, counter in (("elevmap.recenter", "moved"), ("elevmap.drift_compensate", "applied"),
                          ("metrics.map_vs_ground_truth", "excluded")):
        out[f"{name}.{counter}_ratio"] = c[f"{name}.{counter}"] / max(1, calls(name))
    out["odometry.ekf.updates"] = c["odometry.ekf.updates"] / n
    out["odometry.ekf.rejected_ratio"] = ratio("odometry.ekf.rejected", "odometry.ekf.updates")
    sh = "obsbuilder.sample_heights"
    out[sh + ".fill_ratio"] = ratio(sh + ".filled", sh + ".samples")
    table = {
        name: {"calls_per_pass": k / n, "self_ms_per_pass": ns / n / 1e6,
               "ms_per_call": ns / k / 1e6}
        for name, (k, ns) in sorted(times.items())
    }
    return out, table


def run_passes(bench: Bench, seconds: float, traced_pass=None):
    """Closed loop until `seconds` are used up: stop before a pass that would
    overrun, but never before MIN_PASSES. With `traced_pass`, every other warm
    pass runs through it. Returns one (traced, *Bench.run_pass()) per pass,
    the cold pass first."""
    passes = []
    t_start = time.perf_counter()
    while True:
        use_trace = traced_pass is not None and len(passes) % 2 == 1
        walls = traced_pass(bench.run_pass) if use_trace else bench.run_pass()
        if walls is None:
            break
        passes.append((use_trace, *walls))
        typical = statistics.median(p[1] for p in passes[1:] or passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - t_start + typical > seconds:
            break
    return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "elevsim" / "pipeline.py").is_file():
        print(f"perfbench: no elevsim sources at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]

    setup = measure_setup(wl.name, args.seed) if args.trace == 0 else []

    sys.path.insert(0, str(SRC))
    import elevsim.pipeline as pipeline

    if Path(pipeline.__file__).resolve().parent != (SRC / "elevsim").resolve():
        print(f"perfbench: imported elevsim from {pipeline.__file__}", file=sys.stderr)
        return 2
    env = environment()
    bench = Bench(pipeline, wl, args.seed)
    lines = [
        f"workload {wl.name} seed {args.seed}: {bench.sim_s:g} simulated s per pass",
        f"env {json.dumps(env)}",
    ]

    if args.trace == 0:
        passes = run_passes(bench, args.seconds)
        metrics = {}
        if len(passes) > 1:
            warm = [p[2] for p in passes[1:]]
            metrics = {
                "sim_rate": statistics.median(bench.sim_s / w for w in warm),
                "wall_s": statistics.median(warm),
                "setup_s": statistics.median(s[1] for s in setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "chamfer_mean_cm": statistics.fmean(r["chamfer_mean_cm"] for r in bench.rows),
            }
            raw = [p[1] for p in passes[1:]]
            lines.append(f"first_pass_s: {passes[0][2]:.6g} s (cold pass, not gated)")
            lines.append(
                "as measured, not rescaled: sim_rate "
                f"{statistics.median(bench.sim_s / w for w in raw):.6g} sim_s/s, "
                f"wall_s {statistics.median(raw):.6g} s, first_pass_s {passes[0][1]:.6g} s, "
                f"setup_s {statistics.median(s[0] for s in setup):.6g} s"
            )
        units = END_TO_END
        extra = {"passes": passes, "setup_samples_s": setup}
        lines.append(f"passes: {len(passes)} (1 cold), wall s {[round(p[1], 3) for p in passes]}")
        lines.append(f"setup samples s {[round(s[0], 3) for s in setup]}")
    else:
        from tracer import Tracer, install_elevsim

        tracer = Tracer()

        def traced_pass(run):
            with tracer.installed(install_elevsim):
                return run()

        passes = run_passes(bench, args.seconds, traced_pass)
        metrics, table = {}, {}
        if sum(p[0] for p in passes) and sum(not p[0] for p in passes) > 1:
            metrics, table = layer_metrics(tracer, passes, bench.kernels)
        units = PER_LAYER
        extra = {"passes": passes, "functions": table}
        lines.append(f"passes: {len(passes)}, every other warm one traced")
        lines.append(f"{'span':40s} {'calls/pass':>10s} {'self ms/pass':>13s} {'ms/call':>9s}")
        for name, row in table.items():
            lines.append(
                f"{name:40s} {row['calls_per_pass']:10.1f} "
                f"{row['self_ms_per_pass']:13.3f} {row['ms_per_call']:9.4f}"
            )
        with open(OUT / f"spans-{wl.name}-seed{args.seed}.json", "w") as f:
            json.dump(tracer.dump(), f)

    lines.append(f"reference kernel ms per pass {[round(k * 1e3, 3) for k in bench.kernels]}")
    failed_frac = bench.failed / bench.attempted
    ekf_rte = [r["rte_mean_m"] for r in bench.rows if "rte_mean_m" in r]
    lines.append(f"outputs digest {bench.digests[0] if bench.digests else '-'}")
    for name, unit in units.items():
        if name in metrics:
            lines.append(f"{name}: {metrics[name]:.6g} {unit}")
    lines.append(
        f"failed_frac: {failed_frac:.6g} ({bench.failed} of {bench.attempted} scenario runs)"
    )
    if ekf_rte:
        lines.append(f"rte_mean_m: {statistics.fmean(ekf_rte):.6g} m")
    for failure in bench.failures:
        lines.append(f"FAILED {failure}")

    result = {
        "correct": bench.failed == 0 and set(metrics) == set(units),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "kernels_s": bench.kernels, "digests": bench.digests,
        "outputs": bench.rows, "failures": bench.failures, **extra, "result": result,
    }
    with open(OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
