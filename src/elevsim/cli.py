"""Command-line entry point: run scenarios, compare reports, export scenes."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline, scene


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="elevsim")
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run a seeded scenario end to end")
    run.add_argument("--config", type=Path, required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", type=Path, default=None)
    run.add_argument("--no-rear-camera", action="store_true")
    run.add_argument("--odometry", choices=pipeline.ODOMETRY_MODES, default=None)
    run.add_argument("--snapshot-every", type=float, default=None)

    cmp_ = sub.add_parser("compare", help="compare metric reports")
    cmp_.add_argument("reports", nargs="+", type=Path)

    exp = sub.add_parser("export-scene", help="write the scene heightfield as CSV")
    exp.add_argument("--config", type=Path, required=True)
    exp.add_argument("--out", type=Path, required=True)

    return parser


def _config_error(path: Path, e: Exception) -> int:
    print(f"config error in {path}: {e}", file=sys.stderr)
    return 2


def _output_error(path: Path, problem: str) -> int:
    print(f"output error: {path} {problem}", file=sys.stderr)
    return 2


def cmd_run(args) -> int:
    try:
        cfg = pipeline.ScenarioConfig.from_yaml(args.config)
        flags = {"seed": args.seed, "odometry": args.odometry,
                 "snapshot_every": args.snapshot_every}
        overrides = {key: value for key, value in flags.items() if value is not None}
        if args.out is not None or cfg.out_dir is None:
            overrides["out_dir"] = args.out or Path("elevsim_out")
        if args.no_rear_camera:
            overrides["use_rear_camera"] = False
            overrides["tag"] = (cfg.tag + "+no-rear") if cfg.tag else "no-rear"
        cfg = replace(cfg, **overrides)
    except Exception as e:  # config errors get a diagnostic, nonzero exit
        return _config_error(args.config, e)
    try:  # before any work, so that a file in the way fails at once
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        return _output_error(cfg.out_dir, f"cannot be made a directory: {e.strerror}")
    if cfg.sweep_step_heights:
        for row in pipeline.run_step_sweep(cfg):
            print(
                f"step {row['step_height_m']:.3f} m: success={int(row.get('success', 0))}"
                f" chamfer={row.get('window_chamfer_mean_cm', float('nan')):.3f} cm"
            )
    else:
        result = pipeline.run_scenario(cfg)
        for k, v in result.metrics.items():
            print(f"{k} = {v:.6g}")
        if result.metrics["truncated"]:
            print("warning: trajectory left the terrain and was truncated", file=sys.stderr)
    print(f"reports written to {cfg.out_dir}")
    return 0


def cmd_compare(args) -> int:
    try:
        table = pipeline.compare_runs(args.reports)
    except (OSError, ValueError) as e:  # too few reports, or one unreadable
        print(f"compare error: {e}", file=sys.stderr)
        return 2
    width = max((len(name) for name, _, _ in table), default=len("metric"))
    header = " | ".join(p.parent.name or str(p) for p in args.reports)
    # one delta column per run but the last, each relative to the last run
    delta_header = " | ".join(["delta%"] * (len(args.reports) - 1))
    print(f"{'metric':<{width}} | {header} | {delta_header}")
    for name, vals, deltas in table:
        cells = " | ".join("-" if v is None else f"{v:.6g}" for v in vals)
        d = " | ".join("-" if delta is None else f"{delta:+.2f}%" for delta in deltas)
        print(f"{name:<{width}} | {cells} | {d}")
    return 0


def cmd_export_scene(args) -> int:
    try:
        cfg = pipeline.ScenarioConfig.from_yaml(args.config)
    except Exception as e:
        return _config_error(args.config, e)
    if args.out.is_dir():
        return _output_error(args.out, "is a directory, not a CSV file")
    try:
        args.out.parent.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        return _output_error(args.out.parent, f"cannot be made a directory: {e.strerror}")
    hf = scene.build_scene(cfg.scene_spec, scene.GT_PATCH_RESOLUTION)
    hf.to_csv(args.out)
    print(f"heightfield {hf.extent[0]}x{hf.extent[1]} written to {args.out}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING)
    args = _build_parser().parse_args(argv)
    if args.verb == "run":
        return cmd_run(args)
    if args.verb == "compare":
        return cmd_compare(args)
    return cmd_export_scene(args)


if __name__ == "__main__":
    sys.exit(main())
