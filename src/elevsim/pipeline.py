"""End-to-end seeded scenario runner.

One scenario: build terrain, integrate the kinematic trajectory, derive the
odometry estimate (ground truth or EKF fusion, optionally with an injected
constant drift), render and filter depth clouds, maintain the elevation map
with drift compensation, sample the height grid at the control rate for its
default-fill fraction, and score the run with the reward and the evaluation
metrics. Everything is driven by one seed hierarchy: identical config + seed
gives byte-identical outputs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import cloudfilter, metrics, obsbuilder, reward, scene
from .elevmap import DEFAULT_RESOLUTION, DEFAULT_SIZE, MAX_CELLS, ElevationMap, SensorVarianceModel
from .geometry import Pose, quat_normalize, quat_rotate, yaw_from_quat
from .odometry import SourceErrorModel, fuse_streams, make_source_streams
from .schema import BOOL, COUNT, FINITE, POSITIVE, Validated, build, check, interval, rule, section
from .sensorsim import (
    Q_STAND,
    SIM_RATE,
    CommandProfile,
    SensorNoise,
    Trajectory,
    check_start,
    default_front_camera,
    default_rear_camera,
    inject_sensor_noise,
    render_depth,
    simulate_trajectory,
)

CONTROL_EVERY = SIM_RATE // 50
CLOUD_EVERY = SIM_RATE // 30
CHAMFER_EVERY = SIM_RATE // 20

ODOMETRY_MODES = ("gt", "ekf-vio", "ekf-novio")
# one cell may not outgrow the map, nor the map its MAX_CELLS a side
_FINEST = DEFAULT_SIZE / MAX_CELLS
MAP_RESOLUTION = interval(f"in [{_FINEST}, {DEFAULT_SIZE}] m", _FINEST, DEFAULT_SIZE, True, True)


# Map-quality proxy for step traversal: the run counts as a success if the
# mean chamfer error during the crossing window stays under a threshold and no
# height sample falls back to the default fill. This is a perception proxy,
# not a fall-based criterion (the simulator has no dynamics).
SUCCESS_CHAMFER_CM = 3.0
SUCCESS_MAX_FILL_FRACTION = 0.0
STEP_WINDOW_MARGIN = 0.5  # meters before/after the obstacle footprint


@dataclass(frozen=True)
class ScenarioConfig(Validated):
    scene_spec: scene.SceneSpec
    profile: CommandProfile
    seed: int = rule(COUNT, default=0)
    odometry: str = "gt"
    use_rear_camera: bool = rule(BOOL, default=True)
    drift_compensation: bool = rule(BOOL, default=True)
    injected_drift: np.ndarray = rule(FINITE, 3, default=(0.0, 0.0, 0.0))  # m/s
    sensor_noise: SensorNoise = field(default_factory=SensorNoise)
    source_errors: SourceErrorModel = field(default_factory=SourceErrorModel)
    map_resolution: float = rule(MAP_RESOLUTION, default=DEFAULT_RESOLUTION)
    start_xy: tuple[float, float | None] = rule(coerce=tuple, default=(0.8, None))
    sweep_step_heights: list[float] | None = None
    out_dir: Path | None = rule(coerce=Path, optional=True, default=None)
    snapshot_every: float | None = rule(POSITIVE, optional=True, default=None)
    tag: str = ""

    def __post_init__(self):
        super().__post_init__()
        if self.odometry not in ODOMETRY_MODES:
            raise ValueError(f"odometry mode must be one of {ODOMETRY_MODES}")
        # a y of None is the middle of the terrain
        xy = self.start_xy
        check("start_xy", xy[:1] + tuple(0.0 if y is None else y for y in xy[1:]), FINITE, 2)
        # the start footprint must lie on the grid that build_scene will make
        nx, ny = scene.grid_shape(self.scene_spec)
        check_start(scene.Heightfield(np.zeros(nx), ny), self.start_xy)
        if self.sweep_step_heights is not None:
            if self.snapshot_every is not None:
                raise ValueError("snapshot_every is not supported in a step sweep")
            try:
                h = np.asarray(self.sweep_step_heights, dtype=float)
            except (TypeError, ValueError, OverflowError):
                h = np.zeros(0)
            if h.ndim != 1 or not (h.size and np.isfinite(h).all() and h.all()):
                raise ValueError("sweep_step_heights must be a non-empty list of finite, non-zero"
                                 f" heights: {self.sweep_step_heights!r}")
            object.__setattr__(self, "sweep_step_heights", h.tolist())  # a quoted "0.1" as 0.1
            if not any(isinstance(p, scene.Step) for p in self.scene_spec.primitives):
                raise ValueError("sweep_step_heights needs a Step primitive in the scene")
        # a metrics.csv row is `metric,value,tag`
        if not isinstance(self.tag, str) or {",", "\r", "\n"} & set(self.tag):
            raise ValueError(f"tag must be a string without a comma or line break: {self.tag!r}")
        settle = metrics.TRACKING_SETTLE_S
        if all(t1 - t0 <= settle for t0, t1, _ in self.profile.boundaries()):
            raise ValueError(f"no command segment outlasts the {settle} s tracking settle time")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """`schema.build` of a mapping whose `scene` (a mapping, "obstacle" or
        "flat") is `scene_spec` and whose `command` is `profile`."""
        names = [f.name for f in fields(cls) if f.name not in ("scene_spec", "profile")]
        d = section(d, "config", [*names, "scene", "command", "height_noise"])
        sc = d.pop("scene", "obstacle")
        if sc == "obstacle":
            d["scene_spec"] = scene.obstacle_scene()
        elif sc == "flat":
            d["scene_spec"] = scene.SceneSpec([scene.FlatRegion(0.0)], extent=(8.0, 3.0))
        elif isinstance(sc, dict):
            d["scene_spec"] = build(scene.SceneSpec, sc, "scene")
        else:
            raise ValueError(f"unknown scene {sc!r}")
        d["profile"] = CommandProfile(d.pop("command", [[12.0, [0.5, 0.0, 0.0]]]))
        cfg = build(cls, {key: value for key, value in d.items() if key != "height_noise"})
        # the policy's observation noise: no run output reads it, so the
        # section is validated and then discarded
        hn = section(d.get("height_noise", {}), "height_noise", ("sample_sigma", "bias_sigma"))
        try:
            obsbuilder.HeightNoiseState(sample_sigma=hn.get("sample_sigma", 0.0),
                                        bias_sigma=hn.get("bias_sigma", (0.0, 0.0, 0.0)))
        except ValueError as e:
            raise ValueError(f"height_noise.{e}") from None
        return cfg

    @classmethod
    def from_yaml(cls, path) -> "ScenarioConfig":
        import yaml  # only YAML configs pay its import

        with open(path) as f:
            d = yaml.safe_load(f)
        return cls.from_dict({} if d is None else d)  # an empty file, not `[]` or `false`


@dataclass
class ScenarioResult:
    metrics: dict[str, float]
    est_trajectory: metrics.TrajectorySamples
    gt_trajectory: metrics.TrajectorySamples
    emap: ElevationMap


def _estimate_odometry(cfg: ScenarioConfig, traj: Trajectory, rng_seed: int):
    """Per-sim-step estimated positions and the measured command-tracking
    triple (yaw-frame v_x, v_y, yaw rate) used by the tracking RMS metric.
    Orientation is IMU-driven and near ground truth, so every mode takes
    `traj.quat` as the estimated orientation."""
    ts = traj.t
    if cfg.odometry == "gt":
        pos = traj.pos.copy()
        vel_world = quat_rotate(traj.quat, traj.v_body)
    else:
        streams = make_source_streams(traj, cfg.source_errors, rng_seed)
        fused = fuse_streams(streams, traj, use_vio=(cfg.odometry == "ekf-vio"))
        pos = metrics._interp_vec(ts, fused.t, fused.positions)
        vel_world = metrics._interp_vec(ts, fused.t, fused.velocities)
    yaws = yaw_from_quat(quat_normalize(traj.quat))
    c, s_ = np.cos(yaws), np.sin(yaws)
    v_track = np.stack(
        [
            c * vel_world[:, 0] + s_ * vel_world[:, 1],
            -s_ * vel_world[:, 0] + c * vel_world[:, 1],
            traj.w_body[:, 2],
        ],
        axis=1,
    )
    pos = pos + np.outer(ts, cfg.injected_drift)
    return pos, v_track


def _step_window(spec: scene.SceneSpec) -> tuple[float, float] | None:
    for p in spec.primitives:
        if isinstance(p, (scene.Step, scene.Platform)):
            a, b = p.x_interval()
            return (a - STEP_WINDOW_MARGIN, b + STEP_WINDOW_MARGIN)
    return None


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Stages: precompute, the frame stage, one map loop over the ticks, reward, report."""
    if cfg.snapshot_every is not None and cfg.out_dir is None:
        raise ValueError("snapshot_every needs an out_dir to write the snapshots to")
    t_start = time.perf_counter()
    # child 2 fed the height noise that was dropped; odometry keeps child 3
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    rngs = [np.random.default_rng(s) for s in seeds[:2]]  # front, rear camera
    odom_seed = int(seeds[3].generate_state(1)[0])

    hf = scene.build_scene(cfg.scene_spec)
    traj = simulate_trajectory(cfg.profile, hf, start_xy=cfg.start_xy)
    est_pos, est_vtrack = _estimate_odometry(cfg, traj, odom_seed)

    frames = _frames(cfg, hf, traj, est_pos, rngs)
    variance_model = SensorVarianceModel()
    emap = ElevationMap(resolution=cfg.map_resolution, center=est_pos[0][:2])
    # per-rate results: the default-fill fraction of each control tick and
    # the chamfer (cm) of each chamfer tick, NaN where it was excluded
    fill = np.empty(len(traj.t[::CONTROL_EVERY]))
    chamfer = np.full(len(traj.t[::CHAMFER_EVERY]), np.nan)
    next_snapshot = 0.0 if cfg.snapshot_every else None
    if cfg.out_dir is not None:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)

    # the control ticks' estimate and the chamfer ticks' estimate and truth
    # in stacked calls, row k for the rate's tick k
    control_est = Pose(est_pos[::CONTROL_EVERY], traj.quat[::CONTROL_EVERY])
    chamfer_est = Pose(est_pos[::CHAMFER_EVERY], traj.quat[::CHAMFER_EVERY])
    chamfer_true = Pose(traj.pos[::CHAMFER_EVERY], traj.quat[::CHAMFER_EVERY])

    # map loop: only the stages that read or write the map run per tick
    for i in range(len(traj)):
        t = traj.t[i]
        snapshot = next_snapshot is not None and t >= next_snapshot
        if i % CLOUD_EVERY and i % CONTROL_EVERY and i % CHAMFER_EVERY and not snapshot:
            continue
        if i % CLOUD_EVERY == 0:
            for origin, world in next(frames):
                # the drift shift moves heights, not cells: one lookup serves both
                cells = emap.lookup(world.points[:, :2])
                if cfg.drift_compensation:
                    emap.drift_compensate(world, cells=cells)
                emap.integrate_cloud(world, origin, variance_model, t, cells=cells)

        if i % CONTROL_EVERY == 0:
            emap.recenter(est_pos[i][:2])
            k = i // CONTROL_EVERY
            fill[k] = obsbuilder.sample_heights(emap, control_est[k])[2].mean()

        if i % CHAMFER_EVERY == 0:
            k = i // CHAMFER_EVERY
            c = metrics.map_vs_ground_truth(emap, hf, chamfer_est[k], chamfer_true[k])
            if c is not None:
                chamfer[k] = c

        if snapshot:
            emap.to_csv(cfg.out_dir / f"map_{t:07.3f}.csv")
            next_snapshot += cfg.snapshot_every

    gt_traj = metrics.TrajectorySamples(t=traj.t, positions=traj.pos, quats=traj.quat)
    est_traj = metrics.TrajectorySamples(
        t=gt_traj.t.copy(), positions=est_pos, quats=traj.quat.copy()
    )
    out = _report(cfg, traj, gt_traj, est_traj, est_vtrack, chamfer, fill,
                  _reward_mean(cfg, traj, hf), emap.total_shift)
    out["wall_time_s"] = round(time.perf_counter() - t_start, 3)

    if cfg.out_dir is not None:
        write_metrics(cfg.out_dir, out, cfg.tag)
        est_traj.save_csv(cfg.out_dir / "trajectory_est.csv")
        gt_traj.save_csv(cfg.out_dir / "trajectory_gt.csv")
    return ScenarioResult(
        metrics=out,
        est_trajectory=est_traj,
        gt_trajectory=gt_traj,
        emap=emap,
    )


def _frames(cfg: ScenarioConfig, hf: scene.Heightfield, traj: Trajectory, est_pos: np.ndarray,
            rngs: list[np.random.Generator]):
    """The frame stage: per cloud tick, a list of one (sensor origin, world
    cloud) per camera, each camera drawing its noise from its own generator
    in `rngs` (front, rear). A cloud is rendered from the true camera pose,
    noised, moved to the world by the estimated pose, then put through the
    outlier, body and voxel filters. It never reads the map."""
    cameras = [default_front_camera(), default_rear_camera()][: 2 if cfg.use_rear_camera else 1]
    # the cloud ticks' poses in stacked calls, row k for cloud tick k; the
    # estimate keeps the true orientation
    true = Pose(traj.pos[::CLOUD_EVERY], traj.quat[::CLOUD_EVERY])
    est = Pose(est_pos[::CLOUD_EVERY], traj.quat[::CLOUD_EVERY])
    views = [(c, rng, true.compose(c.mount), est.compose(c.mount)) for c, rng in zip(cameras, rngs)]
    p0, p1, r = cloudfilter.body_capsules(est, traj.q[::CLOUD_EVERY])
    for k, t in enumerate(traj.t[::CLOUD_EVERY]):
        frame = []
        for cam, rng, cam_true, cam_est in views:
            cloud = render_depth(cam, cam_true[k], hf, t)
            cloud = inject_sensor_noise(cloud, cfg.sensor_noise, rng)
            world = cloudfilter.remove_outliers(cloud.transformed(cam_est[k]), cam, cloud.ranges())
            world = cloudfilter.body_filter(world, (p0[k], p1[k], r))
            world = cloudfilter.voxel_downsample(world, cfg.map_resolution)
            frame.append((cam_est[k].position, world))
        yield frame


def _reward_mean(cfg: ScenarioConfig, traj: Trajectory, hf: scene.Heightfield) -> float:
    """Mean reward over the control ticks, in one stacked reward call. The
    reward reads only the trajectory and the terrain, never the map."""
    st = traj.state(np.arange(0, len(traj), CONTROL_EVERY))
    # a tick's action is its joint position; before the first the robot stands
    prev_q = np.vstack([Q_STAND, st.q[:-1]])
    prev_dq = np.vstack([np.zeros(12), st.dq[:-1]])
    b = reward.compute_terms(
        st, cfg.profile.at(st.t), st.q, prev_q, np.zeros(12), 0, reward.RewardConfig(),
        joint_accel=(st.dq - prev_dq) / (CONTROL_EVERY / SIM_RATE),
        terrain_height=hf.heights_at(st.position[:, :2], fill=0.0),
    )
    return float(np.mean(b.total))


def _report(cfg: ScenarioConfig, traj: Trajectory, gt_traj: metrics.TrajectorySamples,
            est_traj: metrics.TrajectorySamples, est_vtrack: np.ndarray,
            chamfer: np.ndarray, fill: np.ndarray, reward_mean: float,
            total_shift: float) -> dict[str, float]:
    """The run's metrics in report order, from the map loop's per-rate
    arrays (`chamfer` at 20 Hz, `fill` at 50 Hz) and the other stages."""
    out: dict[str, float] = {}
    scored = ~np.isnan(chamfer)
    out["chamfer_mean_cm"] = float(np.mean(chamfer[scored])) if scored.any() else np.nan
    out["chamfer_windows"] = float(scored.sum())
    out["chamfer_excluded"] = float((~scored).sum())
    window = _step_window(cfg.scene_spec)
    if window is not None:
        x = traj.pos[:, 0]
        inside = (window[0] <= x) & (x <= window[1])
        window_chamfer = chamfer[inside[::CHAMFER_EVERY] & scored]
        window_fill = fill[inside[::CONTROL_EVERY]]
        if len(window_chamfer):
            out["window_chamfer_mean_cm"] = float(np.mean(window_chamfer))
        if len(window_fill):
            out["window_fill_fraction_max"] = float(np.max(window_fill))
    if gt_traj.arc_lengths()[-1] >= 1.0 and (
        cfg.odometry != "gt" or cfg.injected_drift.any()
    ):
        out["rte_mean_m"] = metrics.rte(est_traj, gt_traj).mean
    rms, skipped = metrics.tracking_rms(
        traj.t[::CONTROL_EVERY], est_vtrack[::CONTROL_EVERY], cfg.profile
    )
    out["tracking_rms_vx"] = float(rms[0])
    out["tracking_rms_vy"] = float(rms[1])
    out["tracking_rms_wz"] = float(rms[2])
    out["tracking_segments_skipped"] = float(skipped)
    out["reward_mean"] = reward_mean
    # the policy input size: a history of observation frames
    out["obs_dim"] = float(obsbuilder.HISTORY_STEPS * obsbuilder.FRAME_DIM)
    out["map_total_shift_m"] = float(total_shift)
    out["truncated"] = float(traj.truncated)
    if window is not None:
        # a missing window value is NaN, which fails its comparison
        out["success"] = float(
            out.get("window_chamfer_mean_cm", np.nan) <= SUCCESS_CHAMFER_CM
            and out.get("window_fill_fraction_max", np.nan) <= SUCCESS_MAX_FILL_FRACTION
        )
    return out


def run_step_sweep(cfg: ScenarioConfig) -> list[dict[str, float]]:
    """One sub-run per step height; success uses the map-quality proxy."""
    rows = []
    for h in cfg.sweep_step_heights or []:
        # a sweeping config has a Step (checked at construction); sweep the first
        prims = list(cfg.scene_spec.primitives)
        k = next(i for i, p in enumerate(prims) if isinstance(p, scene.Step))
        prims[k] = replace(prims[k], height=h)
        sub = replace(
            cfg,
            scene_spec=scene.SceneSpec(prims, cfg.scene_spec.extent),
            sweep_step_heights=None,
            out_dir=None,
        )
        # only the metrics are kept, so that a sub-run's map is freed before
        # the next one builds its own
        rows.append({"step_height_m": h, **run_scenario(sub).metrics})
    if cfg.out_dir is not None:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        keys = ["step_height_m", "success", "window_chamfer_mean_cm", "chamfer_mean_cm"]
        with open(cfg.out_dir / "metrics.csv", "w") as f:
            f.write("metric," + ",".join(k for k in keys) + "\n")
            for row in rows:
                f.write(
                    "sweep,"
                    + ",".join(_fmt(row.get(k, float("nan"))) for k in keys)
                    + "\n"
                )
    return rows


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def write_metrics(out_dir: Path, values: dict[str, float], tag: str) -> None:
    # wall time is excluded from the CSV so identical runs are byte-identical
    rows = {k: v for k, v in values.items() if k != "wall_time_s"}
    with open(out_dir / "metrics.csv", "w") as f:
        f.write("metric,value,tag\n")
        for k in sorted(rows):
            f.write(f"{k},{_fmt(rows[k])},{tag}\n")
    with open(out_dir / "metrics.json", "w") as f:
        json.dump({"tag": tag, "metrics": rows}, f, indent=2, sort_keys=True)


def read_metrics_csv(path) -> dict[str, float]:
    """The metrics of a `write_metrics` report, which starts with the header
    `metric,value,tag`; any other file is a ValueError that names it."""
    out: dict[str, float] = {}
    with open(path) as f:
        header = next(f, None)
        if header is None:
            raise ValueError(f"{path} is empty, not a metrics report")
        if header.startswith("metric,step_height_m,"):
            raise ValueError(f"{path} is a step-sweep report, not a metrics report")
        if header.rstrip("\n") != "metric,value,tag":
            raise ValueError(f"{path} is not a metrics report: its first line is"
                             f" {header.rstrip()!r}, not 'metric,value,tag'")
        for n, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split(",")
            if not line.strip():
                continue
            try:
                out[parts[0]] = float(parts[1])
            except (IndexError, ValueError):
                raise ValueError(f"{path} line {n} is not a metric,value,tag row with a number"
                                 f" value: {line.rstrip()!r}") from None
    return out


def compare_runs(paths: list) -> list[tuple[str, list[float | None], list[float | None]]]:
    """Side-by-side metric comparison; deltas are percentages of each run
    but the last relative to the last one. Metrics missing from a run are
    left as gaps, and so are their deltas.
    """
    if len(paths) < 2:
        raise ValueError("need at least two reports to compare")
    reports = [read_metrics_csv(p) for p in paths]
    names = sorted(set().union(*[set(r) for r in reports]))
    table = []
    for name in names:
        vals = [r.get(name) for r in reports]
        base = vals[-1]
        deltas = [
            None if v is None or base is None or base == 0 else (v - base) / base * 100.0
            for v in vals[:-1]
        ]
        table.append((name, vals, deltas))
    return table
