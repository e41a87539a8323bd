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
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import cloudfilter, metrics, obsbuilder, reward, scene
from .elevmap import DEFAULT_RESOLUTION, DEFAULT_SIZE, ElevationMap, SensorVarianceModel
from .geometry import Pose, quat_normalize, quat_rotate, yaw_from_quat
from .odometry import (
    EstimatorErrors,
    ImuErrors,
    SourceErrorModel,
    VioErrors,
    fuse_streams,
    make_source_streams,
)
from .pointcloud import PointCloud
from .schema import BOOL, COUNT, FINITE, POSITIVE, Validated, check, interval, rule, section
from .sensorsim import (
    Q_STAND,
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

SIM_RATE = 300  # lcm of the three pipeline rates
CONTROL_EVERY = SIM_RATE // 50
CLOUD_EVERY = SIM_RATE // 30
CHAMFER_EVERY = SIM_RATE // 20

ODOMETRY_MODES = ("gt", "ekf-vio", "ekf-novio")
# one cell may not outgrow the map
MAP_RESOLUTION = interval(f"in (0, {DEFAULT_SIZE}] m", 0.0, DEFAULT_SIZE, hi_closed=True)


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
    start_yaw: float = rule(FINITE, default=0.0)
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
        res = scene.GT_PATCH_RESOLUTION
        nx, ny = scene.grid_shape(self.scene_spec, res)
        grid = scene.Heightfield(res, (0.0, 0.0), np.zeros(nx), ny)
        check_start(grid, self.start_xy, self.start_yaw)
        if self.sweep_step_heights:
            if self.snapshot_every is not None:
                raise ValueError("snapshot_every is not supported in a step sweep")
            heights = np.asarray(self.sweep_step_heights, dtype=float)
            if heights.ndim != 1 or not (np.isfinite(heights) & (heights != 0)).all():
                raise ValueError(f"sweep_step_heights must be finite and non-zero: {heights}")
            if not any(isinstance(p, scene.Step) for p in self.scene_spec.primitives):
                raise ValueError("sweep_step_heights needs a Step primitive in the scene")
        settle = metrics.TRACKING_SETTLE_S
        if all(t1 - t0 <= settle for t0, t1, _ in self.profile.boundaries()):
            raise ValueError(f"no command segment outlasts the {settle} s tracking settle time")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        # scalar knobs: the fields with a plain default, coerced by their rules
        scalars = {f.name for f in fields(cls) if f.default is not MISSING}
        d = section(d, "config", scalars | {"scene", "command", "sensor_noise",
                                            "height_noise", "source_errors"})
        sc = d.pop("scene", "obstacle")
        if sc == "obstacle":
            spec = scene.obstacle_scene()
        elif sc == "flat":
            spec = scene.SceneSpec([scene.FlatRegion(0.0)], extent=(8.0, 3.0))
        elif isinstance(sc, dict):
            spec = scene.SceneSpec.from_dict(sc)
        else:
            raise ValueError(f"unknown scene {sc!r}")
        profile = CommandProfile(d.pop("command", [[12.0, [0.5, 0.0, 0.0]]]))
        kwargs = {key: d.pop(key) for key in scalars & d.keys()}
        noise = section(d.pop("sensor_noise", {}), "sensor_noise", SensorNoise)
        kwargs["sensor_noise"] = SensorNoise(**noise)
        # the policy's observation noise: no run output reads it, so the
        # section is validated and then discarded
        hn = section(d.pop("height_noise", {}), "height_noise", ("sample_sigma", "bias_sigma"))
        obsbuilder.HeightNoiseState(sample_sigma=hn.get("sample_sigma", 0.0),
                                    bias_sigma=hn.get("bias_sigma", (0.0, 0.0, 0.0)))
        se = section(d.pop("source_errors", {}), "source_errors", SourceErrorModel)
        kwargs["source_errors"] = SourceErrorModel(
            estimator=EstimatorErrors(
                **section(se.get("estimator", {}), "source_errors.estimator", EstimatorErrors)),
            imu=ImuErrors(**section(se.get("imu", {}), "source_errors.imu", ImuErrors)),
            vio=VioErrors(**section(se.get("vio", {}), "source_errors.vio", VioErrors)),
        )
        return cls(scene_spec=spec, profile=profile, **kwargs)

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
    """Stages: precompute, one map loop over the ticks, reward, report."""
    if cfg.snapshot_every is not None and cfg.out_dir is None:
        raise ValueError("snapshot_every needs an out_dir to write the snapshots to")
    t_start = time.perf_counter()
    # child 2 fed the height noise that was dropped; odometry keeps child 3
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_front, rng_rear = (np.random.default_rng(s) for s in seeds[:2])
    odom_seed = int(seeds[3].generate_state(1)[0])

    hf = scene.build_scene(cfg.scene_spec, scene.GT_PATCH_RESOLUTION)
    traj = simulate_trajectory(
        cfg.profile,
        hf,
        dt=1.0 / SIM_RATE,
        start_xy=cfg.start_xy,
        start_yaw=cfg.start_yaw,
    )
    est_pos, est_vtrack = _estimate_odometry(cfg, traj, odom_seed)

    cameras = [(default_front_camera(), rng_front)]
    if cfg.use_rear_camera:
        cameras.append((default_rear_camera(), rng_rear))
    variance_model = SensorVarianceModel()
    emap = ElevationMap(resolution=cfg.map_resolution, center=est_pos[0][:2])
    # per-rate results: the default-fill fraction of each control tick and
    # the chamfer (cm) of each chamfer tick, NaN where it was excluded
    fill = np.empty(len(traj.t[::CONTROL_EVERY]))
    chamfer = np.full(len(traj.t[::CHAMFER_EVERY]), np.nan)
    next_snapshot = 0.0 if cfg.snapshot_every else None
    if cfg.out_dir is not None:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)

    # every tick's poses in stacked calls, row k for the rate's tick k: the
    # cloud ticks' true and estimated base poses, each camera's and the body
    # capsules; the control ticks' estimate; the chamfer ticks' estimate and
    # truth. The estimate keeps the true orientation
    cloud_true = Pose(traj.pos[::CLOUD_EVERY], traj.quat[::CLOUD_EVERY])
    cloud_est = Pose(est_pos[::CLOUD_EVERY], traj.quat[::CLOUD_EVERY])
    views = [
        (cam, rng, cloud_true.compose(cam.mount), cloud_est.compose(cam.mount))
        for cam, rng in cameras
    ]
    cap_p0, cap_p1, cap_r = cloudfilter.body_capsules(cloud_est, traj.q[::CLOUD_EVERY])
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
            k = i // CLOUD_EVERY
            caps = (cap_p0[k], cap_p1[k], cap_r)
            for cam, rng, cam_true, cam_est in views:
                cam_pose = cam_est[k]
                world = _world_cloud(cfg, hf, cam, rng, cam_true[k], cam_pose, caps, t)
                # the drift shift moves heights, not cells: one lookup serves both
                cells = emap.lookup(world.points[:, :2])
                if cfg.drift_compensation:
                    emap.drift_compensate(world, cells=cells)
                emap.integrate_cloud(world, cam_pose.position, variance_model, t, cells=cells)

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


def _world_cloud(cfg: ScenarioConfig, hf: scene.Heightfield, cam, rng, cam_true: Pose,
                 cam_est: Pose, caps, t: float) -> PointCloud:
    """One camera frame's cloud for the map: rendered from the true camera
    pose, noised, moved to the world by the estimated pose, then through the
    outlier, body and voxel filters. It never reads the map."""
    cloud = render_depth(cam, cam_true, hf, t)
    cloud = inject_sensor_noise(cloud, cfg.sensor_noise, rng)
    world = cloud.transformed(cam_est)
    world = cloudfilter.remove_outliers(world)
    world = cloudfilter.body_filter(world, caps)
    return cloudfilter.voxel_downsample(world, cfg.map_resolution)


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
    out: dict[str, float] = {}
    with open(path) as f:
        if next(f, None) is None:
            raise ValueError(f"{path} is empty, not a metrics report")
        for line in f:
            parts = line.rstrip("\n").split(",")
            if parts[0] == "sweep":
                raise ValueError(f"{path} is a step-sweep report, not a metrics report")
            if len(parts) >= 2:
                out[parts[0]] = float(parts[1])
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
