"""Kinematic robot trajectory and ray-cast depth sensing.

The robot motion is kinematic: commanded body-frame velocity integrated over
yaw, base height glued to the terrain plus the nominal trunk height. The trot
oscillator only exists so the body filter and air-time bookkeeping have
realistic inputs. Depth cameras are pinhole models whose rays are intersected
with the heightfield surface in closed form: the heightfield is one
x-profile extruded along y (`Heightfield.profile`), so a ray's first hit is
the earliest entry into one box per run of equal height
(`Heightfield.x_runs`), with no march step or refinement tolerance. A ray
that leaves the grid never hits. A ray tests only a band of two runs at a
time, from the first run of its x order whose top comes within reach of it
(a slope bound per run, read with one `searchsorted`), so a frame's cost
follows its rays rather than the runs in view; the ranges keep the bits of
a test of every run.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .geometry import Pose, quat_conj, quat_from_euler, quat_rotate, rotz
from .pointcloud import PointCloud, empty_cloud
from .scene import Heightfield, OutOfBoundsError
from .schema import NON_NEGATIVE, POSITIVE, UNIT, Validated, check, interval, rule

log = logging.getLogger(__name__)

N_JOINTS = 12
N_FEET = 4

# Go1-like standing configuration: (hip, thigh, calf) x (FL, FR, RL, RR)
Q_STAND = np.array([0.0, 0.8, -1.5] * 4)
# hip positions in the base frame, same foot order
HIP_OFFSETS = np.array(
    [
        [0.188, 0.128, 0.0],
        [0.188, -0.128, 0.0],
        [-0.188, 0.128, 0.0],
        [-0.188, -0.128, 0.0],
    ]
)
TROT_PHASE_OFFSETS = np.array([0.0, np.pi, np.pi, 0.0])
TROT_FREQUENCY = 2.0  # strides per second
TROT_DUTY = 0.5  # stance fraction of the stride
SWING_AMPLITUDE = 0.3  # rad, thigh/calf oscillation
TRUNK_HEIGHT = 0.30  # nominal base height above terrain
PITCH_TAU = 0.2  # s, terrain-slope low-pass time constant
FOV = interval("in (0, pi)", 0.0, np.pi)  # a camera's horizontal and vertical field of view


@dataclass
class RobotState:
    """One tick of the robot's state, or a stack of N ticks whose fields
    are (N,) and (N, ...) arrays; `Trajectory.state` gives either."""

    t: float
    position: np.ndarray  # (3,) world
    quat: np.ndarray  # (4,) wxyz, unit
    lin_vel_body: np.ndarray  # (3,)
    ang_vel_body: np.ndarray  # (3,)
    q: np.ndarray  # (12,)
    dq: np.ndarray  # (12,)
    foot_contacts: np.ndarray  # (4,) bool
    foot_air_times: np.ndarray  # (4,) seconds, 0 while in stance
    foot_touchdown_air: np.ndarray  # (4,) completed air time, nonzero only on touchdown tick

    @property
    def pose(self) -> Pose:
        return Pose(self.position, self.quat)


@dataclass(frozen=True)
class CameraModel(Validated):
    name: str
    mount: Pose  # relative to base
    h_fov: float = rule(FOV)  # radians
    v_fov: float = rule(FOV)
    width: int
    height: int
    min_range: float
    max_range: float

    def __post_init__(self):
        super().__post_init__()
        if not (0 <= self.min_range < self.max_range):
            raise ValueError("need 0 <= min_range < max_range")

    def ray_directions(self) -> np.ndarray:
        """Unit ray directions in the sensor frame (x forward, y left, z up);
        read-only and shared by every camera of the same geometry."""
        return _unit_rays(self.h_fov, self.v_fov, self.width, self.height)


@dataclass(frozen=True)
class SensorNoise(Validated):
    """Both cameras' range noise sigma(r) = sigma0 + k * r^2 and dropout."""

    sigma0: float = rule(NON_NEGATIVE, default=0.0)
    k: float = rule(NON_NEGATIVE, default=0.0)
    dropout: float = rule(UNIT, default=0.0)


@functools.lru_cache(maxsize=16)
def _unit_rays(h_fov: float, v_fov: float, width: int, height: int) -> np.ndarray:
    au = (np.arange(width) + 0.5) / width - 0.5
    av = (np.arange(height) + 0.5) / height - 0.5
    ty = np.tan(au * h_fov)
    tz = np.tan(av * v_fov)
    gy, gz = np.meshgrid(ty, tz, indexing="ij")
    dirs = np.stack([np.ones_like(gy), gy, gz], axis=-1).reshape(-1, 3)
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs.setflags(write=False)
    return dirs


@dataclass(frozen=True)
class CommandProfile:
    """Piecewise-constant (v_x, v_y, w_z) command segments."""

    segments: list[tuple[float, tuple[float, float, float]]]  # (duration, cmd)

    def __post_init__(self):
        pair = "a (duration, [v_x, v_y, w_z]) pair"
        if not isinstance(self.segments, (list, tuple)):
            raise ValueError(f"command must be a list of segments, each {pair}: {self.segments!r}")
        segments = []
        for i, seg in enumerate(self.segments):
            try:
                d, cmd = seg
                d, cmd = float(d), tuple(cmd)
                c = np.asarray(cmd, dtype=float)
            except (TypeError, ValueError):
                c = None
            if c is None or c.shape != (3,):
                raise ValueError(f"command[{i}] must be {pair}: {seg!r}")
            if not (np.isfinite(d) and np.isfinite(c).all()):
                raise ValueError(f"command[{i}] is not finite: {seg!r}")
            if d <= 0:
                raise ValueError(f"command[{i}] duration must be positive: {d}")
            segments.append((d, cmd))
        object.__setattr__(self, "segments", segments)

    @property
    def total_duration(self) -> float:
        return sum(d for d, _ in self.segments)

    def at(self, t) -> np.ndarray:
        """Command at time(s) t: (3,) for a scalar, (N, 3) for N times. A
        segment covers [start, end); past the end the last one holds."""
        ends = np.cumsum([d for d, _ in self.segments])
        k = np.minimum(np.searchsorted(ends, t, side="right"), len(ends) - 1)
        return np.array([cmd for _, cmd in self.segments], dtype=float)[k]

    def boundaries(self) -> list[tuple[float, float, np.ndarray]]:
        out, acc = [], 0.0
        for d, cmd in self.segments:
            out.append((acc, acc + d, np.asarray(cmd, dtype=float)))
            acc += d
        return out

    @classmethod
    def constant(cls, cmd, duration: float) -> "CommandProfile":
        return cls(segments=[(duration, tuple(cmd))])


@dataclass
class Trajectory:
    """Struct-of-arrays kinematic trajectory; row i is sim tick i."""

    t: np.ndarray  # (N,) seconds
    pos: np.ndarray  # (N, 3) world
    quat: np.ndarray  # (N, 4) wxyz, unit
    v_body: np.ndarray  # (N, 3)
    w_body: np.ndarray  # (N, 3)
    q: np.ndarray  # (N, 12)
    dq: np.ndarray  # (N, 12)
    contacts: np.ndarray  # (N, 4) bool
    air: np.ndarray  # (N, 4) seconds, 0 while in stance
    touchdown_air: np.ndarray  # (N, 4) completed air time, nonzero only on touchdown ticks
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.t)

    def state(self, i) -> RobotState:
        """Tick i as a RobotState whose arrays are views of these rows, or
        for an index array of N ticks the stack of their rows."""
        return RobotState(
            self.t[i] if np.ndim(i) else float(self.t[i]),
            self.pos[i],
            self.quat[i],
            self.v_body[i],
            self.w_body[i],
            self.q[i],
            self.dq[i],
            self.contacts[i],
            self.air[i],
            self.touchdown_air[i],
        )


def simulate_trajectory(
    profile: CommandProfile,
    hf: Heightfield,
    dt: float,
    start_xy=(0.5, None),
    start_yaw: float = 0.0,
) -> Trajectory:
    """Integrate the commanded kinematic motion over the heightfield.

    If the base footprint leaves the heightfield the stream is truncated
    and flagged; a start pose whose footprint is off the heightfield is an
    OutOfBoundsError (a ValueError).
    """
    dt = check("dt", dt, POSITIVE)
    n = int(round(profile.total_duration / dt)) + 1
    t = np.arange(n) * dt
    cmd = profile.at(t)

    sx, sy = _start_xy(hf, start_xy)
    # tick i holds the start plus the body-frame command of ticks < i rotated
    # by yaw; cumsum adds the steps in the same order as a running total
    yaw = np.cumsum(np.concatenate([[start_yaw], cmd[:-1, 2] * dt]))
    rot = rotz(yaw)[:, :2, :2]
    step = (rot[:-1] @ np.ascontiguousarray(cmd[:-1, :2])[..., None])[..., 0] * dt
    xy = np.cumsum(np.concatenate([[[sx, sy]], step]), axis=0)
    foot_h = hf.heights_at(_hips_xy(xy, rot).reshape(-1, 2)).reshape(n, N_FEET)

    off_map = ~np.isfinite(foot_h).all(axis=1)
    truncated = bool(off_map.any())
    if off_map[0]:
        raise _off_terrain(sx, sy, start_yaw)
    if truncated:
        n = int(np.argmax(off_map))
        log.warning("trajectory left the heightfield at t=%.3f", t[n])
        t, cmd, yaw, xy, foot_h = t[:n], cmd[:n], yaw[:n], xy[:n], foot_h[:n]

    z = foot_h.mean(axis=1) + TRUNK_HEIGHT
    # terrain slope between front and rear hip pairs, low-passed into pitch
    front, rear = foot_h[:, :2].mean(axis=1), foot_h[:, 2:].mean(axis=1)
    pitch_target = -np.arctan2(front - rear, 2 * abs(HIP_OFFSETS[0, 0]))
    alpha = min(1.0, dt / PITCH_TAU)
    pitch = np.empty(n)
    p = 0.0
    for i, target in enumerate(pitch_target.tolist()):
        p += alpha * (target - p)
        pitch[i] = p
    quat = quat_from_euler(0.0, pitch, yaw)
    pos = np.column_stack([xy, z])

    # commanded planar velocity; vertical velocity follows the terrain
    v_world = quat_rotate(quat, np.column_stack([cmd[:, :2], np.zeros(n)]))
    v_world[1:, 2] = np.diff(z) / dt
    v_body = quat_rotate(quat_conj(quat), v_world)
    w_body = np.column_stack([np.zeros((n, 2)), cmd[:, 2]])

    # trot oscillator: contacts, joints and air-time bookkeeping
    moving = np.linalg.norm(cmd, axis=1) > 1e-9
    phase = (2 * np.pi * TROT_FREQUENCY * t[:, None] + TROT_PHASE_OFFSETS) % (2 * np.pi)
    cycle = phase / (2 * np.pi)
    contact = (cycle < TROT_DUTY) | ~moving[:, None]
    # air time k ticks after the last contact (tick -1 for a foot that
    # starts in the air) is dt added k times, in a running total's order
    tick = np.arange(n)[:, None]
    since = tick - np.maximum.accumulate(np.where(contact, tick, -1), axis=0)
    air = np.cumsum(np.concatenate([[0.0], np.full(n, dt)]))[since]
    # a touchdown credits the air time the foot had on the tick before
    prev_contact = np.concatenate([np.ones((1, N_FEET), dtype=bool), contact[:-1]])
    prev_air = np.concatenate([np.zeros((1, N_FEET)), air[:-1]])
    touchdown_air = np.where(contact & ~prev_contact, prev_air, 0.0)

    q = np.tile(Q_STAND, (n, 1))
    dq = np.zeros((n, N_JOINTS))
    # swing progress in [0, 1]; thigh/calf fold-unfold during swing
    s = np.pi * np.clip((cycle - TROT_DUTY) / (1 - TROT_DUTY), 0.0, 1.0)
    swing = np.where(contact, 0.0, np.sin(s))[moving]
    dswing = np.where(
        contact, 0.0, np.pi * np.cos(s) * TROT_FREQUENCY / (1 - TROT_DUTY)
    )[moving]
    q[moving, 1::3] -= SWING_AMPLITUDE * swing
    q[moving, 2::3] += SWING_AMPLITUDE * swing
    dq[moving, 1::3] = -SWING_AMPLITUDE * dswing
    dq[moving, 2::3] = -dq[moving, 1::3]

    return Trajectory(
        t=t,
        pos=pos,
        quat=quat,
        v_body=v_body,
        w_body=w_body,
        q=q,
        dq=dq,
        contacts=contact,
        air=air,
        touchdown_air=touchdown_air,
        truncated=truncated,
    )


def _start_xy(hf: Heightfield, start_xy) -> tuple[float, float]:
    """The start position; a y of None is the middle of the terrain."""
    sx, sy = start_xy
    return sx, hf.size[1] / 2.0 if sy is None else sy


def _hips_xy(xy: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """World xy of the four hips, (N, 4, 2), at N base positions with their
    (N, 2, 2) yaw rotations."""
    return HIP_OFFSETS[:, :2] @ np.swapaxes(rot, -1, -2) + xy[:, None, :]


def _off_terrain(sx: float, sy: float, yaw: float) -> OutOfBoundsError:
    return OutOfBoundsError(
        f"start pose (x={sx}, y={sy}, yaw={yaw}) has its footprint off the terrain"
    )


def check_start(hf: Heightfield, start_xy, start_yaw: float) -> None:
    """Raise the OutOfBoundsError of `simulate_trajectory` if the start
    footprint is off the heightfield, without integrating a trajectory: the
    same footprint, one row instead of a stack. Only the grid of `hf`
    matters, so a flat one of the same shape stands in for a scene not yet
    built."""
    sx, sy = _start_xy(hf, start_xy)
    rot = rotz(np.array([start_yaw], dtype=float))[:, :2, :2]
    if not np.isfinite(hf.heights_at(_hips_xy(np.array([[sx, sy]]), rot)[0])).all():
        raise _off_terrain(sx, sy, start_yaw)


def render_depth(camera: CameraModel, cam_pose: Pose, hf: Heightfield, t: float) -> PointCloud:
    """Ray-cast one depth frame at time t from the camera's world pose (the
    base pose composed with `camera.mount`). Points are returned in the
    sensor frame."""
    origin = cam_pose.position
    x, y, z = origin.tolist()
    # off the grid the height is NaN and the comparison false
    if z <= hf.height_at(x, y):
        log.warning("camera %s below terrain; returning empty cloud", camera.name)
        return empty_cloud(t, camera.name)

    dirs = cam_pose.rotate(camera.ray_directions())
    t_hit = _first_hits(hf, origin, dirs, camera.max_range)
    # a hit nearer than min_range blocks the ray, as in a real sensor
    keep = (t_hit >= camera.min_range) & (t_hit <= camera.max_range)
    world = origin + dirs.compress(keep, axis=0) * t_hit[keep][:, None]
    return PointCloud(t=t, frame=camera.name, points=cam_pose.inverse_transform(world))


# an axis-parallel ray gets this component in place of 0, signed so that the
# cell semantics hold: a ray on a cell's upper x or y bound is outside the
# cell, and a ray level with a cell's top is on it
_AXIS_TINY = np.array([1e-300, 1e-300, -1e-300])
# a run whose top is more than this under a ray's lowest point over the
# run's x slab holds no hit of that ray; far above the rounding of the exact
# test, so the runs that the search passes over fail that test too
_SLACK = 1e-6
# runs that a ray tests in one round of the run search
_BAND = 2


def _first_hits(hf: Heightfield, o: np.ndarray, dirs: np.ndarray, t_max: float) -> np.ndarray:
    """Range of each ray's first point in the terrain solid within
    [0, t_max]; inf where there is none.

    The solid is one box per run of the profile (`hf.x_runs`): [x_start,
    x_end) times the grid's y extent times z <= height. A ray enters a box
    at the latest of its slab entries (the run's x face, the top crossing
    t = (height - o_z) / d_z, the grid's y face, t = 0) if that comes before
    the earliest slab exit (`_box_hits`).

    Runs are disjoint in x, so a ray enters a later run of its x order only
    after it leaves an earlier one: the first run it enters holds its first
    hit. Rather than test every run, each ray tests a band of `_BAND` runs,
    starting at the first run of its x order that can hold a hit, and the
    next band only if it missed. A run can hold a hit only if its top is at
    most `_SLACK` under the ray's lowest point over the run's x slab, which
    is at one of the slab's ends (or the origin, in its own run); per run
    that is a bound on the ray's slope d_z / |d_x|. The running max of the
    bounds along the x order is sorted, so one `searchsorted` finds every
    ray's first candidate run. A run that the rule passes over fails the
    exact test too, so the ranges are those of a test of every run, to the
    bit.

    A frame whose rays reach at most two bands of runs (`k0..k1`, from the
    reach of the rays over the lowest run) tests those runs on every ray:
    there the search costs more than it saves.
    """
    runs = hf.x_runs
    edges = np.concatenate([runs[:, 0], runs[-1:, 1]])
    dx, dy, dz = np.where(dirs == 0, _AXIS_TINY, dirs).T
    y0 = hf.origin[1]
    # the span of each ray inside the grid's xy box
    tx0, tx1 = (edges[[0, -1], None] - o[0]) / dx
    ty0, ty1 = (np.array([[y0], [y0 + hf.size[1]]]) - o[1]) / dy
    lo = np.maximum(np.maximum(np.minimum(tx0, tx1), np.minimum(ty0, ty1)), 0.0)
    hi = np.minimum(np.minimum(np.maximum(tx0, tx1), np.maximum(ty0, ty1)), t_max)
    live = lo < hi
    if not live.any():
        return np.full(len(dirs), np.inf)

    # inside the box and below the lowest run a ray is in the solid, so its
    # hit comes no later than there; cull the runs beyond every ray's reach
    t_low = np.where(dz < 0, (runs[:, 2].min() - o[2]) / dz, np.inf)
    reach = np.minimum(hi, np.maximum(lo, t_low))
    x = o[0] + dx[live] * np.array([lo[live], reach[live]])
    # one cell of slack on each side absorbs rounding at the reach's ends
    span = [x.min() - hf.resolution, x.max() + hf.resolution]
    k0, k1 = (min(max(k, 0), len(runs) - 1) for k in np.searchsorted(edges, span, "right") - 1)
    box = functools.partial(_box_hits, o, edges, runs[:, 2])
    if k1 - k0 < 2 * _BAND:
        return box(np.arange(k0, k1 + 1)[:, None], dx, dz, lo, hi)

    out = np.full(len(dirs), np.inf)
    j0 = np.searchsorted(edges, o[0], "right") - 1  # the origin's run
    for sign in (1.0, -1.0):
        rays = np.flatnonzero(live & (dx * sign > 0))
        # the window's runs in the rays' x order, from the origin's run out
        if sign > 0:
            order = np.arange(max(j0, k0), k1 + 1)
        else:
            order = np.arange(min(j0, k1), k0 - 1, -1)
        if not (rays.size and order.size):
            continue
        # per run, the largest slope d_z / |d_x| whose lowest point over the
        # run's x slab is at most `rise` above the origin: that point is at
        # one of the slab's `ends` (their x distance from the origin along
        # the rays), or at the origin if an end is at or behind it, which
        # admits every slope or none
        ends = (edges[order + [[0], [1]]] - o[0]) * sign
        rise = runs[order, 2] + _SLACK - o[2]
        at_origin = np.where(rise >= 0, np.inf, -np.inf)
        bound = np.divide(rise, ends, out=np.array([at_origin, at_origin]), where=ends > 0)
        key = np.maximum.accumulate(bound.max(axis=0))
        last = len(order) - 1
        # a ray past every bound can hit no run of the window, and gets inf
        # from the last one
        pos = np.searchsorted(key, dz[rays] / (dx[rays] * sign))
        while rays.size:
            ray_dx = dx[rays]
            band = order[np.minimum(pos + np.arange(_BAND)[:, None], last)]
            out[rays] = t = box(band, ray_dx, dz[rays], lo[rays], hi[rays])
            # a ray that misses its band goes on while the next band starts
            # in the window and within the ray's span
            pos = pos + _BAND
            go = np.isinf(t) & (pos <= last)
            if go.any():
                near = ends.min(axis=0)[pos[go]]
                go[go] = near / (ray_dx[go] * sign) < hi[rays[go]]
            rays, pos = rays[go], pos[go]
    return out


def _box_hits(o, edges, heights, j, dx, dz, lo, hi):
    """Earliest entry of each ray into the boxes of runs `j`: (runs, 1)
    shared by every ray, or (runs, rays), one column per ray; inf where it
    enters none."""
    tx0 = (edges[j] - o[0]) / dx
    tx1 = (edges[j + 1] - o[0]) / dx
    tz = (heights[j] - o[2]) / dz
    down = dz < 0
    t_in = np.maximum(np.minimum(tx0, tx1), np.where(down, tz, lo))
    t_out = np.minimum(np.maximum(tx0, tx1), np.where(down, hi, tz))
    t_in = np.maximum(t_in, lo)
    t_out = np.minimum(t_out, hi)
    return np.where(t_in < t_out, t_in, np.inf).min(axis=0)


def inject_sensor_noise(
    cloud: PointCloud, noise: SensorNoise, rng: np.random.Generator
) -> PointCloud:
    """Range noise along each ray plus i.i.d. dropout. Deterministic per rng."""
    if len(cloud) == 0:
        return cloud
    if noise.sigma0 == 0 and noise.k == 0 and noise.dropout == 0:
        return cloud
    # the range as `np.linalg.norm` sums it: ((x² + y²) + z²)
    x, y, z = cloud.points.T
    ranges = np.sqrt((x * x + y * y) + z * z)
    if not ranges.all():
        raise ValueError("a point at the sensor origin has no ray to add range noise along")
    rays = cloud.points / ranges[:, None]
    sigma = noise.sigma0 + noise.k * ranges**2
    noisy_r = ranges + rng.normal(0.0, 1.0, len(cloud)) * sigma
    pts = rays * noisy_r[:, None]
    keep = rng.random(len(cloud)) >= noise.dropout
    return PointCloud(t=cloud.t, frame=cloud.frame, points=pts.compress(keep, axis=0))


def default_front_camera() -> CameraModel:
    """Stereo depth camera at the nose, pitched 50 degrees downward."""
    return CameraModel(
        name="front",
        mount=Pose(np.array([0.25, 0.0, 0.05]), quat_from_euler(0.0, np.deg2rad(50), 0.0)),
        h_fov=np.deg2rad(74),
        v_fov=np.deg2rad(40),
        width=32,
        height=24,
        min_range=0.15,
        max_range=3.0,
    )


def default_rear_camera() -> CameraModel:
    """ToF camera at the tail, aimed at the region beneath the robot."""
    return CameraModel(
        name="rear",
        mount=Pose(np.array([-0.25, 0.0, 0.05]), quat_from_euler(0.0, np.deg2rad(70), 0.0)),
        h_fov=np.deg2rad(84),
        v_fov=np.deg2rad(76),
        width=28,
        height=22,
        min_range=0.1,
        max_range=2.0,
    )
