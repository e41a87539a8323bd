"""Kinematic robot trajectory and ray-cast depth sensing.

The robot motion is kinematic: commanded body-frame velocity integrated over
yaw, base height glued to the terrain plus the nominal trunk height. The trot
oscillator only exists so the body filter and air-time bookkeeping have
realistic inputs. Depth cameras are pinhole models whose rays are intersected
with the heightfield surface: a coarse march at fixed steps finds the first
sample at or below the terrain, and bisection between it and the sample
before refines the hit. The march runs in blocks of samples over the rays
that have not hit yet and stops once all have; this gives the same first
sample as marching every ray over the full range. Terrain heights come from
the heightfield's padded copy (`Heightfield.padded_cells`), whose -1e9 border
answers every lookup off the grid, so a ray leaving the map never hits.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, quat_conj, quat_from_euler, quat_rotate, rotz
from .pointcloud import PointCloud, empty_cloud
from .scene import Heightfield, OutOfBoundsError

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


@dataclass
class RobotState:
    """One tick of the robot's state; `Trajectory.state(i)` gives row views."""

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


@dataclass
class CameraModel:
    name: str
    mount: Pose  # relative to base
    h_fov: float  # radians
    v_fov: float
    width: int
    height: int
    min_range: float
    max_range: float
    noise_sigma0: float = 0.0  # range noise: sigma(r) = sigma0 + k * r^2
    noise_k: float = 0.0
    dropout: float = 0.0

    def __post_init__(self):
        if not (0 < self.h_fov < np.pi and 0 < self.v_fov < np.pi):
            raise ValueError("fov must lie in (0, pi)")
        if not (0 <= self.min_range < self.max_range):
            raise ValueError("need 0 <= min_range < max_range")

    def ray_directions(self) -> np.ndarray:
        """Unit ray directions in the sensor frame (x forward, y left, z up);
        read-only and shared by every camera of the same geometry."""
        return _unit_rays(self.h_fov, self.v_fov, self.width, self.height)


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


@dataclass
class CommandProfile:
    """Piecewise-constant (v_x, v_y, w_z) command segments."""

    segments: list[tuple[float, tuple[float, float, float]]]  # (duration, cmd)

    def __post_init__(self):
        for d, cmd in self.segments:
            if not (np.isfinite(d) and np.isfinite(np.asarray(cmd, dtype=float)).all()):
                raise ValueError(f"segment ({d}, {cmd}) is not finite")
            if d <= 0:
                raise ValueError("segment durations must be positive")

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
class GaitParams:
    frequency: float = 2.0  # strides per second
    duty: float = 0.5  # stance fraction of the stride
    swing_amplitude: float = 0.3  # rad, thigh/calf oscillation
    trunk_height: float = 0.30  # nominal base height above terrain
    pitch_tau: float = 0.2  # terrain-slope low-pass time constant
    q_default: np.ndarray = field(default_factory=lambda: Q_STAND.copy())


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

    def state(self, i: int) -> RobotState:
        """Tick i as a RobotState whose arrays are views of these rows."""
        return RobotState(
            float(self.t[i]),
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
    gait: GaitParams,
    start_xy=(0.5, None),
    start_yaw: float = 0.0,
) -> Trajectory:
    """Integrate the commanded kinematic motion over the heightfield.

    If the base footprint leaves the heightfield the stream is truncated
    and flagged; a start pose whose footprint is off the heightfield is an
    OutOfBoundsError (a ValueError).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = int(round(profile.total_duration / dt)) + 1
    t = np.arange(n) * dt
    cmd = profile.at(t)

    sx, sy = start_xy
    if sy is None:
        sy = hf.size[1] / 2.0
    # tick i holds the start plus the body-frame command of ticks < i rotated
    # by yaw; cumsum adds the steps in the same order as a running total
    yaw = np.cumsum(np.concatenate([[start_yaw], cmd[:-1, 2] * dt]))
    rot = rotz(yaw)[:, :2, :2]
    step = (rot[:-1] @ np.ascontiguousarray(cmd[:-1, :2])[..., None])[..., 0] * dt
    xy = np.cumsum(np.concatenate([[[sx, sy]], step]), axis=0)
    feet = HIP_OFFSETS[:, :2] @ np.swapaxes(rot, -1, -2) + xy[:, None, :]
    foot_h = hf.heights_at(feet.reshape(-1, 2)).reshape(n, N_FEET)

    off_map = ~np.isfinite(foot_h).all(axis=1)
    truncated = bool(off_map.any())
    if off_map[0]:
        msg = f"start pose (x={sx}, y={sy}, yaw={start_yaw}) has its footprint off the terrain"
        raise OutOfBoundsError(msg)
    if truncated:
        n = int(np.argmax(off_map))
        log.warning("trajectory left the heightfield at t=%.3f", t[n])
        t, cmd, yaw, xy, foot_h = t[:n], cmd[:n], yaw[:n], xy[:n], foot_h[:n]

    z = foot_h.mean(axis=1) + gait.trunk_height
    # terrain slope between front and rear hip pairs, low-passed into pitch
    front, rear = foot_h[:, :2].mean(axis=1), foot_h[:, 2:].mean(axis=1)
    pitch_target = -np.arctan2(front - rear, 2 * abs(HIP_OFFSETS[0, 0]))
    alpha = min(1.0, dt / gait.pitch_tau)
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
    phase = (2 * np.pi * gait.frequency * t[:, None] + TROT_PHASE_OFFSETS) % (2 * np.pi)
    cycle = phase / (2 * np.pi)
    contact = (cycle < gait.duty) | ~moving[:, None]
    air = np.empty((n, N_FEET))
    a = np.zeros(N_FEET)
    for i in range(n):
        a = np.where(contact[i], 0.0, a + dt)
        air[i] = a
    # a touchdown credits the air time the foot had on the tick before
    prev_contact = np.concatenate([np.ones((1, N_FEET), dtype=bool), contact[:-1]])
    prev_air = np.concatenate([np.zeros((1, N_FEET)), air[:-1]])
    touchdown_air = np.where(contact & ~prev_contact, prev_air, 0.0)

    q = np.tile(gait.q_default, (n, 1))
    dq = np.zeros((n, N_JOINTS))
    # swing progress in [0, 1]; thigh/calf fold-unfold during swing
    s = np.pi * np.clip((cycle - gait.duty) / (1 - gait.duty), 0.0, 1.0)
    swing = np.where(contact, 0.0, np.sin(s))[moving]
    dswing = np.where(
        contact, 0.0, np.pi * np.cos(s) * gait.frequency / (1 - gait.duty)
    )[moving]
    amp = gait.swing_amplitude
    q[moving, 1::3] -= amp * swing
    q[moving, 2::3] += amp * swing
    dq[moving, 1::3] = -amp * dswing
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


MARCH_BLOCK = 8  # coarse samples per block of the march


def render_depth(camera: CameraModel, base_state: RobotState, hf: Heightfield) -> PointCloud:
    """Ray-cast one depth frame. Points are returned in the sensor frame."""
    cam_pose = base_state.pose.compose(camera.mount)
    origin = cam_pose.position
    try_h = hf.heights_at(origin[:2].reshape(1, 2), fill=-np.inf)[0]
    if np.isfinite(try_h) and origin[2] <= try_h:
        log.warning("camera %s below terrain; returning empty cloud", camera.name)
        return empty_cloud(base_state.t, camera.name)

    dirs = quat_rotate(cam_pose.quat, camera.ray_directions())
    terrain = _terrain_lookup(hf)
    o = origin[:, None]

    # coarse march, then bisection between the first sample at or below the
    # terrain and the one before; a feature narrower than the step can fall
    # between two samples and be missed
    step = max(hf.resolution, 0.05)
    ts = np.arange(1e-4, camera.max_range + step, step)
    # first[i]: index of ray i's first sample at or below the terrain; it
    # stays 0 for rays that never get there, which like rays starting under
    # the surface count as misses
    first = np.zeros(len(dirs), dtype=np.int64)
    open_rays = np.arange(len(dirs))
    d_open = np.ascontiguousarray(dirs.T)
    for k in range(0, len(ts), MARCH_BLOCK):
        # (3, open rays, samples of this block)
        p = o[..., None] + d_open[:, :, None] * ts[k : k + MARCH_BLOCK]
        below = p[2] <= terrain(p[:2])
        done = below.any(axis=1)
        first[open_rays[done]] = k + below[done].argmax(axis=1)
        open_rays, d_open = open_rays[~done], d_open[:, ~done]
        if not len(open_rays):
            break
    hit = first > 0

    if not hit.any():
        return empty_cloud(base_state.t, camera.name)

    d = dirs[hit]
    d_hit = np.ascontiguousarray(d.T)
    lo = ts[first[hit] - 1]
    hi = ts[first[hit]]
    for _ in range(33):
        mid = 0.5 * (lo + hi)
        p = o + d_hit * mid
        under = p[2] <= terrain(p[:2])
        hi = np.where(under, mid, hi)
        lo = np.where(under, lo, mid)
    t_hit = 0.5 * (lo + hi)

    in_range = (t_hit >= camera.min_range) & (t_hit <= camera.max_range)
    t_hit = t_hit[in_range]
    d = d[in_range]
    world = origin + d * t_hit[:, None]
    return PointCloud(
        t=base_state.t, frame=camera.name, points=cam_pose.inverse_transform(world)
    )


def _terrain_lookup(hf: Heightfield):
    """Height of the cell under each world xy of a (2, ...) array; -1e9 off
    the grid, read from the border of `hf.padded_cells`."""
    cells = hf.padded_cells.ravel()
    stride = hf.padded_cells.shape[1]
    xy0 = np.array(hf.origin, dtype=float).reshape(2, 1)
    top = np.array(hf.cells.shape).reshape(2, 1)
    inv_res = 1.0 / hf.resolution

    def terrain(xy: np.ndarray) -> np.ndarray:
        shape = xy.shape[1:]
        idx = np.floor((xy.reshape(2, -1) - xy0) * inv_res).astype(np.int64)
        np.maximum(idx, -1, out=idx)
        np.minimum(idx, top, out=idx)
        flat = idx[0] * stride
        flat += idx[1]
        return cells.take(flat + (stride + 1)).reshape(shape)

    return terrain


def inject_sensor_noise(
    cloud: PointCloud, camera: CameraModel, rng: np.random.Generator | int
) -> PointCloud:
    """Range noise along each ray plus i.i.d. dropout. Deterministic per rng."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    if len(cloud) == 0:
        return cloud
    if camera.noise_sigma0 == 0 and camera.noise_k == 0 and camera.dropout == 0:
        return cloud
    ranges = np.linalg.norm(cloud.points, axis=1)
    rays = cloud.points / ranges[:, None]
    sigma = camera.noise_sigma0 + camera.noise_k * ranges**2
    noisy_r = ranges + rng.normal(0.0, 1.0, len(cloud)) * sigma
    pts = rays * noisy_r[:, None]
    keep = rng.random(len(cloud)) >= camera.dropout
    return PointCloud(t=cloud.t, frame=cloud.frame, points=pts[keep])


def default_front_camera() -> CameraModel:
    """Stereo depth camera at the nose, pitched 60 degrees downward."""
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
