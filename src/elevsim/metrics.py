"""Quantitative evaluation: one-way Chamfer distance, relative trajectory
error over fixed-arc-length segments, and command-tracking RMS.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .elevmap import ElevationMap
from .geometry import Pose, _apply, rotz, yaw_from_quat
from .pointcloud import PointCloud
from .scene import SAMPLE_REGION, Heightfield, ground_truth_patch
from .sensorsim import CommandProfile

log = logging.getLogger(__name__)

# seconds at the start of each command segment that tracking RMS discards
TRACKING_SETTLE_S = 0.7


@dataclass
class MetricReport:
    values: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else float("nan")


def _as_points(cloud) -> np.ndarray:
    if isinstance(cloud, PointCloud):
        return cloud.points
    return np.asarray(cloud, dtype=float).reshape(-1, 3)


def chamfer_one_way(s1, s2) -> float:
    """Mean Euclidean distance from each point of s1 to its nearest neighbor
    in s2, in centimeters. Asymmetric by design; exact nearest neighbors.
    """
    p1, p2 = _as_points(s1), _as_points(s2)
    if len(p2) == 0:
        raise ValueError("chamfer target cloud is empty")
    if len(p1) == 0:
        log.warning("chamfer source cloud empty; returning 0")
        return 0.0
    d, _ = cKDTree(p2, balanced_tree=False).query(p1)
    return float(d.mean()) * 100.0


def _relative(points: np.ndarray, pose: Pose) -> np.ndarray:
    """Express world points in the yaw-aligned frame anchored at the pose."""
    rel = points - pose.position
    return rel @ pose.yaw_rotation  # rows rotated by R^T


def map_vs_ground_truth(
    emap: ElevationMap, hf: Heightfield, base_pose: Pose, true_pose: Pose
) -> float | None:
    """Chamfer distance (cm) between the map cells around the estimated
    base pose and the ground-truth patch around the true pose, with both
    point sets expressed robot-centrically. Mirrors aligning the robot pose
    to the reference scan before comparing. Returns None when the map has no
    valid cells in the region (window excluded from run means).
    """
    map_pts = emap.region_points(base_pose, SAMPLE_REGION)
    if len(map_pts) == 0:
        return None
    gt_cloud = ground_truth_patch(hf, true_pose)
    if len(gt_cloud) == 0:
        return None
    return chamfer_one_way(_relative(map_pts, base_pose), _relative(gt_cloud.points, true_pose))


@dataclass
class TrajectorySamples:
    """Time-stamped pose samples; t strictly increasing."""

    t: np.ndarray
    positions: np.ndarray  # (N, 3)
    quats: np.ndarray  # (N, 4)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        self.quats = np.asarray(self.quats, dtype=float).reshape(-1, 4)
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("trajectory timestamps must be strictly increasing")

    def yaws(self) -> np.ndarray:
        return np.unwrap(yaw_from_quat(self.quats))

    def arc_lengths(self) -> np.ndarray:
        seg = np.linalg.norm(np.diff(self.positions, axis=0), axis=1)
        return np.concatenate([[0.0], np.cumsum(seg)])

    def save_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("t,x,y,z,qw,qx,qy,qz\n")
            for t, p, q in zip(self.t, self.positions, self.quats):
                f.write(
                    f"{t:.9g},{p[0]:.9g},{p[1]:.9g},{p[2]:.9g},"
                    f"{q[0]:.9g},{q[1]:.9g},{q[2]:.9g},{q[3]:.9g}\n"
                )


def _interp_vec(t: np.ndarray, ts: np.ndarray, values: np.ndarray) -> np.ndarray:
    return np.stack([np.interp(t, ts, values[:, i]) for i in range(values.shape[1])], axis=-1)


def rte(
    est: TrajectorySamples,
    gt: TrajectorySamples,
    segment_length: float = 1.0,
) -> MetricReport:
    """Relative trajectory error: partition ground truth into consecutive
    fixed-arc-length segments, align the estimate at each segment start
    (position + yaw), and report end-point translation error norms.
    """
    s = gt.arc_lengths()
    if s[-1] < segment_length:
        raise ValueError("ground-truth trajectory shorter than one segment")
    # the times of the segment ends, then every segment's error at once
    t = np.interp(np.arange(int(s[-1] // segment_length) + 1) * segment_length, s, gt.t)
    g = _interp_vec(t, gt.t, gt.positions)
    e = _interp_vec(t, est.t, est.positions)
    dyaw = np.interp(t[:-1], gt.t, gt.yaws()) - np.interp(t[:-1], est.t, est.yaws())
    d = g[:-1] + _apply(rotz(dyaw), e[1:] - e[:-1]) - g[1:]
    return MetricReport(values=np.sqrt(np.vecdot(d, d)).tolist())


def tracking_rms(
    times: np.ndarray,
    velocities: np.ndarray,
    profile: CommandProfile,
) -> tuple[np.ndarray, int]:
    """Per-axis RMS of (measured - commanded) body velocity, pooled over all
    command segments with the first TRACKING_SETTLE_S seconds of each
    discarded.
    Returns (rms per axis, number of skipped too-short segments).
    """
    times = np.asarray(times, dtype=float)
    velocities = np.asarray(velocities, dtype=float).reshape(-1, 3)
    sq_sum = np.zeros(3)
    count = 0
    skipped = 0
    for t0, t1, cmd in profile.boundaries():
        if t1 - t0 <= TRACKING_SETTLE_S:
            skipped += 1
            log.warning("command segment [%.2f, %.2f) shorter than settle time", t0, t1)
            continue
        mask = (times >= t0 + TRACKING_SETTLE_S) & (times < t1)
        if not mask.any():
            continue
        err = velocities[mask] - cmd
        sq_sum += (err**2).sum(axis=0)
        count += int(mask.sum())
    if count == 0:
        raise ValueError("no samples left after settling windows")
    return np.sqrt(sq_sum / count), skipped
