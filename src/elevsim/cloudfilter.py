"""Point-cloud preprocessing: outlier removal, body masking, downsampling.

All three filters are pure functions over immutable clouds and idempotent on
their own output. Default order in the pipeline: outlier -> body -> voxel.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .pointcloud import PointCloud
from .sensorsim import HIP_OFFSETS, RobotState

log = logging.getLogger(__name__)


def remove_outliers(cloud: PointCloud, k: int = 8, std_ratio: float = 2.0) -> PointCloud:
    """Statistical outlier removal: keep a point iff its mean distance to its
    k nearest neighbors is within (global mean + std_ratio * global std).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(cloud)
    if n < k + 1:
        log.debug("cloud of %d points too small for k=%d; returned unchanged", n, k)
        return cloud
    tree = cKDTree(cloud.points)
    dists, _ = tree.query(cloud.points, k=k + 1)  # first neighbor is the point itself
    mean_d = dists[:, 1:].mean(axis=1)
    keep = mean_d <= mean_d.mean() + std_ratio * mean_d.std()
    return cloud.select(keep)


def voxel_downsample(cloud: PointCloud, resolution: float = 0.025) -> PointCloud:
    """One centroid per occupied voxel of the world-aligned grid."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if len(cloud) == 0:
        return cloud
    keys = np.floor(cloud.points / resolution).astype(np.int64)
    _, inv, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    sums = np.zeros((len(counts), 3))
    np.add.at(sums, inv, cloud.points)
    centroids = sums / counts[:, None]
    # keep the original input order of first occupancy for determinism
    first = np.full(len(counts), len(cloud), dtype=np.int64)
    np.minimum.at(first, inv, np.arange(len(cloud)))
    order = np.argsort(first)
    return PointCloud(t=cloud.t, frame=cloud.frame, points=centroids[order])


@dataclass
class BodyModel:
    """Joint-posed capsule approximation of the trunk and legs."""

    margin: float = 0.02
    trunk_half_length: float = 0.13
    trunk_radius: float = 0.09
    thigh_length: float = 0.213
    calf_length: float = 0.213
    leg_radius: float = 0.03
    hip_offsets: np.ndarray = field(default_factory=lambda: HIP_OFFSETS.copy())

    def __post_init__(self):
        if self.trunk_radius <= 0 or self.leg_radius <= 0:
            raise ValueError("capsule radii must be positive")

    def capsules(self, state: RobotState) -> list[tuple[np.ndarray, np.ndarray, float]]:
        """World-frame (p0, p1, radius) capsules posed by forward kinematics."""
        pose = state.pose
        caps = [
            (
                pose.transform(np.array([self.trunk_half_length, 0.0, 0.0])),
                pose.transform(np.array([-self.trunk_half_length, 0.0, 0.0])),
                self.trunk_radius,
            )
        ]
        for f in range(4):
            hip = self.hip_offsets[f]
            roll, thigh_pitch, calf_pitch = state.q[3 * f : 3 * f + 3]
            cr, sr = np.cos(roll), np.sin(roll)
            rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])

            def leg_dir(pitch):
                # leg segment direction in the hip frame, nominally downward
                d = np.array([np.sin(pitch), 0.0, -np.cos(pitch)])
                return rx @ d

            knee = hip + self.thigh_length * leg_dir(thigh_pitch)
            foot = knee + self.calf_length * leg_dir(thigh_pitch + calf_pitch)
            caps.append((pose.transform(hip), pose.transform(knee), self.leg_radius))
            caps.append((pose.transform(knee), pose.transform(foot), self.leg_radius))
        return caps


def _point_segment_dist(points: np.ndarray, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    seg = p1 - p0
    L2 = float(seg @ seg)
    if L2 == 0.0:
        return np.linalg.norm(points - p0, axis=1)
    u = np.clip((points - p0) @ seg / L2, 0.0, 1.0)
    closest = p0 + u[:, None] * seg
    return np.linalg.norm(points - closest, axis=1)


def body_filter(cloud: PointCloud, state: RobotState, body: BodyModel) -> PointCloud:
    """Remove every world-frame point inside an inflated body capsule."""
    if len(cloud) == 0:
        return cloud
    keep = np.ones(len(cloud), dtype=bool)
    for p0, p1, r in body.capsules(state):
        keep &= _point_segment_dist(cloud.points, p0, p1) > r + body.margin
    return cloud.select(keep)
