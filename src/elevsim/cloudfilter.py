"""Point-cloud preprocessing: outlier removal, body masking, downsampling.

All three filters are pure functions over immutable clouds and idempotent on
their own output. Default order in the pipeline: outlier -> body -> voxel.
The voxel filter groups points by one packed int64 key per voxel, and the
body filter runs its capsule distance test only on the points inside the
body's bounding box.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.spatial import cKDTree

from .geometry import Pose
from .pointcloud import PointCloud
from .sensorsim import HIP_OFFSETS

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
    # the median-split build is cheaper than the balanced one and gives the
    # same neighbor distances
    tree = cKDTree(cloud.points, balanced_tree=False)
    dists, _ = tree.query(cloud.points, k=k + 1)  # first neighbor is the point itself
    mean_d = dists[:, 1:].mean(axis=1)
    keep = mean_d <= mean_d.mean() + std_ratio * mean_d.std()
    return cloud.select(keep)


def voxel_downsample(cloud: PointCloud, resolution: float) -> PointCloud:
    """One centroid per occupied voxel of the world-aligned grid, in the order
    the voxels are first occupied in the input.

    The three voxel indices are packed into one int64 key, and each voxel's
    coordinate sums accumulate its points in input order, so a centroid has
    the same bits as a running sum over its points divided by their count.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if len(cloud) == 0:
        return cloud
    keys = np.floor(cloud.points / resolution).astype(np.int64)
    low, high = keys.min(axis=0), keys.max(axis=0)
    span = [int(b) - int(a) + 1 for a, b in zip(low, high)]
    if span[0] * span[1] * span[2] > np.iinfo(np.int64).max:
        raise ValueError("cloud spans too many voxels to index at this resolution")
    keys -= low
    packed = (keys[:, 0] * span[1] + keys[:, 1]) * span[2] + keys[:, 2]
    _, first, inv = np.unique(packed, return_index=True, return_inverse=True)
    sums = np.stack([np.bincount(inv, weights=cloud.points[:, k]) for k in range(3)], axis=1)
    centroids = sums / np.bincount(inv)[:, None]
    return PointCloud(t=cloud.t, frame=cloud.frame, points=centroids[np.argsort(first)])


# joint-posed capsule approximation of the trunk and legs, and the clearance
# kept around it
BODY_MARGIN = 0.02
TRUNK_HALF_LENGTH = 0.13
TRUNK_RADIUS = 0.09
THIGH_LENGTH = 0.213
CALF_LENGTH = 0.213
LEG_RADIUS = 0.03


def body_capsules(pose: Pose, q: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """World-frame (p0, p1, radius) capsules of the base at `pose` with joint
    angles `q`, posed by forward kinematics."""
    to_world = pose.transform
    caps = [
        (
            to_world(np.array([TRUNK_HALF_LENGTH, 0.0, 0.0])),
            to_world(np.array([-TRUNK_HALF_LENGTH, 0.0, 0.0])),
            TRUNK_RADIUS,
        )
    ]
    for f in range(4):
        hip = HIP_OFFSETS[f]
        roll, thigh_pitch, calf_pitch = q[3 * f : 3 * f + 3]
        cr, sr = np.cos(roll), np.sin(roll)
        rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])

        def leg_dir(pitch):
            # leg segment direction in the hip frame, nominally downward
            d = np.array([np.sin(pitch), 0.0, -np.cos(pitch)])
            return rx @ d

        knee = hip + THIGH_LENGTH * leg_dir(thigh_pitch)
        foot = knee + CALF_LENGTH * leg_dir(thigh_pitch + calf_pitch)
        knee_w = to_world(knee)
        caps.append((to_world(hip), knee_w, LEG_RADIUS))
        caps.append((knee_w, to_world(foot), LEG_RADIUS))
    return caps


def _point_segment_dist(points: np.ndarray, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    seg = p1 - p0
    L2 = float(seg @ seg)
    if L2 == 0.0:
        return np.linalg.norm(points - p0, axis=1)
    u = np.clip((points - p0) @ seg / L2, 0.0, 1.0)
    closest = p0 + u[:, None] * seg
    return np.linalg.norm(points - closest, axis=1)


def body_filter(cloud: PointCloud, caps: list) -> PointCloud:
    """Remove every world-frame point within `BODY_MARGIN` of a body capsule
    (`body_capsules`, posed once per tick for all its clouds).

    Only points inside the capsules' bounding box, grown by radius + margin
    and a slack, get the distance test; every point outside it is farther
    than radius + margin from each capsule and is kept.
    """
    if len(cloud) == 0:
        return cloud
    # 1 um lies far above the rounding error of the distance test
    grow = BODY_MARGIN + 1e-6
    box_lo = np.min([np.minimum(p0, p1) - r for p0, p1, r in caps], axis=0) - grow
    box_hi = np.max([np.maximum(p0, p1) + r for p0, p1, r in caps], axis=0) + grow
    pts = cloud.points
    near = ((pts >= box_lo) & (pts <= box_hi)).all(axis=1)
    if near.sum() == 1 and len(pts) > 1:
        # matmul takes a dot path for one row, whose rounding can differ from
        # the multi-row path the whole cloud takes; test one more point
        near[np.argmin(near)] = True
    sub = pts[near]
    keep_sub = np.ones(len(sub), dtype=bool)
    for p0, p1, r in caps:
        keep_sub &= _point_segment_dist(sub, p0, p1) > r + BODY_MARGIN
    keep = np.ones(len(cloud), dtype=bool)
    keep[near] = keep_sub
    return cloud.select(keep)
