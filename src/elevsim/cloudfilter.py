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
TRUNK_ENDS = np.array([[TRUNK_HALF_LENGTH, 0.0, 0.0], [-TRUNK_HALF_LENGTH, 0.0, 0.0]])
CAPSULE_RADII = np.array([TRUNK_RADIUS] + [LEG_RADIUS] * 8)
TRUNK_ENDS.setflags(write=False)
CAPSULE_RADII.setflags(write=False)


def _leg_dirs(roll: np.ndarray, pitch: np.ndarray) -> np.ndarray:
    """Unit leg-segment directions in the hip frames, nominally downward:
    (..., 4, 3) from (..., 4) hip rolls and segment pitches."""
    cr, sr = np.cos(roll), np.sin(roll)
    zero, one = np.zeros_like(cr), np.ones_like(cr)
    rx = np.stack([one, zero, zero, zero, cr, -sr, zero, sr, cr], axis=-1)
    d = np.stack([np.sin(pitch), zero, -np.cos(pitch)], axis=-1)
    return (rx.reshape(cr.shape + (3, 3)) @ d[..., None])[..., 0]


def body_capsules(pose: Pose, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """World-frame capsules of the base at `pose` with joint angles `q`,
    posed by forward kinematics: axis ends `p0` and `p1`, each (9, 3), and
    the (9,) radii; the trunk first, then each leg's thigh and calf. A
    stack of N poses with (N, 12) `q` gives (N, 9, 3) ends whose row k has
    the bits of pose k alone."""
    q = np.asarray(q, dtype=float)
    # contiguous angles take the same cos/sin loops as one tick's scalars
    roll, thigh, calf = (np.ascontiguousarray(q[..., k::3]) for k in range(3))
    knee = HIP_OFFSETS + THIGH_LENGTH * _leg_dirs(roll, thigh)
    foot = knee + CALF_LENGTH * _leg_dirs(roll, thigh + calf)
    lead = knee.shape[:-2]
    hip = np.broadcast_to(HIP_OFFSETS, knee.shape)
    # body-frame ends, then one matrix-vector product per end, the BLAS
    # path of `Pose.transform` on one point
    ends = (
        np.concatenate(
            [np.broadcast_to(trunk, lead + (1, 3)), np.stack(leg, axis=-2).reshape(lead + (8, 3))],
            axis=-2,
        )
        for trunk, leg in zip(TRUNK_ENDS, ((hip, knee), (knee, foot)))
    )
    R = pose.rotation[..., None, :, :]
    p0, p1 = ((R @ e[..., None])[..., 0] + pose.position[..., None, :] for e in ends)
    return p0, p1, CAPSULE_RADII


def body_filter(cloud: PointCloud, caps: tuple[np.ndarray, np.ndarray, np.ndarray]) -> PointCloud:
    """Remove every world-frame point within `BODY_MARGIN` of a body capsule.
    `caps` is `body_capsules` of one pose, or row k of a stacked call's ends
    with its radii.

    Only points inside the capsules' bounding box, grown by radius + margin
    and a slack, get the distance test, all nine capsules in one pass; every
    point outside it is farther than radius + margin from each capsule and
    is kept.
    """
    if len(cloud) == 0:
        return cloud
    p0, p1, r = caps
    # 1 um lies far above the rounding error of the distance test
    grow = BODY_MARGIN + 1e-6
    box_lo = (np.minimum(p0, p1) - r[:, None]).min(axis=0) - grow
    box_hi = (np.maximum(p0, p1) + r[:, None]).max(axis=0) + grow
    pts = cloud.points
    near = ((pts >= box_lo) & (pts <= box_hi)).all(axis=1)
    if near.sum() == 1 and len(pts) > 1:
        # matmul takes a dot path for one row, whose rounding can differ from
        # the multi-row path the whole cloud takes; test one more point
        near[np.argmin(near)] = True
    sub = pts[near]
    # each point's distance to each capsule axis, as (9, M): the projection
    # onto the axis clipped to its ends; a zero-length axis leaves u = 0,
    # the distance to its one end
    seg = p1 - p0
    L2 = np.vecdot(seg, seg)
    u = (sub - p0[:, None]) @ seg[:, :, None]
    u = np.clip(u[..., 0] / np.where(L2 > 0, L2, 1.0)[:, None], 0.0, 1.0)
    closest = p0[:, None] + u[..., None] * seg[:, None]
    dist = np.linalg.norm(sub - closest, axis=-1)
    keep = np.ones(len(cloud), dtype=bool)
    keep[near] = (dist > (r + BODY_MARGIN)[:, None]).all(axis=0)
    return cloud.select(keep)
