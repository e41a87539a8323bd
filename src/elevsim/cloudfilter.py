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

# statistical outlier removal: the neighbors averaged per point, and the
# cut-off in standard deviations above the mean
OUTLIER_K = 8
OUTLIER_STD_RATIO = 2.0


def remove_outliers(cloud: PointCloud) -> PointCloud:
    """Statistical outlier removal: keep a point iff its mean distance to its
    OUTLIER_K nearest neighbors is within (global mean + OUTLIER_STD_RATIO *
    global std).
    """
    n = len(cloud)
    if n < OUTLIER_K + 1:
        log.debug("cloud of %d points too small for k=%d; returned unchanged", n, OUTLIER_K)
        return cloud
    # the median-split build is cheaper than the balanced one and gives the
    # same neighbor distances
    tree = cKDTree(cloud.points, balanced_tree=False)
    dists, _ = tree.query(cloud.points, k=OUTLIER_K + 1)  # first neighbor is the point itself
    mean_d = _neighbor_mean(dists)
    keep = mean_d <= mean_d.mean() + OUTLIER_STD_RATIO * mean_d.std()
    return cloud.select(keep)


def _neighbor_mean(dists: np.ndarray) -> np.ndarray:
    """`dists[:, 1:].mean(axis=1)` for OUTLIER_K = 8, as a sum of columns in
    the order of numpy's 8-wide pairwise block, which gives its bits without
    its strided short-axis reduction."""
    _, c1, c2, c3, c4, c5, c6, c7, c8 = dists.T
    return (((c1 + c2) + (c3 + c4)) + ((c5 + c6) + (c7 + c8))) / 8


def voxel_downsample(cloud: PointCloud, resolution: float) -> PointCloud:
    """One centroid per occupied voxel of the world-aligned grid, in the order
    the voxels are first occupied in the input.

    The three voxel indices are packed into one int64 key, and each voxel's
    coordinate sums accumulate its points in input order, so a centroid has
    the same bits as a running sum over its points divided by their count.
    """
    if not 0 < resolution < np.inf:
        raise ValueError(f"resolution must be positive and finite: {resolution}")
    if len(cloud) == 0:
        return cloud
    # one contiguous row per axis: each row's min and max is a fast
    # contiguous reduction, where a column's is numpy's strided short-axis one
    coords = cloud.points.T.copy()
    keys = np.floor(coords / resolution)
    low = [row.min() for row in keys]
    high = [row.max() for row in keys]
    # the int64 cast is undefined beyond its range, so the float keys are
    # checked before it; inside it, each bound is exact as a Python int
    too_many = "cloud spans too many voxels to index at this resolution"
    if not (-(2.0**63) <= min(low) and max(high) < 2.0**63):
        raise ValueError(too_many)
    low = [int(a) for a in low]
    span = [int(b) - a + 1 for b, a in zip(high, low)]
    if span[0] * span[1] * span[2] > np.iinfo(np.int64).max:
        raise ValueError(too_many)
    kx, ky, kz = (row - a for row, a in zip(keys.astype(np.int64), low))
    packed = (kx * span[1] + ky) * span[2] + kz
    _, first, inv = np.unique(packed, return_index=True, return_inverse=True)
    sums = np.stack([np.bincount(inv, weights=row) for row in coords], axis=1)
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
    x, y, z = pts.T
    near = (x >= box_lo[0]) & (x <= box_hi[0])
    near &= (y >= box_lo[1]) & (y <= box_hi[1])
    near &= (z >= box_lo[2]) & (z <= box_hi[2])
    if near.sum() == 1 and len(pts) > 1:
        # matmul takes a dot path for one row, whose rounding can differ from
        # the multi-row path the whole cloud takes; test one more point
        near[np.argmin(near)] = True
    sub = pts.compress(near, axis=0)
    # each point's distance to each capsule axis, as (9, M): the projection
    # onto the axis clipped to its ends; a zero-length axis leaves u = 0,
    # the distance to its one end
    seg = p1 - p0
    L2 = np.vecdot(seg, seg)
    u = (sub - p0[:, None]) @ seg[:, :, None]
    u = np.clip(u[..., 0] / np.where(L2 > 0, L2, 1.0)[:, None], 0.0, 1.0)
    # the distance per axis, as `norm` sums it: ((dx² + dy²) + dz²)
    dx, dy, dz = (col - (p0[:, k, None] + u * seg[:, k, None]) for k, col in enumerate(sub.T))
    dist = np.sqrt((dx * dx + dy * dy) + dz * dz)
    keep = np.ones(len(cloud), dtype=bool)
    keep[near] = (dist > (r + BODY_MARGIN)[:, None]).all(axis=0)
    return cloud.select(keep)
