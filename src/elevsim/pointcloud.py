"""Timestamped 3D point clouds with sensor-frame provenance, and the exact
nearest-neighbour distances of the outlier filter and the chamfer.

Every distance is summed as `cKDTree` sums it, ((dx² + dy²) + dz²), so the
roots have the bits of a `cKDTree` query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose


@dataclass
class PointCloud:
    t: float
    frame: str
    points: np.ndarray  # (N, 3)
    # each point's row of its camera's `ray_directions`, as `render_depth`
    # sets it, or its node of the patch lattice, as `ground_truth_patch`
    # sets it; `transformed` and `select` keep it
    pixels: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.isfinite(self.points).all():
            raise ValueError("point cloud contains non-finite coordinates")
        if not self.frame:
            raise ValueError("point cloud needs a frame tag")

    def __len__(self) -> int:
        return len(self.points)

    def transformed(self, pose: Pose) -> "PointCloud":
        """The points mapped through `pose`, tagged as world frame."""
        return PointCloud(
            t=self.t, frame="world", points=pose.transform(self.points), pixels=self.pixels
        )

    def select(self, mask: np.ndarray) -> "PointCloud":
        """The points at boolean `mask`; a subset of a checked cloud needs no
        second finite check. `compress` copies whole rows, where a boolean
        index of a 2-D array takes numpy's much slower generic path."""
        sub = object.__new__(PointCloud)
        sub.t, sub.frame, sub.points = self.t, self.frame, self.points.compress(mask, axis=0)
        sub.pixels = None if self.pixels is None else self.pixels.compress(mask)
        return sub

    def ranges(self) -> np.ndarray:
        """Each point's distance from the frame's origin, as `np.linalg.norm`
        sums it: ((x² + y²) + z²)."""
        x, y, z = self.points.T
        return np.sqrt((x * x + y * y) + z * z)


def empty_cloud(t: float, frame: str) -> PointCloud:
    return PointCloud(t=t, frame=frame, points=np.zeros((0, 3)))


# pairs per chunk of `nearest_sq`, so that no temporary outgrows 512 KB
NEAREST_CHUNK = 1 << 16


def window_sq(grid: np.ndarray, near: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """((dx² + dy²) + dz²) from each of M `centres`, (3, M), to the entries
    of `grid`, one row per axis, that column m of `near`, (K, M), indexes:
    (K, M), in two buffers. An entry of inf gives inf."""
    d2, sq = np.empty(near.shape), np.empty(near.shape)
    for k, (row, centre) in enumerate(zip(grid, centres)):
        acc = d2 if k == 0 else sq
        np.take(row, near, out=acc)
        acc -= centre
        acc *= acc
        if k:
            d2 += sq
    return d2


def nearest_sq(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """(M, k): the k smallest squared distances from each of the M `queries`
    to `points`, ascending. Brute force over chunks of queries, each at most
    NEAREST_CHUNK pairs (one query at least), in two buffers."""
    cols = points.T.copy()
    step = max(1, NEAREST_CHUNK // len(points))
    bufs = np.empty((2, min(step, len(queries)), len(points)))
    out = np.empty((len(queries), k))
    for lo in range(0, len(queries), step):
        q = queries[lo : lo + step]
        d2, sq = bufs[:, : len(q)]
        for j, row in enumerate(cols):
            acc = d2 if j == 0 else sq
            np.subtract(row, q[:, j, None], out=acc)
            acc *= acc
            if j:
                d2 += sq
        if k == 1:
            d2.min(axis=1, out=out[lo : lo + step, 0])
        else:
            part = np.partition(d2, k - 1, axis=1)[:, :k]
            part.sort(axis=1)
            out[lo : lo + step] = part
    return out
