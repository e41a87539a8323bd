"""Timestamped 3D point clouds with sensor-frame provenance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose


@dataclass
class PointCloud:
    t: float
    frame: str
    points: np.ndarray  # (N, 3)
    # each point's row of its camera's `ray_directions`; only `render_depth`
    # sets it, and `transformed` and `select` keep it
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
