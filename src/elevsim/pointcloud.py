"""Timestamped 3D point clouds with sensor-frame provenance."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import Pose


@dataclass
class PointCloud:
    t: float
    frame: str
    points: np.ndarray  # (N, 3)

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
        return replace(self, frame="world", points=pose.transform(self.points))

    def select(self, mask: np.ndarray) -> "PointCloud":
        """The points at `mask`; a subset of a checked cloud needs no
        second finite check."""
        sub = object.__new__(PointCloud)
        sub.t, sub.frame, sub.points = self.t, self.frame, self.points[mask]
        return sub


def empty_cloud(t: float, frame: str) -> PointCloud:
    return PointCloud(t=t, frame=frame, points=np.zeros((0, 3)))
