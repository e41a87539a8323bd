"""Parametric ground-truth terrains and exact height queries.

Terrain primitives are profiles along x, extruded along y. A heightfield
stores that profile sampled once at x cell centers, with the number of cells
along y; lookups are piecewise-constant so vertical step faces stay sharp (no
interpolation smoothing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .geometry import Pose, yaw_aligned_grid
from .pointcloud import PointCloud

GT_PATCH_RESOLUTION = 0.0175  # scanner-analog grid pitch
SAMPLE_REGION = (0.5, 0.3)  # evaluated / sampled area around the base


class SceneError(ValueError):
    pass


class OutOfBoundsError(ValueError):
    pass


@dataclass(frozen=True)
class FlatRegion:
    z: float = 0.0


@dataclass(frozen=True)
class Step:
    """Raised box: z = height for x in [x_start, x_start + depth)."""

    x_start: float
    height: float
    depth: float

    def x_interval(self) -> tuple[float, float]:
        return (self.x_start, self.x_start + self.depth)


@dataclass(frozen=True)
class Platform:
    """Rising steps to a platform, then a downward ramp back to ground."""

    x_start: float
    rise_steps: tuple[tuple[float, float], ...]  # (height, depth) per rise
    platform_height: float
    platform_length: float
    ramp_slope: float

    def x_interval(self) -> tuple[float, float]:
        depth = sum(d for _, d in self.rise_steps) + self.platform_length
        depth += self.platform_height / self.ramp_slope
        return (self.x_start, self.x_start + depth)


Primitive = FlatRegion | Step | Platform


@dataclass
class SceneSpec:
    primitives: list[Primitive]
    extent: tuple[float, float]  # world size in x and y, base height z = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if len(self.extent) != 2 or not all(0 < e < math.inf for e in self.extent):
            raise SceneError(f"scene extent must be two positive finite sizes: {self.extent}")
        intervals = []
        for p in self.primitives:
            if isinstance(p, Platform) and any(len(r) != 2 for r in p.rise_steps):
                raise SceneError(f"rise steps must be (height, depth) pairs in {p}")
            values = np.hstack([np.ravel(getattr(p, f.name)) for f in fields(p)])
            if not np.isfinite(values).all():
                raise SceneError(f"non-finite value in {p}")
            if isinstance(p, Step):
                if p.height == 0 or p.depth <= 0:
                    raise SceneError(f"degenerate step: {p}")
                intervals.append((p.x_interval(), p))
            elif isinstance(p, Platform):
                if p.platform_height <= 0 or p.platform_length <= 0 or p.ramp_slope <= 0:
                    raise SceneError(f"degenerate platform: {p}")
                for h, d in p.rise_steps:
                    if h <= 0 or d <= 0:
                        raise SceneError(f"degenerate rise step in {p}")
                intervals.append((p.x_interval(), p))
        intervals.sort(key=lambda iv: iv[0][0])
        for (a, pa), (b, pb) in zip(intervals, intervals[1:]):
            if b[0] < a[1]:
                raise SceneError(
                    f"primitives overlap in x: {pa} spans {a}, {pb} spans {b}"
                )

    def base_height(self) -> float:
        for p in self.primitives:
            if isinstance(p, FlatRegion):
                return p.z
        return 0.0

    def profile_height(self, x: np.ndarray) -> np.ndarray:
        """Terrain height as a function of x (y-invariant)."""
        x = np.asarray(x, dtype=float)
        z = np.full_like(x, self.base_height())
        for p in self.primitives:
            if isinstance(p, FlatRegion):
                continue
            if isinstance(p, Step):
                mask = (x >= p.x_start) & (x < p.x_start + p.depth)
                z[mask] = p.height
            elif isinstance(p, Platform):
                cur = p.x_start
                level = 0.0
                for h, d in p.rise_steps:
                    level += h
                    mask = (x >= cur) & (x < cur + d)
                    z[mask] = level
                    cur += d
                mask = (x >= cur) & (x < cur + p.platform_length)
                z[mask] = p.platform_height
                cur += p.platform_length
                ramp_len = p.platform_height / p.ramp_slope
                mask = (x >= cur) & (x < cur + ramp_len)
                z[mask] = p.platform_height - (x[mask] - cur) * p.ramp_slope
        return z

    @classmethod
    def from_dict(cls, d: dict) -> "SceneSpec":
        prims: list[Primitive] = []
        for pd in d.get("primitives", []):
            pd = dict(pd)
            kind = pd.pop("type")
            if kind == "flat":
                prims.append(FlatRegion(**pd))
            elif kind == "step":
                prims.append(Step(**pd))
            elif kind == "platform":
                pd["rise_steps"] = tuple(tuple(r) for r in pd["rise_steps"])
                prims.append(Platform(**pd))
            else:
                raise SceneError(f"unknown primitive type {kind!r}")
        return cls(primitives=prims, extent=tuple(d["extent"]))


def obstacle_scene() -> SceneSpec:
    """Two 0.10 m steps up to a 0.30 m platform, then a downward ramp, on an
    8 m x 3 m floor."""
    return SceneSpec(
        primitives=[
            FlatRegion(z=0.0),
            Platform(
                x_start=3.0,
                rise_steps=((0.10, 0.30), (0.10, 0.30)),
                platform_height=0.30,
                platform_length=1.0,
                ramp_slope=0.3,
            ),
        ],
        extent=(8.0, 3.0),
    )


@dataclass(frozen=True)
class Heightfield:
    """Ground-truth terrain: one height per x cell, extruded over `ny` cells
    along y. Immutable after construction."""

    resolution: float
    origin: tuple[float, float]  # world xy of cell (0, 0) lower corner
    profile: np.ndarray  # (nx,) heights, read-only
    ny: int  # cells along y

    def __post_init__(self):
        if self.resolution <= 0:
            raise SceneError("resolution must be positive")
        if self.profile.ndim != 1 or len(self.profile) < 1 or self.ny < 1:
            raise SceneError("heightfield needs at least a 1x1 grid")
        if not np.isfinite(self.profile).all():
            raise SceneError("heightfield contains non-finite heights")
        self.profile.setflags(write=False)

    @cached_property
    def x_runs(self) -> np.ndarray:
        """The profile as runs of equal height: a read-only (K, 3) array of
        (x_start, x_end, height) rows in increasing x, built on first use.
        Run k covers [x_start, x_end) over the whole y extent."""
        z = self.profile
        starts = np.flatnonzero(np.r_[True, z[1:] != z[:-1]])
        x = self.origin[0] + np.append(starts, len(z)) * self.resolution
        runs = np.column_stack([x[:-1], x[1:], z[starts]])
        runs.setflags(write=False)
        return runs

    @property
    def extent(self) -> tuple[int, int]:
        return (len(self.profile), self.ny)

    @property
    def size(self) -> tuple[float, float]:
        nx, ny = self.extent
        return (nx * self.resolution, ny * self.resolution)

    def heights_at(self, xy: np.ndarray, fill: float = np.nan) -> np.ndarray:
        """Vectorized lookup; out-of-extent entries get `fill`."""
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        # bounds are checked before the cast, so NaN is off the grid too
        cell = np.floor((xy - np.asarray(self.origin)) / self.resolution)
        ok = ((cell >= 0) & (cell < self.extent)).all(axis=1)
        out = np.full(len(xy), fill, dtype=float)
        out[ok] = self.profile[cell[ok, 0].astype(int)]
        return out

    def to_csv(self, path) -> None:
        """The (nx, ny) grid, one row per x cell, under a header line."""
        with open(path, "w") as f:
            f.write(
                f"# resolution={self.resolution} origin={self.origin[0]},{self.origin[1]}\n"
            )
            grid = np.broadcast_to(self.profile[:, None], self.extent)
            np.savetxt(f, grid, delimiter=",", fmt="%.9g")


def build_scene(spec: SceneSpec, resolution: float) -> Heightfield:
    """Sample the scene's analytic profile at cell centers."""
    if resolution <= 0:
        raise SceneError("resolution must be positive")
    nx = max(1, int(round(spec.extent[0] / resolution)))
    ny = max(1, int(round(spec.extent[1] / resolution)))
    xc = (np.arange(nx) + 0.5) * resolution
    return Heightfield(resolution, (0.0, 0.0), profile=spec.profile_height(xc), ny=ny)


def ground_truth_patch(
    hf: Heightfield,
    base_pose: Pose,
    region: tuple[float, float] = SAMPLE_REGION,
    resolution: float = GT_PATCH_RESOLUTION,
) -> tuple[PointCloud, int]:
    """One point per ground-truth cell center in the yaw-aligned region
    around the base. Returns (cloud in world frame, clipped point count).
    """
    nx = math.ceil(region[0] / resolution)
    ny = math.ceil(region[1] / resolution)
    world = yaw_aligned_grid(base_pose, nx, ny, resolution)
    z = hf.heights_at(world)
    ok = np.isfinite(z)
    clipped = int((~ok).sum())
    pts = np.column_stack([world[ok], z[ok]])
    return PointCloud(t=0.0, frame="world", points=pts), clipped
