"""Parametric ground-truth terrains and exact height queries.

Terrain primitives are profiles along x, extruded along y. A heightfield
stores that profile sampled once at the x cell centers of the one scene grid
(GT_PATCH_RESOLUTION cells from the world origin), with the number of cells
along y; lookups are piecewise-constant so vertical step faces stay sharp (no
interpolation smoothing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import Pose, yaw_aligned_grid
from .pointcloud import PointCloud
from .schema import FINITE, PAIRS, POSITIVE, Validated, rule

GT_PATCH_RESOLUTION = 0.0175  # scanner-analog pitch of the scene grid and the GT patch
SAMPLE_REGION = (0.5, 0.3)  # evaluated / sampled area around the base


class SceneError(ValueError):
    pass


class OutOfBoundsError(ValueError):
    pass


@dataclass(frozen=True)
class FlatRegion(Validated):
    z: float = rule(FINITE, default=0.0)


@dataclass(frozen=True)
class Step(Validated):
    """Raised box: z = height for x in [x_start, x_start + depth)."""

    x_start: float = rule(FINITE)
    height: float = rule(FINITE)  # non-zero, checked by the scene
    depth: float = rule(POSITIVE)

    def x_interval(self) -> tuple[float, float]:
        return (self.x_start, self.x_start + self.depth)


@dataclass(frozen=True)
class Platform(Validated):
    """Rising steps to a platform, then a downward ramp back to ground."""

    x_start: float = rule(FINITE)
    rise_steps: tuple[tuple[float, float], ...] = rule(POSITIVE, PAIRS)  # (height, depth) each
    platform_height: float = rule(POSITIVE)
    platform_length: float = rule(POSITIVE)
    ramp_slope: float = rule(POSITIVE)

    def x_interval(self) -> tuple[float, float]:
        depth = sum(d for _, d in self.rise_steps) + self.platform_length
        depth += self.platform_height / self.ramp_slope
        return (self.x_start, self.x_start + depth)


PRIMITIVE_TYPES = {"flat": FlatRegion, "step": Step, "platform": Platform}  # scene dict `type`s


@dataclass(frozen=True)
class SceneSpec(Validated):
    error = SceneError  # of `schema.build`, for the whole scene section
    primitives: list[FlatRegion | Step | Platform] = field(metadata={"sections": PRIMITIVE_TYPES})
    extent: np.ndarray = rule(POSITIVE, 2)  # world size in x and y, base height z = 0

    def __post_init__(self):
        try:
            super().__post_init__()
        except ValueError as e:
            raise SceneError(*e.args) from None
        flats = [i for i, p in enumerate(self.primitives) if isinstance(p, FlatRegion)]
        if len(flats) > 1:
            raise SceneError(f"primitives[{flats[1]}] is a second flat region; only the first"
                             f" sets the base height: {self.primitives[flats[1]]}")
        spans = []
        for i, p in enumerate(self.primitives):
            if isinstance(p, Step) and p.height == 0:
                raise SceneError(f"primitives[{i}].height must be non-zero: {p}")
            if isinstance(p, FlatRegion):
                continue
            a, b = p.x_interval()
            if b <= 0 or a >= self.extent[0]:
                raise SceneError(f"primitives[{i}] spans x in [{a}, {b}), outside the scene's"
                                 f" [0, {self.extent[0]}): {p}")
            spans.append(((a, b), p))
        spans.sort(key=lambda span: span[0][0])
        for (a, pa), (b, pb) in zip(spans, spans[1:]):
            if b[0] < a[1]:
                raise SceneError(f"primitives overlap in x: {pa} spans {a}, {pb} spans {b}")

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
    """Ground-truth terrain on the scene grid, whose square cells of
    GT_PATCH_RESOLUTION start at the world origin: one height per x cell,
    extruded over `ny` cells along y. Immutable after construction."""

    profile: np.ndarray  # (nx,) heights, read-only
    ny: int  # cells along y

    def __post_init__(self):
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
        x = np.append(starts, len(z)) * GT_PATCH_RESOLUTION
        runs = np.column_stack([x[:-1], x[1:], z[starts]])
        runs.setflags(write=False)
        return runs

    @property
    def extent(self) -> tuple[int, int]:
        return (len(self.profile), self.ny)

    @property
    def size(self) -> tuple[float, float]:
        nx, ny = self.extent
        return (nx * GT_PATCH_RESOLUTION, ny * GT_PATCH_RESOLUTION)

    def heights_at(self, xy: np.ndarray, fill: float = np.nan) -> np.ndarray:
        """Vectorized lookup; out-of-extent entries get `fill`."""
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        # bounds are checked before the cast, so NaN is off the grid too
        cell = np.floor(xy / GT_PATCH_RESOLUTION)
        nx, ny = self.extent
        cx, cy = cell.T
        ok = (cx >= 0) & (cx < nx)
        ok &= (cy >= 0) & (cy < ny)
        out = np.full(len(xy), fill, dtype=float)
        out[ok] = self.profile[cx[ok].astype(int)]
        return out

    def height_at(self, x: float, y: float) -> float:
        """`heights_at` of one point on Python floats; NaN off the grid."""
        cx = x / GT_PATCH_RESOLUTION
        cy = y / GT_PATCH_RESOLUTION
        nx, ny = self.extent
        # bounds first: a NaN or infinite coordinate fails them, never floor
        if 0 <= cx < nx and 0 <= cy < ny:
            return float(self.profile[math.floor(cx)])
        return math.nan

    def to_csv(self, path) -> None:
        """The (nx, ny) grid, one row per x cell, under a header line."""
        with open(path, "w") as f:
            f.write(f"# resolution={GT_PATCH_RESOLUTION} origin=0.0,0.0\n")
            grid = np.broadcast_to(self.profile[:, None], self.extent)
            np.savetxt(f, grid, delimiter=",", fmt="%.9g")


def grid_shape(spec: SceneSpec) -> tuple[int, int]:
    """Cells along x and y of the heightfield that `build_scene` makes."""
    return tuple(max(1, int(round(e / GT_PATCH_RESOLUTION))) for e in spec.extent)


def build_scene(spec: SceneSpec) -> Heightfield:
    """Sample the scene's analytic profile at the scene grid's cell centers."""
    nx, ny = grid_shape(spec)
    xc = (np.arange(nx) + 0.5) * GT_PATCH_RESOLUTION
    return Heightfield(spec.profile_height(xc), ny)


def ground_truth_patch(hf: Heightfield, base_pose: Pose) -> PointCloud:
    """One point per GT_PATCH_RESOLUTION grid point of the yaw-aligned
    SAMPLE_REGION around the base that lies on the heightfield, as a
    world-frame cloud.
    """
    nx = math.ceil(SAMPLE_REGION[0] / GT_PATCH_RESOLUTION)
    ny = math.ceil(SAMPLE_REGION[1] / GT_PATCH_RESOLUTION)
    world = yaw_aligned_grid(base_pose, nx, ny, GT_PATCH_RESOLUTION)
    z = hf.heights_at(world)
    ok = np.isfinite(z)
    pts = np.column_stack([world.compress(ok, axis=0), z[ok]])
    return PointCloud(t=0.0, frame="world", points=pts)
