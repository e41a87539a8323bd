"""Robot-centric 2.5D elevation map with per-cell Kalman fusion.

Each cell holds a scalar height estimate with variance. New measurements are
fused with a scalar Kalman update whose measurement variance depends on the
sensor range and whose prior variance is inflated with elapsed time. Odometry
drift is compensated by a global z-shift computed from the mean discrepancy
between the incoming cloud and the map, applied before integration.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .geometry import Pose
from .pointcloud import PointCloud
from .schema import NON_NEGATIVE, POSITIVE, Validated, check, interval, rule

DEFAULT_RESOLUTION = 0.025
DEFAULT_SIZE = 5.0  # also the largest map
# the most cells along a side: 2048 keeps every run's map (the finest, the
# benchmark's 0.0125 m sweep, has 400) and bounds the four layers to about
# 105 MB, where a mistyped resolution would ask for gigabytes
MAX_CELLS = 2048
# drift compensation: the largest measurement-vs-map discrepancy (m) that
# counts, and the fewest gated points that move the map
DRIFT_GATE = 0.03
DRIFT_MIN_POINTS = 20


@dataclass(frozen=True)
class SensorVarianceModel(Validated):
    base_variance: float = rule(POSITIVE, default=1e-4)  # m^2 at zero range
    range_coeff: float = rule(NON_NEGATIVE, default=1e-4)  # m^2 per m^2 of range
    time_variance_rate: float = rule(NON_NEGATIVE, default=3e-7)  # m^2 per s of staleness

    def measurement_variance(self, ranges: np.ndarray) -> np.ndarray:
        return self.base_variance + self.range_coeff * np.asarray(ranges) ** 2


def _public_layer(i: int) -> property:
    """Layer i as a read-only copy in logical order."""

    def read(emap: ElevationMap) -> np.ndarray:
        layer = emap._logical(emap._layers[i])
        layer.flags.writeable = False
        return layer

    return property(read)


class ElevationMap:
    """Square grid of {height, variance, valid, last_update} cells that
    scrolls with the robot. Single writer; no read changes the map.
    """

    def __init__(
        self,
        resolution: float = DEFAULT_RESOLUTION,
        size: float = DEFAULT_SIZE,
        center=(0.0, 0.0),
    ):
        self.resolution = check("resolution", resolution, POSITIVE)
        if not 0 < size <= DEFAULT_SIZE + 1e-9:
            raise ValueError(f"map size must be in (0, {DEFAULT_SIZE}] m")
        self.n = int(round(size / resolution))
        if self.n < 1:
            raise ValueError(f"map size {size} m rounds to zero {resolution} m cells")
        if self.n > MAX_CELLS:
            raise ValueError(f"a {size} m map at {resolution} m has {self.n} cells a side,"
                             f" more than {MAX_CELLS}")
        # a center and a robot position within this reach of the origin keep
        # center / resolution, the jump between them and the jump in cells
        # finite; recenter moves the center at most half a cell past it
        self._reach = reach = min(1.0, self.resolution) * sys.float_info.max / 4
        within = interval(f"within {reach:.3g} m of the origin", -reach, reach, True, True)
        center = check("map center", center, within, 2)
        # center snapped to the grid so recentering moves whole cells
        self.center = np.round(center / resolution) * resolution
        # the layers are a ring: logical cell (i, j) is stored at
        # ((i + ox) % n, (j + oy) % n), so recenter moves the offset (ox, oy)
        # and clears the strips that scrolled in, and copies no layer
        self._layers = (
            np.zeros((self.n, self.n)),
            np.zeros((self.n, self.n)),
            np.zeros((self.n, self.n), dtype=bool),
            np.zeros((self.n, self.n)),
        )
        self._offset = (0, 0)
        # ring position p < 2n is stored at p mod n: _ring[o:][i] is
        # (i + o) % n for an offset o, without a modulo per lookup
        self._ring = np.arange(2 * self.n) % self.n
        # integrate_cloud's per-cell slots: only the touched ones, each
        # written before it is read, so np.empty's untouched pages stay free
        self._slot = np.empty(self.n * self.n, dtype=np.int32)
        self.total_shift = 0.0
        self.last_time = 0.0
        self.skipped_points = 0

    def _logical(self, layer: np.ndarray) -> np.ndarray:
        """A copy of a stored layer (or one of its shape) in logical order."""
        return np.roll(layer, (-self._offset[0], -self._offset[1]), axis=(0, 1))

    height = _public_layer(0)
    variance = _public_layer(1)
    valid = _public_layer(2)
    last_update = _public_layer(3)

    @property
    def origin(self) -> np.ndarray:
        return self.center - 0.5 * self.n * self.resolution

    def cell_indices(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, 2) cell index of each point and the mask of those in the window."""
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        # bounded to twice the center's reach, outside every window, so the
        # division stays finite, then clamped to [-1, n] (NaN to n) so every
        # point casts to a defined index; as unsigned, a negative index is out
        # of range too, so the larger of the two tests both bounds of both axes
        xy = np.minimum(np.maximum(xy, -2 * self._reach), 2 * self._reach)
        cell = np.floor((xy - self.origin) / self.resolution)
        idx = np.fmax(np.fmin(cell, self.n), -1).astype(int)
        u = idx.view(np.uint64)
        ok = np.maximum(u[:, 0], u[:, 1]) < self.n
        return idx, ok

    def lookup(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat index into the stored layers of each in-window point's cell,
        in point order, and the in-window mask: the `cells` of
        `drift_compensate` and `integrate_cloud`, valid until a recenter."""
        idx, ok = self.cell_indices(xy)
        idx = idx.compress(ok, axis=0)
        ox, oy = self._offset
        return self._ring[ox:][idx[:, 0]] * self.n + self._ring[oy:][idx[:, 1]], ok

    def _flat_layers(self) -> tuple[np.ndarray, ...]:
        """Flat views of the stored height, variance, valid and last_update
        layers, which `lookup` indexes."""
        return tuple(layer.reshape(-1) for layer in self._layers)

    def integrate_cloud(
        self,
        cloud: PointCloud,
        sensor_origin: np.ndarray,
        model: SensorVarianceModel,
        t: float,
        cells: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> int:
        """Fuse a filtered world-frame cloud. Returns skipped point count.

        Per-point measurement variance is sensor-range dependent; the prior
        cell variance is inflated by the staleness since its last update.
        Fusion uses the information form, which is exactly the sequential
        scalar Kalman update for any per-cell point ordering. `cells` is
        the cloud's `lookup`, made here when it is not given.
        """
        if t < self.last_time - 1e-12:
            raise ValueError("integrate_cloud called with a timestamp in the past")
        self.last_time = max(self.last_time, t)
        if len(cloud) == 0:
            return 0
        flat, ok = self.lookup(cloud.points[:, :2]) if cells is None else cells
        skipped = len(ok) - len(flat)
        self.skipped_points += skipped
        if not len(flat):
            return skipped

        pts = cloud.points.compress(ok, axis=0)
        # the range as `np.linalg.norm` sums it: ((dx² + dy²) + dz²)
        dx, dy, dz = (pts - np.asarray(sensor_origin, dtype=float)).T
        ranges = np.sqrt((dx * dx + dy * dy) + dz * dz)
        r_var = model.measurement_variance(ranges)
        # each point's group is the index of one point in its cell, the one
        # whose slot write stood: all of a cell's points read it back. So the
        # cells group without a sort, and each cell's sums keep point order
        m = len(flat)
        self._slot[flat] = np.arange(m, dtype=np.int32)
        group = self._slot[flat]
        info_add = np.bincount(group, weights=1.0 / r_var, minlength=m)
        z_info = np.bincount(group, weights=pts[:, 2] / r_var, minlength=m)
        # the groups that are no cell's, and cells whose points carry no
        # information, have info_add 0
        keep = info_add > 0
        hit = flat.compress(keep)
        info_add, z_info = info_add.compress(keep), z_info.compress(keep)

        height, variance, valid, last_update = self._flat_layers()
        prior_var = variance[hit] + model.time_variance_rate * np.maximum(
            0.0, t - last_update[hit]
        )
        prior_info = np.where(valid[hit], 1.0 / np.where(prior_var > 0, prior_var, 1.0), 0.0)
        new_info = prior_info + info_add
        # residual form: a measurement equal to the estimate leaves it bit-exact
        height[hit] += (z_info - info_add * height[hit]) / new_info
        variance[hit] = 1.0 / new_info
        valid[hit] = True
        last_update[hit] = t
        return skipped

    def drift_compensate(
        self, cloud: PointCloud, cells: tuple[np.ndarray, np.ndarray] | None = None
    ) -> float:
        """Global z-shift from the mean discrepancy of the measurements within
        DRIFT_GATE of the map, applied only when at least DRIFT_MIN_POINTS
        count. `cells` is the cloud's `lookup`, made here when it is not
        given; the shift moves heights, not cells, so the frame's
        `integrate_cloud` can take the same lookup. Returns the applied shift.
        """
        if len(cloud) == 0:
            return 0.0
        flat, ok = self.lookup(cloud.points[:, :2]) if cells is None else cells
        height, _, valid, _ = self._flat_layers()
        on_map = valid[flat]
        if not on_map.any():
            return 0.0
        diff = cloud.points[:, 2].compress(ok).compress(on_map) - height[flat.compress(on_map)]
        diff = diff[np.abs(diff) <= DRIFT_GATE]
        if len(diff) < DRIFT_MIN_POINTS:
            return 0.0
        shift = float(diff.mean())
        # the masked add beats a flat index here: the valid cells lie in
        # runs. It moves every valid cell alike, so it needs no offset
        height, _, valid, _ = self._layers
        np.add(height, shift, out=height, where=valid)
        self.total_shift += shift
        return shift

    def recenter(self, robot_xy: np.ndarray) -> None:
        """Scroll the window so the robot is centered; cells scrolling out
        are invalidated, retained cells keep their state bit-exactly.
        """
        robot_xy = np.asarray(robot_xy, dtype=float)
        if not (np.abs(robot_xy) <= self._reach).all():
            raise ValueError(
                f"robot position must be finite and within {self._reach:.3g} m of the"
                f" origin: {robot_xy.tolist()}"
            )
        k = np.round((robot_xy - self.center) / self.resolution)
        if k[0] == 0 and k[1] == 0:
            return
        # a jump of n or more cells keeps nothing: clamped, it clears all
        n = self.n
        kx, ky = (int(v) for v in np.clip(k, -n, n))
        # cell (i, j) takes cell (i + kx, j + ky): the offset moves by the
        # jump, and the stored rows and columns between the old and the new
        # offset are the strips that scrolled in
        ox, oy = self._offset
        new_ox, new_oy = (ox + kx) % n, (oy + ky) % n
        rows = _ring_slices(ox if kx > 0 else new_ox, abs(kx), n)
        cols = _ring_slices(oy if ky > 0 else new_oy, abs(ky), n)
        for layer in self._layers:
            for r in rows:
                layer[r] = 0  # False in valid
            for c in cols:
                layer[:, c] = 0
        self._offset = (new_ox, new_oy)
        self.center = self.center + k * self.resolution

    def query_height(self, x: float, y: float) -> tuple[float, float] | None:
        """Valid in-window cell state as (height, variance), else None."""
        flat, ok = self.lookup(np.array([[x, y]]))
        height, variance, valid, _ = self._flat_layers()
        if not ok[0] or not valid[flat[0]]:
            return None
        return float(height[flat[0]]), float(variance[flat[0]])

    def query_heights(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized query: (heights with NaN for missing, valid mask)."""
        flat, ok = self.lookup(xy)
        height, _, valid, _ = self._flat_layers()
        on_map = valid[flat]
        mask = ok.copy()
        mask[ok] = on_map
        out = np.full(len(ok), np.nan)
        out[mask] = height[flat[on_map]]
        return out, mask

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        c = (np.arange(self.n) + 0.5) * self.resolution
        return self.origin[0] + c, self.origin[1] + c

    def region_points(self, base_pose: Pose, region: tuple[float, float]) -> np.ndarray:
        """Valid cell centers + heights inside the yaw-aligned region around
        the base, as an (M, 3) world-frame array.
        """
        # only cells centred within the half-diagonal can be inside; floor and
        # ceil keep at least half a cell beyond it. The window keeps the full
        # grid's expressions and row-major order, the chamfer mean's sum order
        reach = 0.5 * np.hypot(*region)
        lo = np.floor((base_pose.position[:2] - reach - self.origin) / self.resolution)
        hi = np.ceil((base_pose.position[:2] + reach - self.origin) / self.resolution)
        # fmax/fmin map a NaN bound to 0: an undefined pose reads no cells
        (i0, j0), (i1, j1) = np.fmin(np.fmax([lo, hi], 0), self.n).astype(int)
        cx, cy = self.cell_centers()
        # the window's cell centres, x the slow axis
        gx = np.repeat(cx[i0:i1], j1 - j0)
        gy = np.tile(cy[j0:j1], i1 - i0)
        rel = np.column_stack([gx - base_pose.position[0], gy - base_pose.position[1]])
        R = base_pose.yaw_rotation[:2, :2]
        local = rel @ R  # world -> base-aligned
        inside = (np.abs(local[:, 0]) <= region[0] / 2) & (np.abs(local[:, 1]) <= region[1] / 2)
        # the window's stored cells, gathered in logical row-major order
        ox, oy = self._offset
        rows = self._ring[ox + i0:ox + i1] * self.n
        cells = (rows[:, None] + self._ring[oy + j0:oy + j1]).ravel()
        height, _, valid, _ = self._flat_layers()
        inside &= valid[cells]
        return np.column_stack([gx[inside], gy[inside], height[cells[inside]]])

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write(
                f"# center={self.center[0]},{self.center[1]} resolution={self.resolution}"
                f" shift={self.total_shift}\n"
            )
            height, variance, valid, _ = self._layers
            for name, layer in (("height", height), ("variance", variance)):
                f.write(f"# {name} layer\n")
                logical = self._logical(np.where(valid, layer, np.nan))
                np.savetxt(f, logical, delimiter=",", fmt="%.9g")


def _ring_slices(start: int, length: int, n: int) -> tuple[slice, ...]:
    """Slices of the `length` (at most n) ring positions from `start` on."""
    end = start + length
    if end <= n:
        return (slice(start, end),)
    return slice(start, n), slice(0, end - n)
