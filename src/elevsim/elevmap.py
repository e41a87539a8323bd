"""Robot-centric 2.5D elevation map with per-cell Kalman fusion.

Each cell holds a scalar height estimate with variance. New measurements are
fused with a scalar Kalman update whose measurement variance depends on the
sensor range and whose prior variance is inflated with elapsed time. Odometry
drift is compensated by a global z-shift computed from the mean discrepancy
between the incoming cloud and the map, applied before integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose
from .pointcloud import PointCloud

DEFAULT_RESOLUTION = 0.025
DEFAULT_SIZE = 5.0
MAX_SIZE = 5.0
# drift compensation: the largest measurement-vs-map discrepancy (m) that
# counts, and the fewest gated points that move the map
DRIFT_GATE = 0.03
DRIFT_MIN_POINTS = 20


@dataclass
class SensorVarianceModel:
    base_variance: float = 1e-4  # m^2 at zero range
    range_coeff: float = 1e-4  # m^2 per m^2 of range
    time_variance_rate: float = 3e-7  # m^2 per second of cell staleness

    def __post_init__(self):
        if not 0 < self.base_variance < np.inf:
            raise ValueError(f"base_variance must be positive and finite: {self.base_variance}")
        for key in ("range_coeff", "time_variance_rate"):
            if not 0 <= getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be non-negative and finite: {getattr(self, key)}")

    def measurement_variance(self, ranges: np.ndarray) -> np.ndarray:
        return self.base_variance + self.range_coeff * np.asarray(ranges) ** 2


class ElevationMap:
    """Square grid of {height, variance, valid, last_update} cells that
    scrolls with the robot. Single writer; reads are safe between writes.
    """

    def __init__(
        self,
        resolution: float = DEFAULT_RESOLUTION,
        size: float = DEFAULT_SIZE,
        center=(0.0, 0.0),
    ):
        if not 0 < resolution < np.inf:
            raise ValueError("resolution must be positive and finite")
        if not 0 < size <= MAX_SIZE + 1e-9:
            raise ValueError(f"map size must be in (0, {MAX_SIZE}] m")
        self.resolution = float(resolution)
        self.n = int(round(size / resolution))
        if self.n < 1:
            raise ValueError(f"map size {size} m rounds to zero {resolution} m cells")
        # center snapped to the grid so recentering moves whole cells
        self.center = np.round(np.asarray(center, dtype=float) / resolution) * resolution
        self.height = np.zeros((self.n, self.n))
        self.variance = np.zeros((self.n, self.n))
        self.valid = np.zeros((self.n, self.n), dtype=bool)
        self.last_update = np.zeros((self.n, self.n))
        self.total_shift = 0.0
        self.last_time = 0.0
        self.skipped_points = 0

    @property
    def origin(self) -> np.ndarray:
        return self.center - 0.5 * self.n * self.resolution

    def cell_indices(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        idx = np.floor((xy - self.origin) / self.resolution).astype(int)
        ok = (
            (idx[:, 0] >= 0)
            & (idx[:, 0] < self.n)
            & (idx[:, 1] >= 0)
            & (idx[:, 1] < self.n)
        )
        return idx, ok

    def integrate_cloud(
        self,
        cloud: PointCloud,
        sensor_origin: np.ndarray,
        model: SensorVarianceModel,
        t: float,
    ) -> int:
        """Fuse a filtered world-frame cloud. Returns skipped point count.

        Per-point measurement variance is sensor-range dependent; the prior
        cell variance is inflated by the staleness since its last update.
        Fusion uses the information form, which is exactly the sequential
        scalar Kalman update for any per-cell point ordering.
        """
        if t < self.last_time - 1e-12:
            raise ValueError("integrate_cloud called with a timestamp in the past")
        self.last_time = max(self.last_time, t)
        if len(cloud) == 0:
            return 0
        idx, ok = self.cell_indices(cloud.points[:, :2])
        skipped = int((~ok).sum())
        self.skipped_points += skipped
        if not ok.any():
            return skipped

        pts = cloud.points[ok]
        ranges = np.linalg.norm(pts - np.asarray(sensor_origin, dtype=float), axis=1)
        r_var = model.measurement_variance(ranges)
        # touched cells in row-major order; per-cell sums keep point order
        cells, inv = np.unique(idx[ok, 0] * self.n + idx[ok, 1], return_inverse=True)
        info_add = np.bincount(inv, weights=1.0 / r_var, minlength=len(cells))
        z_info = np.bincount(inv, weights=pts[:, 2] / r_var, minlength=len(cells))
        keep = info_add > 0
        hit = np.unravel_index(cells[keep], (self.n, self.n))
        info_add, z_info = info_add[keep], z_info[keep]

        prior_valid = self.valid[hit]
        prior_var = self.variance[hit] + model.time_variance_rate * np.maximum(
            0.0, t - self.last_update[hit]
        )
        prior_info = np.where(prior_valid, 1.0 / np.where(prior_var > 0, prior_var, 1.0), 0.0)
        new_info = prior_info + info_add
        # residual form: a measurement equal to the estimate leaves it bit-exact
        self.height[hit] += (z_info - info_add * self.height[hit]) / new_info
        self.variance[hit] = 1.0 / new_info
        self.valid[hit] = True
        self.last_update[hit] = t
        return skipped

    def drift_compensate(
        self, cloud: PointCloud, gate: float = DRIFT_GATE, min_points: int = DRIFT_MIN_POINTS
    ) -> float:
        """Global z-shift from the mean gated measurement-vs-map discrepancy.
        Run before integrating the same frame. Returns the applied shift.
        The gate must be positive and finite and min_points at least 1, so
        the mean is never taken over an empty set.
        """
        if not 0 < gate < np.inf or min_points < 1:
            raise ValueError(
                f"need a positive finite gate and min_points >= 1: {gate}, {min_points}"
            )
        if len(cloud) == 0:
            return 0.0
        idx, ok = self.cell_indices(cloud.points[:, :2])
        ok = ok.copy()
        ok[ok] &= self.valid[idx[ok, 0], idx[ok, 1]]
        if not ok.any():
            return 0.0
        diff = cloud.points[ok, 2] - self.height[idx[ok, 0], idx[ok, 1]]
        diff = diff[np.abs(diff) <= gate]
        if len(diff) < min_points:
            return 0.0
        shift = float(diff.mean())
        np.add(self.height, shift, out=self.height, where=self.valid)
        self.total_shift += shift
        return shift

    def recenter(self, robot_xy: np.ndarray) -> None:
        """Scroll the window so the robot is centered; cells scrolling out
        are invalidated, retained cells keep their state bit-exactly.
        """
        k = np.round((np.asarray(robot_xy, dtype=float) - self.center) / self.resolution)
        k = k.astype(int)
        if k[0] == 0 and k[1] == 0:
            return
        # a jump of n or more cells keeps nothing: clamped, it clears all
        n = self.n
        kx, ky = np.clip(k, -n, n)
        # each layer scrolls through its flat view: cell (i, j) takes cell
        # (i + kx, j + ky), row-major s cells on. A copy from a cell that
        # wraps into the next or previous row lands in a strip cleared below
        s = int(kx) * n + int(ky)
        new_x = slice(n - kx, n) if kx > 0 else slice(0, -kx)
        new_y = slice(n - ky, n) if ky > 0 else slice(0, -ky)
        for arr in (self.height, self.variance, self.last_update, self.valid):
            flat = arr.reshape(-1)
            if s > 0:
                flat[:-s] = flat[s:]
            elif s < 0:
                flat[-s:] = flat[:s]
            arr[new_x] = 0  # clear the strips that scrolled in (False in valid)
            arr[:, new_y] = 0
        self.center = self.center + k * self.resolution

    def query_height(self, x: float, y: float) -> tuple[float, float] | None:
        """Valid in-window cell state as (height, variance), else None."""
        idx, ok = self.cell_indices(np.array([[x, y]]))
        if not ok[0]:
            return None
        ix, iy = idx[0]
        if not self.valid[ix, iy]:
            return None
        return float(self.height[ix, iy]), float(self.variance[ix, iy])

    def query_heights(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized query: (heights with NaN for missing, valid mask)."""
        idx, ok = self.cell_indices(xy)
        out = np.full(len(idx), np.nan)
        mask = ok.copy()
        mask[ok] &= self.valid[idx[ok, 0], idx[ok, 1]]
        out[mask] = self.height[idx[mask, 0], idx[mask, 1]]
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
        gx, gy = np.meshgrid(cx[i0:i1], cy[j0:j1], indexing="ij")
        rel = np.stack([gx.ravel() - base_pose.position[0], gy.ravel() - base_pose.position[1]], axis=1)
        R = base_pose.yaw_rotation[:2, :2]
        local = rel @ R  # world -> base-aligned
        inside = (np.abs(local[:, 0]) <= region[0] / 2) & (np.abs(local[:, 1]) <= region[1] / 2)
        inside &= self.valid[i0:i1, j0:j1].ravel()
        return np.column_stack(
            [gx.ravel()[inside], gy.ravel()[inside], self.height[i0:i1, j0:j1].ravel()[inside]]
        )

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write(
                f"# center={self.center[0]},{self.center[1]} resolution={self.resolution}"
                f" shift={self.total_shift}\n"
            )
            f.write("# height layer\n")
            h = np.where(self.valid, self.height, np.nan)
            np.savetxt(f, h, delimiter=",", fmt="%.9g")
            f.write("# variance layer\n")
            v = np.where(self.valid, self.variance, np.nan)
            np.savetxt(f, v, delimiter=",", fmt="%.9g")
