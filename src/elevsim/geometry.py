"""Quaternion and rigid-pose helpers.

Quaternions are (w, x, y, z), always kept normalized. Vectorized functions
accept either a single (3,) vector or an (N, 3) array. The quaternion and
rotation helpers also take a stack of N quaternions or angles and then
return one result per row, with the same bits as N single calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _rows(q: np.ndarray) -> np.ndarray:
    """Components along the last axis first, so `w, x, y, z = _rows(q)`."""
    return np.moveaxis(np.asarray(q, dtype=float), -1, 0)


def _matrices(m: np.ndarray) -> np.ndarray:
    """(3, 3, ...) nested components to contiguous (..., 3, 3) matrices, so
    that stacked products take the same BLAS path as single ones."""
    return np.ascontiguousarray(np.moveaxis(m, (0, 1), (-2, -1)))


def quat_normalize(q: np.ndarray) -> np.ndarray:
    # the BLAS dot np.linalg.norm uses for one contiguous quaternion, so a
    # stack normalizes to the same bits as its rows one by one
    q = np.ascontiguousarray(q, dtype=float)
    n = np.sqrt(np.vecdot(q, q))[..., None]
    if not n.all():
        raise ValueError("zero quaternion")
    return q / n


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.asarray(q, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0])


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = _rows(a)
    bw, bx, by, bz = _rows(b)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def rotation_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = _rows(quat_normalize(q))
    return _matrices(
        np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
    )


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) v by quaternion q; with (N, 4) q, row i of v by q[i]."""
    R = rotation_matrix(q)
    v = np.asarray(v, dtype=float)
    if R.ndim == 3:
        return (R @ np.ascontiguousarray(v)[..., None])[..., 0]
    if v.ndim == 1:
        return R @ v
    return v @ R.T


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * np.asarray(angle, dtype=float)[..., None]
    return np.concatenate([np.cos(half), np.sin(half) * axis], axis=-1)


def quat_from_euler(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """ZYX (yaw-pitch-roll) Euler angles to quaternion."""
    qz = quat_from_axis_angle([0, 0, 1], yaw)
    qy = quat_from_axis_angle([0, 1, 0], pitch)
    qx = quat_from_axis_angle([1, 0, 0], roll)
    return quat_mul(quat_mul(qz, qy), qx)


def quat_from_yaw(yaw: float) -> np.ndarray:
    return quat_from_axis_angle([0, 0, 1], yaw)


def yaw_from_quat(q: np.ndarray) -> np.ndarray:
    w, x, y, z = _rows(q)
    return np.arctan2(2 * (w * z + x * y), 1 - 2 * (y * y + z * z))


def rotz(yaw: float) -> np.ndarray:
    c, s = np.cos(yaw), np.sin(yaw)
    zero, one = np.zeros_like(c), np.ones_like(c)
    return _matrices(np.array([[c, -s, zero], [s, c, zero], [zero, zero, one]]))


@dataclass
class Pose:
    """Rigid transform: world point = R(quat) @ p + position."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    quat: np.ndarray = field(default_factory=lambda: np.array([1.0, 0, 0, 0]))

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        self.quat = quat_normalize(self.quat)

    def transform(self, points: np.ndarray) -> np.ndarray:
        return quat_rotate(self.quat, points) + self.position

    def inverse_transform(self, points: np.ndarray) -> np.ndarray:
        return quat_rotate(quat_conj(self.quat), np.asarray(points) - self.position)

    def compose(self, other: "Pose") -> "Pose":
        """This pose followed by `other` expressed in this pose's frame."""
        return Pose(self.transform(other.position), quat_mul(self.quat, other.quat))

    @property
    def yaw(self) -> float:
        return float(yaw_from_quat(self.quat))


def yaw_aligned_grid(pose: Pose, nx: int, ny: int, pitch: float) -> np.ndarray:
    """World xy of an nx x ny grid with the given pitch, centred on the pose
    and rotated by its yaw; x (forward) is the slow axis of the rows."""
    xs = (np.arange(nx) - (nx - 1) / 2) * pitch
    ys = (np.arange(ny) - (ny - 1) / 2) * pitch
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    local = np.stack([gx.ravel(), gy.ravel()], axis=1)
    R = rotz(pose.yaw)[:2, :2]
    return local @ R.T + pose.position[:2]
