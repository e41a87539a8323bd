"""Quaternion and rigid-pose helpers.

Quaternions are (w, x, y, z), always kept normalized. Vectorized functions
accept either a single (3,) vector or an (N, 3) array. The quaternion and
rotation helpers also take a stack of N quaternions or angles and then
return one result per row, with the same bits as N single calls; so does a
`Pose` that holds a stack of N poses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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


def _apply(R: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) v by matrix R; with (N, 3, 3) R, row i of v (or a
    single v) by R[i]."""
    v = np.asarray(v, dtype=float)
    if R.ndim == 3:
        return (R @ np.ascontiguousarray(v)[..., None])[..., 0]
    if v.ndim == 1:
        return R @ v
    return v @ R.T


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) v by quaternion q; with (N, 4) q, row i of v by q[i]."""
    return _apply(rotation_matrix(q), v)


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
    """Rigid transform: world point = R(quat) @ p + position.

    One pose, or a stack of N with (N, 3) positions and (N, 4) quaternions
    that acts row by row; `poses[i]` is row i. The rotation matrices, the
    yaw (a float, or an (N,) array for a stack) and its rotation about z are
    built on first use and kept, so a pose is never changed once made.
    """

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    quat: np.ndarray = field(default_factory=lambda: np.array([1.0, 0, 0, 0]))

    def __post_init__(self):
        self.quat = quat_normalize(self.quat)
        self.position = np.asarray(self.position, dtype=float).reshape(self.quat.shape[:-1] + (3,))

    def __getitem__(self, i) -> "Pose":
        """Row(s) i of a stack, with the stack's bits: the quaternion is not
        normalized again, and the matrices and the yaw are rows of the
        stack's, built in one stacked call when the first row is taken."""
        row = object.__new__(Pose)
        row.position, row.quat = self.position[i], self.quat[i]
        row.rotation, row.inverse_rotation = self.rotation[i], self.inverse_rotation[i]
        row.yaw, row.yaw_rotation = self.yaw[i], self.yaw_rotation[i]
        return row

    @cached_property
    def rotation(self) -> np.ndarray:
        return rotation_matrix(self.quat)

    @cached_property
    def inverse_rotation(self) -> np.ndarray:
        return rotation_matrix(quat_conj(self.quat))

    def rotate(self, v: np.ndarray) -> np.ndarray:
        return _apply(self.rotation, v)

    def transform(self, points: np.ndarray) -> np.ndarray:
        return self.rotate(points) + self.position

    def inverse_transform(self, points: np.ndarray) -> np.ndarray:
        return _apply(self.inverse_rotation, np.asarray(points) - self.position)

    def compose(self, other: "Pose") -> "Pose":
        """This pose followed by `other` expressed in this pose's frame."""
        return Pose(self.transform(other.position), quat_mul(self.quat, other.quat))

    @cached_property
    def yaw(self) -> float | np.ndarray:
        yaw = yaw_from_quat(self.quat)
        return float(yaw) if yaw.ndim == 0 else yaw

    @cached_property
    def yaw_rotation(self) -> np.ndarray:
        """`rotz(yaw)`: (3, 3), or (N, 3, 3) for a stack."""
        return rotz(self.yaw)


@lru_cache(maxsize=16)
def _local_grid(nx: int, ny: int, pitch: float) -> np.ndarray:
    """The (nx * ny, 2) grid of `yaw_aligned_grid` in the pose's frame;
    read-only and shared by every call with the same shape and pitch."""
    xs = (np.arange(nx) - (nx - 1) / 2) * pitch
    ys = (np.arange(ny) - (ny - 1) / 2) * pitch
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    local = np.stack([gx.ravel(), gy.ravel()], axis=1)
    local.setflags(write=False)
    return local


def yaw_aligned_grid(pose: Pose, nx: int, ny: int, pitch: float) -> np.ndarray:
    """World xy of an nx x ny grid with the given pitch, centred on the pose
    and rotated by its yaw; x (forward) is the slow axis of the rows."""
    R = pose.yaw_rotation[:2, :2]
    return _local_grid(nx, ny, pitch) @ R.T + pose.position[:2]
