"""Shared helpers for the elevation-map and point-cloud tests.

The public layers are read-only copies in logical order, so a test that
sets a map's cells writes the storage of a fresh map, whose ring has not
scrolled and whose storage is therefore in logical order.
"""

import numpy as np

from elevsim.elevmap import ElevationMap
from elevsim.pointcloud import PointCloud

LAYERS = ("height", "variance", "valid", "last_update")


def seed_layers(emap: ElevationMap, height=None, variance=None, valid=None, last_update=None):
    """Write the given layers into the storage of a map at offset (0, 0)."""
    assert emap._offset == (0, 0), f"the ring has scrolled to {emap._offset}"
    for layer, value in zip(emap._layers, (height, variance, valid, last_update), strict=True):
        if value is not None:
            layer[:] = value
    return emap


def _storage_layer(i: int) -> property:
    def read(emap: ElevationMap) -> np.ndarray:
        assert emap._offset == (0, 0), f"the ring has scrolled to {emap._offset}"
        return emap._layers[i]

    return property(read)


# for an oracle map whose own recenter never moves the ring's offset: its
# public layers are the writable storage, which its methods update in place
STORAGE_LAYERS = tuple(_storage_layer(i) for i in range(len(LAYERS)))


def cloud(points, t=0.0, frame="world") -> PointCloud:
    """A cloud of the given points, in the world frame unless `frame` says."""
    return PointCloud(t=t, frame=frame, points=np.asarray(points, dtype=float))


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
