"""The elevation map's layers are a ring: `recenter` moves a storage offset
and clears the strips that scrolled in, and copies no layer. The oracle is
the flat scroll that every recenter did before, which keeps the storage in
logical order: every map output, and the layers read through the public
attributes, must match it byte for byte."""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from elevsim.elevmap import ElevationMap, SensorVarianceModel
from elevsim.geometry import Pose, quat_from_yaw
from elevsim.pipeline import ScenarioConfig, run_scenario
from elevsim.pointcloud import PointCloud
from maplayers import LAYERS, STORAGE_LAYERS, same_bytes, seed_layers

RES = 0.1
MODEL = SensorVarianceModel(base_variance=1e-4, range_coeff=1e-4, time_variance_rate=3e-6)
REGIONS = [(0.5, 0.3), (1.1, 0.7), (3.0, 3.0)]


class FlatScrollMap(ElevationMap):
    """The map with the flat-view scroll as its recenter: every layer is
    copied s = kx·n + ky cells on, so the storage stays in logical order."""

    height, variance, valid, last_update = STORAGE_LAYERS

    def recenter(self, robot_xy):
        k = np.round((np.asarray(robot_xy, dtype=float) - self.center) / self.resolution)
        k = k.astype(int)
        if k[0] == 0 and k[1] == 0:
            return
        n = self.n
        kx, ky = np.clip(k, -n, n)
        s = int(kx) * n + int(ky)
        new_x = slice(n - kx, n) if kx > 0 else slice(0, -kx)
        new_y = slice(n - ky, n) if ky > 0 else slice(0, -ky)
        for arr in (self.height, self.variance, self.last_update, self.valid):
            flat = arr.reshape(-1)
            if s > 0:
                flat[:-s] = flat[s:]
            elif s < 0:
                flat[-s:] = flat[:s]
            arr[new_x] = 0
            arr[:, new_y] = 0
        self.center = self.center + k * self.resolution


def _pair(n: int, seed: int) -> tuple[ElevationMap, FlatScrollMap]:
    """The ring map and its oracle, with the same random layers."""
    rng = np.random.default_rng(seed)
    maps = ElevationMap(RES, n * RES, (0.2, -0.1)), FlatScrollMap(RES, n * RES, (0.2, -0.1))
    layers = (
        rng.normal(0.1, 0.05, (n, n)),
        rng.uniform(1e-5, 1e-3, (n, n)),
        rng.random((n, n)) < 0.6,
        rng.uniform(0.0, 1.0, (n, n)),
    )
    for emap in maps:
        seed_layers(emap, *layers)
        emap.last_time = 1.0
    return maps


class Sequence:
    """Applies one operation to the ring map and the oracle and checks that
    its outputs agree byte for byte."""

    def __init__(self, n: int, seed: int):
        self.ring, self.ref = _pair(n, seed)
        self.n, self.t = n, 1.0

    def _xy(self, rng, m: int) -> np.ndarray:
        half = 0.5 * self.n * RES
        return self.ref.center + rng.uniform(-1.3 * half, 1.3 * half, (m, 2))

    def recenter(self, cells, frac):
        target = self.ref.center + (np.array(cells) + np.array(frac)) * RES
        for emap in (self.ring, self.ref):
            emap.recenter(target)

    def integrate(self, seed: int):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(0, 3 * self.n * self.n))
        cloud = PointCloud(self.t, "world", np.column_stack([self._xy(rng, m), rng.normal(0.1, 0.02, m)]))
        origin = np.array([*self.ref.center, 0.5])
        skipped = [emap.integrate_cloud(cloud, origin, MODEL, self.t) for emap in (self.ring, self.ref)]
        assert skipped[0] == skipped[1]
        self.t += float(rng.uniform(0.0, 0.2))

    def drift(self, seed: int, offset: float):
        # the map's own heights plus a common offset, so that the shift applies
        rng = np.random.default_rng(seed)
        xy = self._xy(rng, int(rng.integers(0, 4 * self.n * self.n)))
        h, mask = self.ref.query_heights(xy)
        z = np.where(mask, h + offset, 0.1) + rng.normal(0.0, 0.002, len(xy))
        cloud = PointCloud(self.t, "world", np.column_stack([xy, z]))
        shifts = [emap.drift_compensate(cloud) for emap in (self.ring, self.ref)]
        assert shifts[0] == shifts[1]
        return shifts[0]

    def query(self, seed: int):
        rng = np.random.default_rng(seed)
        xy = self._xy(rng, 60)
        got, expect = self.ring.query_heights(xy), self.ref.query_heights(xy)
        assert all(same_bytes(a, b) for a, b in zip(got, expect, strict=True))
        for x, y in xy[:10]:
            assert self.ring.query_height(x, y) == self.ref.query_height(x, y)

    def region(self, seed: int):
        rng = np.random.default_rng(seed)
        (x, y), = self._xy(rng, 1)
        pose = Pose(np.array([x, y, 0.3]), quat_from_yaw(rng.uniform(-np.pi, np.pi)))
        region = REGIONS[int(rng.integers(len(REGIONS)))]
        got = self.ring.region_points(pose, region)
        assert same_bytes(got, self.ref.region_points(pose, region))

    def csv(self):
        with tempfile.TemporaryDirectory() as d:
            paths = Path(d) / "ring.csv", Path(d) / "ref.csv"
            self.ring.to_csv(paths[0])
            self.ref.to_csv(paths[1])
            assert paths[0].read_bytes() == paths[1].read_bytes()

    def layers(self):
        for name in LAYERS:
            assert same_bytes(getattr(self.ring, name), getattr(self.ref, name)), name

    def check_scalars(self):
        for attr in ("total_shift", "last_time", "skipped_points"):
            assert getattr(self.ring, attr) == getattr(self.ref, attr), attr
        assert same_bytes(self.ring.center, self.ref.center)


def _operations(n: int):
    # mostly short moves, which wrap the ring past n over a sequence, and
    # jumps of up to two map widths either way
    jump = st.one_of(st.integers(-3, 3), st.integers(-2 * n - 2, 2 * n + 2))
    frac = st.floats(-0.45, 0.45)
    seeds = st.integers(0, 2**32 - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("recenter"), st.tuples(jump, jump), st.tuples(frac, frac)),
            st.tuples(st.just("integrate"), seeds),
            st.tuples(st.just("drift"), seeds, st.floats(-0.02, 0.02)),
            st.tuples(st.just("query"), seeds),
            st.tuples(st.just("region"), seeds),
            st.tuples(st.just("csv")),
            st.tuples(st.just("layers")),
        ),
        min_size=1,
        max_size=30,
    )


# no shrink phase: shrinking 30-operation sequences on maps of up to 400 cells
# took minutes and about 800 MB to report a failure
@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(data=st.data(), n=st.integers(6, 20), seed=st.integers(0, 2**32 - 1))
def test_ring_matches_flat_scroll_oracle(data, n, seed):
    seq = Sequence(n, seed)
    for op, *args in data.draw(_operations(n)):
        getattr(seq, op)(*args)
        seq.check_scalars()
    seq.csv()
    seq.layers()


@pytest.mark.parametrize("n", [6, 7, 20])
@pytest.mark.parametrize("direction", [(1, 0), (0, -1), (-1, 1), (2, 3), (-3, -1)])
def test_walk_wraps_the_ring_several_times(n, direction):
    # a walk of about 3.5 map widths, every output checked at every step
    seq = Sequence(n, seed=n)
    steps = int(3.5 * n / max(map(abs, direction)))
    start, shifts = seq.ref.center.copy(), 0
    for step in range(steps):
        seq.recenter(direction, (0.3, -0.2))
        seq.integrate(step)
        if step % 3 == 0:
            shifts += seq.drift(1000 + step, 0.01) != 0.0
        seq.query(2000 + step)
        seq.region(3000 + step)
        seq.check_scalars()
        if step % 5 == 4:
            seq.csv()
    seq.layers()
    moved = np.abs(seq.ref.center - start) / RES
    assert moved.max() >= 3 * n and shifts > 0


@pytest.mark.parametrize("jump", [(5, 0), (0, 5), (-4, 5), (6, 0), (-6, 6), (9, -13)])
def test_layers_read_after_scrolls_are_logical(jump):
    # two scrolls, then a read through the public attributes, then more work
    seq = Sequence(6, seed=sum(jump) + 40)
    for _ in range(2):
        seq.recenter(jump, (0.0, 0.0))
        seq.integrate(7)
    seq.layers()
    seq.recenter((1, -1), (0.0, 0.0))
    seq.integrate(8)
    seq.region(9)
    seq.layers()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(6, 20), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_reads_are_pure(n, seed, data):
    # a map scrolled to a drawn ring offset, read through every public read:
    # no read moves the offset or the center or changes a stored byte, and
    # a public layer is a read-only copy
    seq = Sequence(n, seed)
    offset = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    seq.recenter(offset, (0.0, 0.0))
    seq.integrate(seed)
    emap = seq.ring
    assert emap._offset == offset
    stored, center = [layer.tobytes() for layer in emap._layers], emap.center.copy()
    rng = np.random.default_rng(seed)
    xy = seq._xy(rng, 50)
    pose = Pose(np.array([*xy[0], 0.3]), quat_from_yaw(rng.uniform(-np.pi, np.pi)))
    for name in LAYERS:
        layer = getattr(emap, name)
        with pytest.raises(ValueError, match="read-only"):
            layer[0, 0] = 0
    emap.lookup(xy)
    emap.cell_indices(xy)
    emap.query_heights(xy)
    emap.query_height(*xy[0])
    emap.region_points(pose, REGIONS[1])
    with tempfile.TemporaryDirectory() as d:
        emap.to_csv(Path(d) / "map.csv")
    assert [layer.tobytes() for layer in emap._layers] == stored
    assert emap._offset == offset and same_bytes(emap.center, center)
    seq.layers()


def test_run_without_snapshots_makes_no_logical_copy(monkeypatch):
    # the hot path addresses the stored layers through the offset; only the
    # public layers and the CSV writer copy them into logical order
    calls = []
    logical = ElevationMap._logical

    def counted(self, layer):
        calls.append(layer.shape)
        return logical(self, layer)

    monkeypatch.setattr(ElevationMap, "_logical", counted)
    cfg = ScenarioConfig.from_dict(
        {"scene": "obstacle", "command": [[2.0, [0.5, 0.0, 0.0]]], "seed": 0}
    )
    result = run_scenario(cfg)
    # the map scrolled: the robot moved about 1 m, some 40 cells
    assert abs(result.emap.center[0] - cfg.start_xy[0]) > 0.5
    assert calls == []


# sha256 of the snapshot files in name order (name, then bytes), as the
# flat-scroll map wrote them
SNAPSHOT_SHA = "43bfc0dffbb313f20601f5d87557d89b33364839f62e8f1c03da205b4351d603"


def test_scrolled_snapshots_same_bytes(tmp_path):
    cfg = ScenarioConfig.from_dict(
        {
            "scene": "obstacle",
            "command": [[1.5, [0.5, 0.0, 0.0]], [1.0, [0.3, 0.2, 0.4]]],
            "seed": 3,
            "map_resolution": 0.05,
            "snapshot_every": 0.5,
            "out_dir": str(tmp_path),
        }
    )
    run_scenario(cfg)
    paths = sorted(tmp_path.glob("map_*.csv"))
    centers = {p.read_text().split("\n", 1)[0].split()[1] for p in paths}
    assert len(paths) == 6 and len(centers) == 6
    sha = hashlib.sha256()
    for p in paths:
        sha.update(p.name.encode())
        sha.update(p.read_bytes())
    assert sha.hexdigest() == SNAPSHOT_SHA
