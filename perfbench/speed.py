"""Host-speed reference: a fixed kernel timed while the benchmark runs.

On a shared 2-core VM the same pass can take up to 1.45x longer while a
neighbour loads the host, in stretches from under a second to minutes, so
raw wall times from two runs of the same code can differ by more than any
useful regression bound. The kernel below does a fixed amount of the kinds of
work elevsim does (an interpreter loop, vectorised float-to-index lookups,
k-nearest-neighbour queries) without calling elevsim, so a change to the
program cannot change it. `HostSpeed` times it every `INTERVAL_S` during a
pass, from a SIGALRM handler on the main thread, so it sees the host as the
pass saw it; `at_reference_speed` rescales the pass's wall time to what it
would have been with the kernel at `REFERENCE_S`.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.spatial import cKDTree

# mean kernel time on an unloaded 2-core x86 VM (Python 3.11, numpy 2.4)
REFERENCE_S = 0.0015
INTERVAL_S = 0.2

_rng = np.random.default_rng(12345)
_POINTS = _rng.random((300, 3))
_GRID = _rng.random((128, 128))
_RAYS = _rng.random((768, 40)) * 3.0


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(4000):
        acc += (i % 7) * 0.5
    ix = np.floor(_RAYS * 40.0).astype(np.int64) % 128
    (_GRID[ix, ix[:, ::-1]] > 0.5).argmax(axis=1)
    cKDTree(_POINTS).query(_POINTS, k=9)
    return time.perf_counter() - t0


def kernel_median(n: int = 7) -> float:
    return statistics.median(kernel_seconds() for _ in range(n))


class HostSpeed:
    """Samples the kernel once on entry and every INTERVAL_S until exit.

    `busy_s` is the time the samples themselves took, to be taken off the
    wall time of the code that ran meanwhile."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.busy_s += time.perf_counter() - t0

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self.busy_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_s(self) -> float:
        return statistics.fmean(self.samples)


def at_reference_speed(wall: float, kernel_s: float) -> float:
    return wall * REFERENCE_S / kernel_s
