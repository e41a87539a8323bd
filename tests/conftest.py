import functools
import os
import subprocess
import sys

import numpy as np
import pytest

from elevsim.scene import build_scene, obstacle_scene
from elevsim.sensorsim import CommandProfile, simulate_trajectory


@pytest.fixture(scope="session")
def obstacle_hf():
    return build_scene(obstacle_scene())


@pytest.fixture(scope="session")
def short_trajectory(obstacle_hf):
    profile = CommandProfile.constant((0.5, 0.0, 0.0), 2.0)
    return simulate_trajectory(profile, obstacle_hf)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "host_bits: pins bits that hold only under the reference host's BLAS kernel "
        "and numpy SIMD dispatch; a failure reports this host's",
    )


@functools.lru_cache(maxsize=1)
def host_kernels() -> str:
    """The OpenBLAS core that a fresh interpreter picks (it prints `Core: ...`
    under OPENBLAS_VERBOSE=2) and numpy's active SIMD dispatch targets."""
    child = subprocess.run(
        [sys.executable, "-c", "import numpy"], env={**os.environ, "OPENBLAS_VERBOSE": "2"},
        capture_output=True, text=True, timeout=120,
    )
    lines = (child.stdout + child.stderr).splitlines()
    core = next((line.strip() for line in lines if line.startswith("Core:")), "Core: not reported")
    from numpy._core import _multiarray_umath as umath

    active = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return (
        f"OpenBLAS {core} (the goldens and digest pins hold under SkylakeX)\n"
        f"numpy {np.__version__} dispatch targets active: {active} "
        f"of {umath.__cpu_dispatch__}, baseline {umath.__cpu_baseline__}"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    report = (yield).get_result()
    if report.failed and item.get_closest_marker("host_bits"):
        report.sections.append(("host kernels", host_kernels()))
