import numpy as np
import pytest

from elevsim.scene import build_scene, obstacle_scene
from elevsim.sensorsim import CommandProfile, simulate_trajectory


@pytest.fixture(scope="session")
def obstacle_hf():
    return build_scene(obstacle_scene(), resolution=0.0175)


@pytest.fixture(scope="session")
def short_trajectory(obstacle_hf):
    profile = CommandProfile.constant((0.5, 0.0, 0.0), 2.0)
    return simulate_trajectory(profile, obstacle_hf, dt=1.0 / 300)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
