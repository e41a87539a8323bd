"""One seed-3 pass of each benchmark workload, and a seed-0 and a seed-11
pass of `sweep_fine_map`, must give the outputs digest that
`perfbench/run.py` prints for it. A change that means to alter the
outputs' bits updates the digests here and says so.

`perfbench/workloads.py` is read and executed in memory
(`benchworkloads.load_workloads`). `digest` is a copy of the one in
`perfbench/run.py`, which pins BLAS threads through the environment when it
is imported.
"""

import hashlib
import json

import pytest

from benchworkloads import load_workloads
from elevsim.pipeline import ScenarioConfig, run_scenario, run_step_sweep

# a failure also reports this host's BLAS core and SIMD targets (conftest.py)
pytestmark = pytest.mark.host_bits

SEED = 3
DIGESTS = {
    "perception_gt": "580445c29f850803",
    "fusion_vio_noisy": "79d4f496af3397bf",
    "sweep_fine_map": "c16f1c22679615c6",
}
# the workload whose map scrolls on nearly every control tick, at two more seeds
SWEEP_DIGESTS = {0: "082bd424049b6841", 11: "b90ccd869e580b01"}


def digest(rows: list[dict]) -> str:
    exact = [{k: float(v).hex() for k, v in sorted(r.items())} for r in rows]
    return hashlib.sha256(json.dumps(exact).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def workloads():
    return load_workloads()


def _pass_digest(wl, seed: int, tmp_path) -> str:
    if wl.sweep:
        rows = run_step_sweep(ScenarioConfig.from_dict(wl.config(seed, str(tmp_path))))
    else:
        rows = [run_scenario(ScenarioConfig.from_dict(wl.config(seed))).metrics]
    outputs = [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]
    assert len(outputs) == wl.scenarios_per_pass()
    return digest(outputs)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed3_pass_digest(workloads, name, tmp_path):
    assert _pass_digest(workloads[name], SEED, tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("seed", sorted(SWEEP_DIGESTS))
def test_sweep_fine_map_digest(workloads, seed, tmp_path):
    assert _pass_digest(workloads["sweep_fine_map"], seed, tmp_path) == SWEEP_DIGESTS[seed]
