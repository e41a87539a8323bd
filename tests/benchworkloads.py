"""The benchmark's workloads, from `perfbench/workloads.py` read and
executed in memory, so that no bytecode is written next to it."""

import sys
import types
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads() -> dict:
    """`perfbench/workloads.py`'s `WORKLOADS`: name -> workload."""
    module = types.ModuleType("perfbench_workloads")
    # dataclasses looks up the defining module while it builds a class
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module.WORKLOADS
