"""Set-up probe: times what a user of elevsim pays before the first scenario,
that is importing elevsim and building the `ScenarioConfig`.

Run in a fresh interpreter so the import is real:

    python3 perfbench/setup_probe.py <src dir> <workload> <seed>

Prints the elapsed seconds on one line.
"""

import sys
import time

from workloads import WORKLOADS


def main() -> None:
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    d = WORKLOADS[workload].config(seed)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from elevsim.pipeline import ScenarioConfig

    ScenarioConfig.from_dict(d)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
