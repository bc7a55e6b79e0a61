"""Set-up of a deterministic workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py <workload> <seed> <src dir>
Prints the seconds taken to import wingman and build the scenario config.
"""

import sys
import time

t0 = time.perf_counter()
workload, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
sys.path.insert(0, src)

from workloads import scenario_doc  # noqa: E402
from wingman.scenario import config_from_dict  # noqa: E402

config_from_dict(scenario_doc(workload, seed))
print(time.perf_counter() - t0)
