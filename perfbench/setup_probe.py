"""Set-up probe: run in a fresh interpreter by run.py.

    python3 perfbench/setup_probe.py <src dir> <config> [<config> ...]

Prints the seconds spent importing betadens and parsing the given configs,
which is everything a workload does before its first timed call.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import betadens  # noqa: E402,F401
from betadens.config import load_config  # noqa: E402

for path in sys.argv[2:]:
    load_config(path)
print(repr(time.perf_counter() - t0))
