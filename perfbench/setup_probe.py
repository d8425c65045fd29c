"""One cold start: import setprob from src/ and build a workload's fixtures.

    python3 perfbench/setup_probe.py {scenario,audit,window}

Prints the time that took, in seconds on the reference clock of `clock`,
calibrated in this fresh interpreter before setprob is imported.  `run.py`
takes the median of several of these for `setup_s`.
"""

import os
import statistics
import sys
from time import perf_counter

import clock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

scale = statistics.median(clock.scale() for _ in range(3))
start = perf_counter()
from workloads import FIXTURES  # noqa: E402  (imports setprob, timed)

FIXTURES[sys.argv[1]]()
print(repr((perf_counter() - start) * scale))
