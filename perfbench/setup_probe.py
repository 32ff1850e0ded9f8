"""Set-up time of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

prints the seconds from interpreter start-up (after the runtime itself is
up) to the end of input generation: importing idals and making the seeded
inputs.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import workloads  # noqa: E402

workloads.make_inputs(sys.argv[1], int(sys.argv[2]), ROOT)
print(f"{time.perf_counter() - STARTED!r}")
