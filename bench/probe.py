"""Set-up probe: import ``riordan``, build one workload's inputs, print the clock.

Run as ``python3 bench/probe.py <workload> <seed>`` in a fresh interpreter.
It prints ``time.monotonic_ns()`` once the inputs exist; the parent reads the
same system-wide clock before starting it, so the difference is the set-up
time a user waits for, interpreter start-up included.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]))
print(time.monotonic_ns())
