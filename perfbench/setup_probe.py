"""Time set-up in a fresh interpreter: import sipsolve and build the problems.

Usage: python3 perfbench/setup_probe.py <workload>
Prints the seconds from before ``import sipsolve`` to the last problem built
(for spec-ad this includes reading, parsing and compiling the YAML files),
then the seconds of the host-speed kernel (speed.py) timed right after.
"""
import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import sipsolve  # noqa: E402,F401
from workloads import WORKLOADS, construct  # noqa: E402

construct(WORKLOADS[sys.argv[1]], ROOT)
_SETUP_S = time.perf_counter() - _T0

from speed import kernel_s  # noqa: E402

print(repr(_SETUP_S), repr(kernel_s(repeats=5)))
