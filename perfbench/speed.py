"""Host-speed reference: a fixed kernel timed next to the work it scales.

On a shared virtual host the same solve can take twice as long in one minute
as in the next, and process CPU time slows with it, so neither wall nor CPU
time of a run can be compared with another run's.  The benchmark therefore
times this kernel next to every solve and every set-up probe, and scales
each time by ``REFERENCE_S / kernel time``: the time the work would have
taken on a host where the kernel takes ``REFERENCE_S``.  A change to
sipsolve moves the solve times but not the kernel, so the scaled times still
show it.

The kernel does what a sipsolve solve does most, in the same proportions as
far as a few lines can: small numpy linear algebra driven from a Python
loop.  It uses numpy only, never sipsolve, so no change to the package can
move it.
"""
import time

import numpy as np

#: Seconds the kernel takes on a 2-vCPU x86-64 host when it runs at full
#: speed; scaled times are in seconds of that host.
REFERENCE_S = 0.003

_A = np.random.default_rng(0).random((6, 6)) + 6.0 * np.eye(6)
_B = np.ones(6)


def kernel():
    x = _B
    for _ in range(250):
        x = np.linalg.solve(_A, x + 1.0)
        x = np.maximum(x, 0.0) @ _A
    return x


def kernel_s(repeats: int = 1) -> float:
    """Median seconds of ``repeats`` timed kernel calls."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))
