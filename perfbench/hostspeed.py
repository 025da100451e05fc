"""Host-speed correction for timings taken on a shared host.

On a few vCPUs of a shared host the speed of the same Python code swings by
up to half over minutes as neighbours load the machine; process CPU time
swings with wall time, so the loss is not steal time but slower execution.
A run of 30 to 60 seconds cannot average that out.

A fixed pure-Python kernel that never touches ``ciph`` is timed next to the
commands, just before each one and outside its timed region. It slows down
with them: scaling a round's times by ``REFERENCE_S`` over the kernel's
median time in that round gives the time the round would have taken at the
reference speed. The program's own changes move the corrected figures in
full, since the kernel does not run program code. The uncorrected figures
are printed next to the corrected ones.
"""

from __future__ import annotations

import statistics
import time

KERNEL_LOOPS = 40_000
# The kernel's median time on the 2-vCPU host the bounds were set on. It only
# fixes the scale of the corrected figures, which read close to the
# uncorrected ones on that host.
REFERENCE_S = 3.4e-3


def kernel() -> int:
    total = 0
    for i in range(KERNEL_LOOPS):
        total += i * i
    return total


def time_kernel() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(kernel_seconds) -> float:
    """Factor that turns times taken next to these kernel times into times
    at the reference speed."""
    return REFERENCE_S / statistics.median(kernel_seconds)
