"""Host-speed reference for the benchmark's end-to-end times.

The shared virtual machines the benchmark runs on change speed by up to 2x
for stretches of seconds to minutes, and the slowdown hits every piece of
Python code about alike (it is not steal time: CPU time slows with wall
time). A fixed reference kernel, timed between operations, tracks that
speed. Each end-to-end time is reported in reference seconds:

    reference time = wall time * REF_KERNEL_S / (kernel time around the operation)

so that on a host that runs the kernel in REF_KERNEL_S, reference seconds are
seconds. The kernel is this file's code, not foragesim's, so a change to the
program moves the operation times but not the kernel.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

# Kernel time on an unloaded 2.1 GHz host (Python 3.11); it sets the unit only.
REF_KERNEL_S = 0.45e-3
KERNEL_REPS = 3  # kernel runs per sample; the sample is their median
SAMPLE_EVERY_S = 0.05  # least gap between two samples
WINDOW = 5  # samples the scale is taken over


def kernel() -> float:
    """Dict updates and float arithmetic in a loop, about half a millisecond."""
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(3000):
        k = i & 127
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += (i % 7) * 1.5
    return acc + len(table)


def kernel_s() -> float:
    times = []
    for _ in range(KERNEL_REPS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Kernel samples taken around operations; `scale()` turns wall into reference time."""

    def __init__(self) -> None:
        self.recent: deque[float] = deque(maxlen=WINDOW)
        self.all: list[float] = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        """Time the kernel, unless `force` is off and the last sample is under SAMPLE_EVERY_S old."""
        if not force and time.perf_counter() - self._last < SAMPLE_EVERY_S:
            return
        k = kernel_s()
        self.recent.append(k)
        self.all.append(k)
        self._last = time.perf_counter()

    def scale(self) -> float:
        return REF_KERNEL_S / statistics.median(self.recent)
