"""Machine speed, from a fixed reference kernel timed now and then.

The benchmark shares its 2 cores with other tenants whose load moves the
speed of the whole machine by 15-30%, from one second to the next and over
minutes. The kernel slows with it as much as the program does, so each job's
time is divided by the slowdown the kernel showed around that job, and
end-to-end times are reported at a fixed reference speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: median time of reference_kernel() on the machine the benchmark was tuned
#: on (2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6); end-to-end times are
#: reported at the speed where the kernel takes this long
REFERENCE_KERNEL_S = 0.015
#: seconds between kernel samples while jobs run
SAMPLE_EVERY_S = 0.2
#: kernel samples this close to a job (seconds) gauge the speed it ran at
NEAR_S = 0.3


def reference_kernel() -> float:
    """Seconds for a fixed piece of interpreter and small-array numpy work.

    It shares no code with collapsim, so a change to the program cannot move
    it, while contention from other tenants slows it as much as the program.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    a = np.arange(16.0)
    for _ in range(2000):
        a = np.cumsum(a) / (a.sum() + 1.0)
    return time.perf_counter() - start


class Speedometer:
    """Kernel samples taken between jobs, with the time each was taken."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (when, seconds)

    def tick(self) -> None:
        """Sample if SAMPLE_EVERY_S have passed since the last sample."""
        now = time.perf_counter()
        if not self.samples or now - self.samples[-1][0] >= SAMPLE_EVERY_S:
            self.samples.append((now, reference_kernel()))

    def slowdown(self, start: float, end: float) -> float:
        """How many times slower than the reference speed the machine ran
        from `start` to `end`: the mean of the samples within NEAR_S of that
        span, or the nearest sample when none is."""
        near = [k for when, k in self.samples if start - NEAR_S <= when <= end + NEAR_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return statistics.fmean(near) / REFERENCE_KERNEL_S

    def median_ms(self) -> float:
        return statistics.median(k for _, k in self.samples) * 1e3
