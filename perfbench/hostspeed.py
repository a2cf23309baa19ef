"""Host-speed normalisation of timings.

On a shared host the speed of a core changes with what the other tenants
of the machine run: on the 2-core Xeon VM (2.1 GHz) this benchmark was
written on, the same item took anywhere from one to two times its fastest
time, changing within seconds and at times staying slow for minutes, and
CPU time slowed as much as wall time.  Wall-clock metrics of a run spread
by 20-40% from run to run there, whatever the program does.

So the runner pins itself to one CPU and times a fixed calibration kernel
on it between items, at least every ``EVERY_S`` seconds.  An execution's
slowdown is the mean of the calibration taken just before it and the one
taken just after it, over ``REFERENCE_S``; its normalised latency is its
wall latency divided by that slowdown, i.e. the latency on a core that runs
the calibration in ``REFERENCE_S``.  The calibration does not touch the
program, so a change to the program moves normalised times exactly as it
moves wall times on a steady core.  Raw wall times stay in the run record.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time

import numpy as np

# Calibration time on an uncontended core of the host named above; it only
# sets the scale of normalised times and is the same on every commit.
REFERENCE_S = 0.0020
EVERY_S = 0.25
RUNS_PER_SAMPLE = 2


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so calibrations and
    items see the same core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _kernel_once() -> float:
    """Seconds for a fixed mix of interpreter work and NumPy work on
    8,192-point arrays, the two kinds of work the program's items do.  (A
    variant with a pass over a 3 MB array tracked the items no better and
    left check_general's median twice as spread.)"""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(6000):
        table[i & 63] = table.get(i & 63, 0.0) + i * 0.5
        acc += (i % 7) * 1.0001
    a = np.linspace(0.0, 10.0, 8192)
    for _ in range(10):
        a = np.sin(a) + np.cumsum(a) * 1e-6
    acc += float(a[-1])
    return time.perf_counter() - t0


class SpeedLog:
    """Calibration samples of one run: (time taken, calibration seconds)."""

    def __init__(self) -> None:
        self.times: list = []
        self.values: list = []
        self.spent_s = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        value = min(_kernel_once() for _ in range(RUNS_PER_SAMPLE))
        t1 = time.perf_counter()
        self.times.append(t1)
        self.values.append(value)
        self.spent_s += t1 - t0

    def due(self) -> None:
        """Take a sample if the last one is older than EVERY_S."""
        if not self.times or time.perf_counter() - self.times[-1] > EVERY_S:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Mean of the samples just before ``start`` and just after ``end``,
        over REFERENCE_S."""
        i = bisect.bisect_right(self.times, start)
        before = self.values[max(i - 1, 0)]
        j = bisect.bisect_left(self.times, end)
        after = self.values[min(j, len(self.values) - 1)]
        return (before + after) / 2.0 / REFERENCE_S

    def summary(self) -> dict:
        q1, median, q3 = statistics.quantiles(self.values, n=4) if len(self.values) > 1 \
            else [self.values[0]] * 3
        return {"samples": len(self.values), "spent_s": self.spent_s,
                "reference_s": REFERENCE_S,
                "slowdown_q1_median_q3": [q1 / REFERENCE_S, median / REFERENCE_S,
                                          q3 / REFERENCE_S]}
