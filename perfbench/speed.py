"""CPU-speed reference for the end-to-end times.

On a shared host the speed of one CPU drifts by tens of percent from one
minute to the next: on a 2-vCPU VM, the median job time of the same
215-job pass varied by 25-38 % (quartile spread over ten runs).  The
benchmark therefore runs on one CPU (:func:`pin`) and times a fixed
pure-Python loop on it (:class:`SpeedLog`) whenever none of the program's
work is running: before and after each job process, between blocks of
service requests and around each set-up.  The loop's thread CPU time
over ``NOMINAL_S`` is the CPU's slowness factor at that moment; a decided
job's time divided by the factor over its interval is its time at
nominal speed.  The loop is the benchmark's own code and runs only while
the program is idle, after one discarded call that brings its data back
into the caches, so the program's own cache footprint stays out of the
factor.

Whether a job stayed within its limit at nominal speed needs the speed
*during* the job, which the samples around it estimate only to within
about 30 %: the CPU switches between its fast and slow states many times
a second.  For that decision alone, the parent also takes a
:meth:`SpeedLog.snapshot` of a much shorter loop every
``SNAPSHOT_EVERY_S`` while a job runs (about 1 % of the CPU).
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from typing import List, Tuple

#: Thread CPU seconds :func:`probe` takes at nominal speed: on a quiet
#: CPU of a 2-vCPU x86-64 VM, CPython 3.11, with warm caches.
NOMINAL_S = 0.0012
#: Timed calls of :func:`probe` per sample; the sample is their median.
CALLS = 3
#: Shortest window a factor is taken over: the drift it corrects is
#: slower than this, a single sample is not.
WINDOW_S = 2.0
#: Loop length of a snapshot taken while a job runs, and its thread CPU
#: seconds at nominal speed: 0.1635 of a full probe's (the median of 200
#: pairs timed back to back on one CPU of the same VM).
SNAPSHOT_SIZE = 300
SNAPSHOT_NOMINAL_S = NOMINAL_S * 0.1635
#: Seconds between snapshots while a job runs.
SNAPSHOT_EVERY_S = 0.05
#: Fewest snapshots inside a job for its factor to come from them.
MIN_SNAPSHOTS = 3


def pin() -> int:
    """Run this process, and every process it starts, on one CPU (the
    highest it may use); returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe(size: int = 1500) -> float:
    """Thread CPU seconds of a fixed mix of dict, list, string and
    attribute work."""
    start = time.thread_time()
    table = {}
    items = []
    for i in range(size):
        key = f"k{i % 61}"
        table[key] = table.get(key, 0) + i
        items.append((key, i))
    items.sort(key=lambda item: (item[1] % 7, item[0]))
    total = sum(len(key) for key, _ in items) + len(table)
    if total < 0:  # keeps the work observable
        raise AssertionError
    return time.thread_time() - start


class SpeedLog:
    """Slowness-factor samples taken by :meth:`sample` while the program
    is idle, the seconds spent taking them, and the snapshots taken by
    :meth:`snapshot` while a job runs."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self.spent_s = 0.0
        self.snapshots: List[Tuple[float, float]] = []

    def sample(self) -> None:
        """Take one sample now; call it only while no job or server work
        is running."""
        start = time.perf_counter()
        probe()  # discarded: warms the caches the program left behind
        value = statistics.median(probe() for _ in range(CALLS)) / NOMINAL_S
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, value))
        self.spent_s += end - start

    def snapshot(self) -> None:
        """Take one short reading now, while a job runs on this CPU.  It
        preempts the job for about half a millisecond."""
        probe(SNAPSHOT_SIZE)  # discarded: warms the caches the job used
        value = probe(SNAPSHOT_SIZE) / SNAPSHOT_NOMINAL_S
        self.snapshots.append((time.perf_counter(), value))

    def job_factor(self, start: float, end: float) -> float:
        """Slowness factor over a job's ``[start, end]`` for judging it
        against its limit: the mean of the snapshots taken during it, or
        :meth:`factor` when it had fewer than ``MIN_SNAPSHOTS`` (it was
        short, or nothing took snapshots)."""
        times = [when for when, _ in self.snapshots]
        inside = self.snapshots[bisect.bisect_left(times, start):
                                bisect.bisect_right(times, end)]
        if len(inside) < MIN_SNAPSHOTS:
            return self.factor(start, end)
        return statistics.fmean(value for _, value in inside)

    def factor(self, start: float, end: float) -> float:
        """Mean slowness factor over ``[start, end]``: of the samples in
        it, widened to ``WINDOW_S`` around its middle when shorter, and
        the nearest sample on either side.  A mean, because the CPU
        flips between a fast and a slow state, and what slows a job is
        the share of its time spent in the slow one."""
        middle = (start + end) / 2
        start = min(start, middle - WINDOW_S / 2)
        end = max(end, middle + WINDOW_S / 2)
        times = [when for when, _ in self.samples]
        low = max(bisect.bisect_left(times, start) - 1, 0)
        high = bisect.bisect_right(times, end) + 1
        return statistics.fmean(
            value for _, value in self.samples[low:high])
