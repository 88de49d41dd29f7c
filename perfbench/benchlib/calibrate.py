"""Host-speed calibration for the gated timings.

Other tenants of a shared host slow everything down in bursts: on the
2-vCPU VM this benchmark was built on (Xeon, 2.0 GHz), the same detailed
simulation took 47 ms or 90 ms depending on the second it ran in, and
whole 30-second runs ran 30% slow.  Medians cannot remove that, so each
gated operation is timed right after a short fixed kernel (dictionary,
heap and float work plus small NumPy gathers and sorts — the mix the
simulator itself does) and scaled by how slow the kernel ran at that
moment::

    reported = measured * NOMINAL_S / kernel_seconds

The result reads as seconds on a host that runs the kernel in
``NOMINAL_S``.  The kernel lives here, outside the program, so a change to
the program cannot move it.  Raw wall times are printed in the report.
"""

from __future__ import annotations

import heapq
import os
import time

import numpy as np

#: About the time of :func:`kernel` on the host described above, undisturbed.
NOMINAL_S = 0.011


_TABLE = None


def _table():
    """An 8 MiB array and a fixed scattered index set over it: bigger than a
    core's private caches, so the gathers contend for the shared cache and
    memory the way the simulator's tag-store planes do."""
    global _TABLE
    if _TABLE is None:
        rng = np.random.default_rng(12345)
        _TABLE = (np.arange(1 << 20, dtype=np.int64),
                  rng.integers(0, 1 << 20, size=20000))
    return _TABLE


def kernel() -> float:
    table_values, table_index = _table()
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(12000):
        key = (i * 7919) & 16383
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (acc, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        acc += i * 0.5
    total = 0
    for _ in range(4):
        total += int(table_values[table_index].sum())
        table_values[table_index] += 1
    values = np.arange(20000.0)
    index = np.arange(0, 20000, 7)
    for _ in range(4):
        values[index] += 1.0
        values = np.sort(values)
    return acc + float(values[0]) + total


def measure() -> float:
    """Seconds one :func:`kernel` run takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def now() -> float:
    """Median of three kernel runs: the host's speed at this moment."""
    runs = sorted(measure() for _ in range(3))
    return runs[1]


def now_all_cpus() -> float:
    """Mean of :func:`now` on each CPU this process may use, for work that
    spreads over all of them (the service's daemon and workers)."""
    allowed = os.sched_getaffinity(0)
    try:
        readings = []
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            readings.append(now())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(readings) / len(readings)


def scaled(seconds: float, kernel_seconds: float) -> float:
    return seconds * NOMINAL_S / kernel_seconds
