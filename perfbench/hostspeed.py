"""Host-speed reference that end-to-end times are scaled by.

On a shared host the speed one process gets drifts by tens of percent over
minutes: on a 2-vCPU Xeon VM, identical ``verify`` calls measured in two
ten-run sets twenty minutes apart differed by 25-35% in their medians.
Between calls the benchmark therefore times a fixed piece of pure-Python
work that never touches the program under test.  Its median over a run
measures the host's speed during that run, and each end-to-end time is
reported as it would read on a host where that work takes ``NOMINAL_S``.
A change to the program moves the calls and not the reference, so it still
shows in full.
"""

from __future__ import annotations

import gc
import statistics
import time

NOMINAL_S = 0.010
# Probe time owed after each call, as a share of that call's time.
SHARE = 0.05


def _reference_work():
    """Tuple composition and dict and set traffic, like the program's own,
    in tables small enough not to raise the process's peak memory."""
    n = 65
    p = tuple((i * 7 + 3) % n for i in range(n))
    q = tuple((i * 5 + 1) % n for i in range(n))
    table = {}
    x = p
    for i in range(3000):
        x = tuple(x[j] for j in q)
        table[hash(x) & 1023] = i
    marks = set()
    for i in range(20000):
        marks.add((i * 2654435761) & 1023)
    return len(table) + len(marks)


def probe():
    """Seconds for one run of the reference work, with the collector off so
    that heap the program left behind cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probes the host between calls, about ``SHARE`` of the call time."""

    def __init__(self):
        self.samples = []
        self._owed = 0.0

    def after_call(self, seconds):
        self._owed += SHARE * seconds
        while self._owed > 0:
            took = probe()
            self.samples.append(took)
            self._owed -= took

    def scale(self):
        """Factor from measured seconds to seconds on the nominal host."""
        return NOMINAL_S / statistics.median(self.samples)
