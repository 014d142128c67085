"""Machine-speed correction for timings taken on a shared machine.

On a machine shared with other tenants the same computation can run up to
1.9x slower for stretches of seconds to minutes, which swamps the
differences a benchmark is meant to show.  A ``SpeedProbe`` times a fixed
probe computation (a small LAPACK eigensolve plus a bytecode loop) every
``INTERVAL`` seconds from a ``SIGALRM`` handler, including during long
operations.  ``corrected`` scales an interval's busy time by
``REFERENCE_S / (median probe time near the interval)``, reporting it in
seconds of a machine on which the probe takes ``REFERENCE_S``.  The probe
describes the core it runs on; work timed in a child process must share
that core (``time.perf_counter`` is system-wide, so the child's stamps
line up with the probe's).

The probe shares the benchmarked process's machine, so CPU load that the
program adds itself (worker threads or processes) slows the probe too and
shrinks the corrected times.  Compare the raw medians, which the benchmark
prints beside the corrected ones, for a change that adds concurrency.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.05  # seconds between probes
WINDOW = 0.1  # probes this close to an interval describe its machine speed
REFERENCE_S = 1.4e-3  # typical probe time between operations on a 2-core test machine
_MATRIX = np.random.default_rng(0).standard_normal((48, 48))


def _probe_work():
    np.linalg.eigvals(_MATRIX)
    total = 0
    for i in range(4000):
        total += i * i
    return total


class SpeedProbe:
    def __init__(self):
        self.starts = []
        self.durations = []

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _probe(self, signum, frame):
        start = time.perf_counter()
        _probe_work()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def corrected(self, start: float, end: float) -> float:
        """Busy seconds of ``[start, end]`` at the reference machine speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        busy = end - start - sum(self.durations[lo:hi])
        near_lo = bisect.bisect_left(self.starts, start - WINDOW)
        near_hi = bisect.bisect_right(self.starts, end + WINDOW)
        near = self.durations[near_lo:near_hi] or self.durations
        return busy * REFERENCE_S / statistics.median(near)
