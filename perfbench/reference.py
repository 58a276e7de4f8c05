"""A fixed reference computation that gauges how fast the machine runs now.

The benchmark shares a few cores of a host whose speed drifts: identical
cells ran anywhere from 1.05 s to 2.02 s, with process CPU time equal to
wall time and no steal time, in slow and fast phases that last from
seconds to minutes.  So while a cell runs, a ``Gauge`` times this kernel
every ``INTERVAL_S`` seconds, and once just before and once just after
the cell, and the cell's time is also reported divided by the mean of
those samples: its cost in reference units, which stays put while the
host's speed moves.

The samples inside a cell come from a ``SIGALRM`` handler, which Python
runs in the main thread between bytecodes: no thread or process is
started, and the time the handler takes is left out of the cell's wall
time.  The kernel does what the package's hot paths do, numpy calls on
small arrays issued from a Python loop, and nothing of the package
itself, so no change to ``isingfit`` moves it.  It runs for about 10 ms.
Of the kernels tried (this one, a pure-Python loop, a memory-bound numpy
stream and their sums), this one tracked the cells best: over six
30-second runs per workload, on a host whose raw cell times spread by
0.22 to 0.40 (IQR/median), cells in its units spread by 0.02 to 0.07.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25

_STEPS = 240

_rng = np.random.default_rng(0)
_STACK = _rng.normal(size=(8, 64, 64))
_X = np.where(_rng.random(64) < 0.5, 1.0, -1.0)
_BETA = np.full(8, 0.01)


def work():
    total = 0.0
    for _ in range(_STEPS):
        U = np.tensordot(_BETA, _STACK, axes=1)
        total += float(np.tanh(U @ _X).sum()) + float(np.abs(U).sum(axis=1).max())
    return total


def sample():
    """Wall seconds of one run of the reference kernel."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


class Gauge:
    """Times calls together with reference samples taken around and during
    them; keeps every sample for the run's report."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []

    def time(self, fn):
        """Return ``fn()``, its wall seconds without the gauge's own pauses,
        and the mean of the reference samples taken for it."""
        samples = [sample()]
        pauses = []

        def on_alarm(signum, frame):
            t0 = time.perf_counter()
            samples.append(sample())
            pauses.append((t0, time.perf_counter()))

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            t0 = time.perf_counter()
            out = fn()
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # a pause that ended after t1 came after the call and is not in it
        wall = t1 - t0 - sum(end - start for start, end in pauses if end <= t1)
        samples.append(sample())
        self.samples.extend(samples)
        return out, wall, statistics.fmean(samples)
