"""Times rescaled to a reference CPU speed.

The CPU speed one process sees on a shared host drifts: on a 2-vCPU
virtual machine (Python 3.11.7), an identical pure-Python loop took
anywhere from 1x to 2x its fastest time, in phases lasting from under a
second to minutes.  Raw seconds from two runs a few minutes apart are
therefore not comparable.

``Stopwatch`` samples ``calibrate()``, a fixed kernel of the benchmark's
own Z[w] arithmetic (tuple and int work like the program's, in code no
program change touches), every SAMPLE_INTERVAL_S of wall time and around
every timed segment.  A segment's scaled time is its raw time (sampling
excluded) times REFERENCE_CAL_S / mean(calibrations taken during and
around it).  A program that gets slower still reads slower; a host that
gets slower does not.  Raw seconds are reported next to the scaled ones.
"""

from __future__ import annotations

import gc
import random
import signal
from time import perf_counter

import zw

#: ``calibrate()`` time at the reference speed: about its median on that
#: 2-vCPU virtual machine in its faster phase
REFERENCE_CAL_S = 0.0010
SAMPLE_INTERVAL_S = 0.05

_rng = random.Random(0)
_VECTORS = tuple(tuple((_rng.randint(-9, 9), _rng.randint(-9, 9)) for _ in range(14))
                 for _ in range(60))
_ROOT = ((0, 0),) * 12 + ((1, 0), (-1, -1))  # (0^12; 1, w^2), a root of Leech+H


def calibrate() -> float:
    """Seconds the calibration kernel takes now, with the garbage collector
    and the sampling signal held off so neither is charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        t0 = perf_counter()
        for v in _VECTORS:
            zw.ip(v, v, leech_scaled=False)
            zw.reflect(_ROOT, (0, 1), v, leech_scaled=True)
        return perf_counter() - t0
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        if enabled:
            gc.enable()


class Stopwatch:
    """Scaled timing of consecutive segments; see the module docstring.

    Use as a context manager: sampling runs from entry to exit.
    """

    def __init__(self):
        self.samples = []
        self.sampling_s = 0.0
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def __enter__(self):
        calibrate()  # the first run in a fresh interpreter is slower
        self._last = calibrate()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(calibrate())
        self.sampling_s += perf_counter() - t0

    def time(self, fn):
        """(result, raw seconds, scaled seconds) of ``fn()``."""
        first, sampling0 = len(self.samples), self.sampling_s
        t0 = perf_counter()
        try:
            out = fn()
        finally:
            raw = perf_counter() - t0 - (self.sampling_s - sampling0)
            cal = calibrate()
            cals = [self._last, *self.samples[first:], cal]
            scaled = raw * REFERENCE_CAL_S * len(cals) / sum(cals)
            self._last = cal
            self.raw_s += raw
            self.scaled_s += scaled
        return out, raw, scaled
