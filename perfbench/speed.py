"""A probe of the machine's speed, sampled while the workload runs.

The benchmark's host gives it two cores of a shared machine.  That machine
runs in fast and slow phases, from under a second to minutes long, that
move every timing by up to 50%.  So the probe times a small fixed kernel
every PERIOD_S seconds, from a SIGALRM handler that runs between the
workload's own bytecodes.  A time measured over an interval is then
scaled by REF_SECONDS over the mean kernel time of the samples taken in
that interval: it becomes the time the same work takes on a machine where
one kernel pass takes REF_SECONDS.

The kernel's code and data live here, so no change to ulam can move it;
only the machine's speed does.  It mixes what the package spends its time
on: a pure-Python patience pass, small numpy calls in a Python loop,
object and dict churn, and a sort and draws over a larger array.  Against
a probe of this kind, the round times of the workloads had a log-log
slope of 0.8 to 1 and a correlation of 0.96 to 0.98.  No single part of
the mix did as well on all four workloads.

`clock` is the clock to time the workload with.  It stops while the probe
runs, so the probe's own time is not counted in any measured interval.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
# Nominal kernel time: scaled times are those of a machine on which one
# pass takes this long (about a fast phase of a 2-core Xeon at 2.1 GHz).
REF_SECONDS = 0.0005

_rng = np.random.default_rng(20230106)
_SMALL = _rng.random(400)
_ORDER = np.argsort(_rng.random(400))
_LARGE = _rng.random(16000)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x, self.y = x, y


def kernel() -> None:
    """One pass of the fixed reference kernel, about 0.5 ms."""
    tails: list[float] = []
    for v in _SMALL[_ORDER].tolist():
        i = bisect.bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    pos = np.sort(_SMALL[:60])
    for j in range(8):
        pts = np.sort(_SMALL[40 * j:40 * j + 40])
        np.searchsorted(pos, pts)
        pos = np.sort(np.concatenate([pos, pts]))[:60]
    counts: dict[tuple[int, int], int] = {}
    for i in range(300):
        p = _Point(i * 7 % 101, i % 13)
        counts[p.x, p.y] = counts.get((p.x, p.y), 0) + 1
    np.sort(_LARGE)
    np.random.default_rng(len(counts)).random(_LARGE.size)


def kernel_s(passes: int = 50) -> float:
    """Mean time of one kernel pass over ``passes`` passes."""
    start = time.perf_counter()
    for _ in range(passes):
        kernel()
    return (time.perf_counter() - start) / passes


class SpeedProbe:
    """Samples the kernel every PERIOD_S seconds while it is entered."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (clock at start, seconds)
        self._paused = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append((start - self._paused, took))
        self._paused += took

    def __enter__(self) -> SpeedProbe:
        kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """The interval [start, end) of `clock`, scaled to REF_SECONDS speed
        by the samples taken inside it, or by the nearest one if none was."""
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_left(self.samples, (end,))
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(lo + 1, len(self.samples))
        took = statistics.fmean(s for _, s in self.samples[lo:hi])
        return (end - start) * REF_SECONDS / took
