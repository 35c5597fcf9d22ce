"""Host speed, sampled through a run, to scale operation times by.

The benchmark shares a few cores of a host with other tenants, and the
speed those cores give a single thread swings by up to a factor of two
over seconds.  ``Sampler`` times a fixed calibration kernel every
``PERIOD`` seconds of wall time, from a SIGALRM handler, so the samples
land inside long operations too.  ``Sampler.scaled`` turns each
operation's wall time (minus the time the handler ran inside it) into the time
it would have taken on a host where the kernel takes ``NOMINAL_S``: wall
time x NOMINAL_S / (mean kernel time within ``WINDOW`` s of the
operation).  The mean, not the median: an operation's time adds up over
its interval, and the host switches between a fast and a slow regime
within it.  The kernel uses neither the library nor anything a change to
it can speed up, so a faster library still reads as faster.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

#: kernel time, s, that scaled times refer to: a round figure near its mean
#: on the host the baseline was measured on
NOMINAL_S = 0.55e-3
PERIOD = 0.025
WINDOW = 0.25

_X = np.linspace(0.01, 10.0, 1000)


def kernel() -> float:
    """Fixed work of the library's kind: small-array numpy and float loops."""
    acc = 0.0
    for k in range(12):
        y = np.exp(1.3 * np.log(_X)) - 0.7 * _X ** 2.1
        i = int(np.argmax(y))
        acc += float(y[i]) + float(np.sum(np.log1p(_X * k)))
        for j in range(120):
            acc += math.sqrt(j + k) * 1e-9
    return acc


def time_kernel(reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return times


class Sampler:
    """Kernel times sampled every PERIOD s while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        self.starts.append(t0)
        self.times.append(dt)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, spans: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
        """Wall times, handler time taken out, and scaled times of the
        operations given as (start, end)."""
        if not self.times:
            raise RuntimeError("no host-speed samples were taken")
        starts = np.asarray(self.starts)
        times = np.asarray(self.times)
        ends = starts + times
        t0, t1 = np.asarray(spans, dtype=float).reshape(-1, 2).T
        wall = t1 - t0
        # handler runs that overlap an operation: indices a..b-1
        a, b = np.searchsorted(ends, t0, "right"), np.searchsorted(starts, t1)
        for k in np.flatnonzero(b > a):
            sl = slice(a[k], b[k])
            wall[k] -= np.sum(np.minimum(ends[sl], t1[k]) - np.maximum(starts[sl], t0[k]))
        # kernel samples within WINDOW of an operation: lo..hi-1, else the next (or last) one
        lo, hi = np.searchsorted(starts, t0 - WINDOW), np.searchsorted(starts, t1 + WINDOW)
        lo = np.where(hi > lo, lo, np.minimum(lo, len(times) - 1))
        hi = np.maximum(hi, lo + 1)
        cum = np.concatenate([[0.0], np.cumsum(times)])
        local = (cum[hi] - cum[lo]) / (hi - lo)
        return wall.tolist(), (wall * NOMINAL_S / local).tolist()


def around(fn, reps: int = 15):
    """Run ``fn`` between two bursts of kernel timings; return its result,
    its wall time and that time scaled by the mean kernel time of the
    bursts."""
    before = time_kernel(reps)
    t0 = perf_counter()
    result = fn()
    dt = perf_counter() - t0
    local = statistics.fmean(before + time_kernel(reps))
    return result, dt, dt * NOMINAL_S / local
