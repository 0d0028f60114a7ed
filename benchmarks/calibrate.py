"""Stage times scaled to a fixed machine speed.

The shared host this benchmark runs on changes speed by up to 1.6x within
seconds, on both vCPUs at once, so raw wall times of identical work spread
far more between runs than any code change worth measuring. A fixed
reference unit (``reference``, code of this file only, never of the
package) is therefore timed next to the work: once before and once after
each timed call, and every ``INTERVAL_S`` during it from a ``SIGALRM``
handler. A call's scaled time is its own time (handler time taken out)
times ``REF_S`` over the mean reference time seen across the call, i.e.
the time it would take on a machine where the reference unit takes
``REF_S`` seconds. The reference mixes what the package spends its time on:
interpreted float arithmetic, 2x2 numpy filter steps, small dense matmuls
and float-to-text formatting.
"""

from __future__ import annotations

import io
import signal
import statistics
from time import perf_counter

import numpy as np

REF_S = 0.008       # nominal reference time, about its median on a 2-vCPU x86_64 VM
INTERVAL_S = 0.05   # host speed changes within a second; costs ~20% wall, unmeasured


def reference() -> float:
    """Seconds one fixed reference unit takes now."""
    start = perf_counter()
    s = 0.0
    for i in range(6000):
        s += i * 0.5 % 3.0
    x, p, q, r = np.zeros(2), np.eye(2), 1e-6 * np.eye(2), np.array([[4e-6]])
    for t in range(100):
        h = np.array([[np.sin(0.3 * t), np.cos(0.3 * t)]])
        pp = p + q
        k = pp @ h.T @ np.linalg.inv(h @ pp @ h.T + r)
        x = x + k @ (np.array([np.sin(0.3 * t)]) - h @ x)
        p = (np.eye(2) - k @ h) @ pp
    a, w = np.full((32, 64), 0.01), np.full((64, 64), 0.01)
    for _ in range(60):
        a = np.tanh(a @ w)
    buf = io.StringIO()
    for i in range(800):
        buf.write(",".join(repr(i * 0.1 + j) for j in range(4)) + "\n")
    return perf_counter() - start


class ReferenceClock:
    """Times calls in reference-speed seconds; use as a context manager so
    the interval timer runs only inside it."""

    def __init__(self):
        self.samples: list[float] = []
        self.sampling_s = 0.0    # time spent in reference units so far
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            elapsed = reference()
            self.samples.append(elapsed)
            self.sampling_s += elapsed
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args):
        """``fn(*args)``, its own seconds and its reference-speed seconds."""
        self.sample()
        first = len(self.samples) - 1
        sampling, start = self.sampling_s, perf_counter()
        try:
            result = fn(*args)
        finally:
            own = perf_counter() - start - (self.sampling_s - sampling)
            self.sample()
        return result, own, own * REF_S / statistics.fmean(self.samples[first:])


class WallClock:
    """``ReferenceClock``'s interface with plain wall time, for traced runs:
    a ``SIGALRM`` handler would add its time to the spans it interrupts."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def time(self, fn, *args):
        start = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - start
        return result, elapsed, elapsed
