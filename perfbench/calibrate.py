"""Machine-speed probe for the timed loop.

A shared host runs the same work up to 1.7 times slower for seconds to
minutes at a time, and this drift dominates the spread of raw latencies
between runs.  While an instance is solved, a timer signal interrupts
the pipeline every :data:`PERIOD_S` of wall time and times a small fixed
kernel, owned by the benchmark and independent of the package.  The
instance's latency, less the time spent in the probe, divided by the
probe's mean time during it, is the latency in units of machine speed;
multiplied by :data:`REFERENCE_MS` it reads as milliseconds at the speed
of the reference host.  The kernel mixes what the pipeline spends its
time on: interpreted Python arithmetic and small numpy calls.  It
allocates no objects the garbage collector tracks, so it never triggers
a collection inside the measured code.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.02
# Median kernel time on the reference host (2 vCPUs, Intel Xeon, Python
# 3.11, numpy 2.4, one BLAS thread) while it is not slowed down.
REFERENCE_MS = 0.24

_rng = np.random.default_rng(12345)
_A = _rng.random((48, 48)) / 48.0
_V = _rng.random(48)


def kernel() -> float:
    """Fixed work; returns a checksum that is the same on every call."""
    acc = 0.0
    for i in range(1000):
        acc += (i * 7 % 13) * 0.5
    x = _V.copy()
    for _ in range(50):
        x = np.tanh(_A @ x) + _V
    return acc + float(x.sum())


_CHECKSUM = kernel()


class SpeedProbe:
    """Kernel times (s) sampled while :meth:`active`, and their total."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        try:
            # The first call brings the kernel back into the caches the
            # pipeline evicted; only the second, warm call is a sample.
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            value = kernel()
            t2 = time.perf_counter()
        finally:
            self._busy = False
        if value != _CHECKSUM:  # the kernel must always do the same work
            raise RuntimeError(f"probe kernel returned {value!r}, expected {_CHECKSUM!r}")
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    @contextmanager
    def active(self):
        """Sample every :data:`PERIOD_S` of wall time inside the block."""
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mean_ms(self) -> float | None:
        return sum(self.samples) / len(self.samples) * 1e3 if self.samples else None
