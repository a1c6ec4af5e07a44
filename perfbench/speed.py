"""Machine speed, read from a fixed reference kernel, to scale timings by.

The benchmark shares its machine.  On the machine it was defined on, a
single-threaded numpy loop ran at two distinct speeds about 1.5x apart.
Each speed held for seconds to minutes, so a whole 30-second run could
land on either one.  Raw op times then spread by 20-40% between runs
of the same code.

To cancel that, the reference kernel is timed every ``SAMPLE_EVERY_S``
between ops.  Each reported time is multiplied by ``NOMINAL_S``
divided by the kernel time measured around it.  The result is the time
on a machine where the kernel takes ``NOMINAL_S``.  The kernel uses only
numpy and the interpreter, never rotpair, so a change to the package
cannot move it.  It has three parts: LAPACK on a mid-size matrix, numpy
calls on tiny matrices, and a pure-Python loop.  These are the three
kinds of cost in the workloads.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.006       # about the kernel's time at the faster speed seen
SAMPLE_EVERY_S = 0.25

_MID = np.random.default_rng(0).standard_normal((48, 48))
_TINY = np.random.default_rng(1).standard_normal((4, 4))


def kernel() -> int:
    for _ in range(4):
        np.linalg.svd(_MID)
    for _ in range(150):
        np.linalg.svd(_TINY)
        _TINY @ _TINY.T
    acc = 0
    for i in range(15000):
        acc += i * i
    return acc


def _timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale_now(samples: int = 3) -> float:
    """NOMINAL_S over the median of a few kernel timings taken now."""
    return NOMINAL_S / statistics.median(_timed_kernel() for _ in range(samples))


class Speedometer:
    """Kernel timings over a run, looked up by the time of an op."""

    def __init__(self):
        self.at = []        # perf_counter() at the middle of each sample
        self.seconds = []

    def sample(self) -> None:
        start = time.perf_counter()
        elapsed = _timed_kernel()
        self.at.append(start + elapsed / 2)
        self.seconds.append(elapsed)

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale_at(self, t: float) -> float:
        """NOMINAL_S over the median of the two samples each side of ``t``.

        One sample is noisy on its own.  Four span about a second,
        which is shorter than the speed swings this corrects for.
        """
        i = bisect.bisect_left(self.at, t)
        return NOMINAL_S / statistics.median(self.seconds[max(0, i - 2):i + 2])
