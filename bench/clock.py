"""Verdict times in speed-normalised seconds.

On a shared host the speed of one core drifts by up to 2x over a few
seconds, so the mean of a 20 s run of fixed work varies by about 20% from run
to run.  A fixed reference loop, built only from the standard library (exact
``Fraction`` sums and a float recurrence, the two kinds of arithmetic the
verdicts do), is timed before every verdict.  Each verdict's wall time is then
scaled by ``REFERENCE_S`` over the median reference time of the seven samples
centred on it.  The result reads as seconds on a core that runs the reference
loop in ``REFERENCE_S``; a change to invrel cannot move the reference loop.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 5e-4
HALF_WINDOW = 3


def _reference_work():
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(1, i)
    x = 0.5
    for i in range(1, 800):
        x = x * 0.999 + i / 7.0
    return s, x


def reference_sample() -> float:
    """Wall time of one pass of the reference loop."""
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def local_speeds(references: list[float]) -> list[float]:
    """``REFERENCE_S`` over the centred median reference time, per sample."""
    out = []
    for j in range(len(references)):
        window = references[max(0, j - HALF_WINDOW): j + HALF_WINDOW + 1]
        out.append(REFERENCE_S / statistics.median(window))
    return out


def normalised(durations: list[float], references: list[float]) -> list[float]:
    """Each duration scaled by the speed measured around it."""
    return [d * s for d, s in zip(durations, local_speeds(references))]
