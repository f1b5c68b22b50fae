"""Reference seconds: measured times scaled by the host's current speed.

The host is shared.  Its speed for lincat's kind of work (exact
rational arithmetic, many small allocations) drifts by up to 1.5x, in
spells that last from a few seconds to minutes, so raw times of
identical work differ by more than any useful regression bound.  A fixed
calibration kernel, row reduction of one 12x14 matrix of stdlib
Fractions, slows down by nearly the same factor; memory-heavy work
follows it less closely (README.md has the numbers).  It uses nothing
from lincat, so no change to lincat can alter it.

Every reported time is therefore a time in reference seconds:

    reference = raw * REFERENCE_KERNEL_S / (median kernel time around it)

While a `Calibrator` is active, SIGALRM runs the kernel every PERIOD_S
seconds, also in the middle of a long operation, and the kernel's own
time is taken out of the interval it interrupted.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

clock = time.perf_counter

# the kernel's median time on the machine that defined the benchmark
REFERENCE_KERNEL_S = 0.0125
PERIOD_S = 0.5
WINDOW_S = 1.0

_RNG = random.Random(0)
_MATRIX = [[Fraction(_RNG.randint(-3, 3), _RNG.randint(1, 3)) for _ in range(14)] for _ in range(12)]


def kernel() -> float:
    """Seconds taken by one fixed Fraction row reduction."""
    t = clock()
    rows = [list(r) for r in _MATRIX]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return clock() - t


class Calibrator:
    """Kernel samples over time, and intervals measured against them.

    With `periodic` the kernel also runs from a SIGALRM handler every
    PERIOD_S seconds; without it (the traced run, whose spans the kernel
    would pollute) only explicit `sample()` calls take samples.
    """

    def __init__(self, periodic: bool):
        self.periodic = periodic
        self.samples: list[tuple[float, float]] = []  # (time taken, kernel seconds)
        self._previous = None

    def sample(self) -> None:
        k = kernel()
        self.samples.append((clock(), k))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Calibrator":
        self.sample()
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def interval(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] not spent in the kernel."""
        inside = sum(max(0.0, min(at, t1) - max(at - k, t0)) for at, k in self.samples)
        return t1 - t0 - inside

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per raw second over [t0, t1], from the median
        of the kernel samples taken during it and within WINDOW_S of it
        (a sample the host interrupted reads long; the median ignores it)."""
        near = [k for at, k in self.samples if t0 - WINDOW_S <= at <= t1 + WINDOW_S]
        if not near:  # no sample that close: take the nearest in time
            near = [min(self.samples, key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))[1]]
        return REFERENCE_KERNEL_S / statistics.median(near)
