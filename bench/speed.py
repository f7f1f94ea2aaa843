"""Machine-speed reference for the benchmark's timings.

On a shared machine the CPU speed one process gets drifts: the same pure-Python work
can take up to twice as long for tens of seconds at a time, and a whole run
can fall into a slow stretch.  A fixed reference kernel of about 2 ms (exact
Gauss-Jordan elimination of a 7x7 Hilbert matrix, shaped like the program's
own work and sharing no code with it) is timed every 50 ms from a SIGALRM
handler while the sessions run.  A session's time ``t`` is then
reported as ``t * NOMINAL_S * mean(1 / r)`` over the reference times ``r``
taken during and just around it: the time the work would take on a machine
on which the kernel runs in ``NOMINAL_S``.  The handler's own time is taken
out of the session's time first.  Raw times go to the detail output.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.002
INTERVAL_S = 0.05
WINDOW_S = 0.5  # reference times this close to a session scale it
_SIZE = 7
_HILBERT = [[Fraction(1, i + j + 1) for j in range(_SIZE)] for i in range(_SIZE)]


def _kernel() -> Fraction:
    rows = [row[:] + [Fraction(int(i == j)) for j in range(_SIZE)] for i, row in enumerate(_HILBERT)]
    for col in range(_SIZE):
        pivot = rows[col]
        inv = 1 / pivot[col]
        pivot[:] = [a * inv for a in pivot]
        for k, row in enumerate(rows):
            if k != col and row[col]:
                c = row[col]
                rows[k] = [a - c * b for a, b in zip(row, pivot)]
    return rows[0][-1]


def reference_s() -> float:
    """Seconds the reference kernel takes right now."""
    started = perf_counter()
    _kernel()
    return perf_counter() - started


class SpeedSampler:
    """Times the reference kernel every ``INTERVAL_S`` while it is entered."""

    def __init__(self):
        self.stamps = array("d")
        self.times = array("d")
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        took = reference_s()
        self.stamps.append(perf_counter())
        self.times.append(took)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """(work seconds in [start, end] less the sampler's, same at nominal speed).

        Call once the sampler has run past ``end + WINDOW_S``.
        """
        lo = bisect_left(self.stamps, start)
        hi = bisect_right(self.stamps, end)
        work = end - start - sum(self.times[lo:hi])
        lo = bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect_right(self.stamps, end + WINDOW_S)
        if hi == lo:
            raise RuntimeError("no speed sample near a timed session")
        speed = sum(1 / t for t in self.times[lo:hi]) / (hi - lo)
        return work, work * NOMINAL_S * speed
