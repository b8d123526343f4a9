"""Host-speed calibration for the untraced benchmark child.

The benchmark runs on shared virtual machines whose speed drifts, up to
twofold within minutes, as neighbours come and go; a wall time alone
cannot tell a slow host from a slow program.  So the untraced child
samples the host's speed while the program runs: a timer fires every
``PERIOD_S`` of wall time, and its handler times one fixed slice of
reference work (pure Python, independent of ``cosetrex``).  The slices are
spread evenly over the run, so the mean of their speeds is the host's mean
speed over the run.

``clock()`` is ``time.perf_counter()`` minus the time spent in slices, so
durations taken with it are the program's own.  ``factor()`` is the mean,
over the slices, of ``REFERENCE_S / slice time``: multiplying a duration
by it gives the duration on a host where one slice takes exactly
``REFERENCE_S``.  A faster program lowers that figure; a faster host does
not.  The slices take about 2.5% of the run and cost the program a little
warmth in the CPU caches after each one; both commits of a comparison pay
that alike.
"""
from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.02
# slices taken back to back right after set-up, which is too short for
# more than a few timer samples
BURST_SLICES = 60
# a request's speed is the mean over the slices taken during it and this
# many on each side (about 0.2 s of context for a short request)
CONTEXT_SLICES = 4
# one slice on the reference host; on the 2 vCPU Xeon (2.0 GHz, Python
# 3.11) this was built on, a slice took 0.35 to 0.7 ms, varying by minute
REFERENCE_S = 0.0005
SLICE_ROUNDS = 700


def reference_work(rounds: int = SLICE_ROUNDS) -> int:
    """A fixed slice of interpreter work: tuple slicing, hashing, dict
    updates and calls, the operations the program itself is made of."""
    seen: dict = {}
    word = tuple(range(8))
    total = 0
    for i in range(rounds):
        word = word[1:] + word[:1]
        seen[word] = seen.get(word, 0) + i
        total += len(seen) ^ (i & 7)
    return total


class HostSpeed:
    """Sample the host's speed on a wall-clock timer; see the module doc."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.stamps: list[float] = []  # clock() at each slice (bursts included)
        self.paused = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.stamps.append(t0 - self.paused)
        reference_work()
        self.slices.append(time.perf_counter() - t0)
        self.paused += time.perf_counter() - t0

    def burst(self) -> None:
        """Take ``BURST_SLICES`` slices back to back (with the timer stopped)."""
        for _ in range(BURST_SLICES):
            t0 = time.perf_counter()
            self.stamps.append(t0 - self.paused)
            reference_work()
            self.slices.append(time.perf_counter() - t0)

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Mean host speed over the slices ``first:last``, relative to the
        reference; 1.0 if there are none."""
        taken = self.slices[first:last]
        if not taken:
            return 1.0
        return sum(REFERENCE_S / s for s in taken) / len(taken)

    def local_factor(self, start: float, end: float, first: int = 0) -> float:
        """``factor`` over the slices between clock() times ``start`` and
        ``end``, with ``CONTEXT_SLICES`` more on each side; slices before
        index ``first`` are not used."""
        lo = bisect.bisect_left(self.stamps, start, first) - CONTEXT_SLICES
        hi = bisect.bisect_right(self.stamps, end, first) + CONTEXT_SLICES
        return self.factor(max(lo, first), hi)
