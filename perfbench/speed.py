"""Scaling of measured times to a fixed reference CPU speed.

The host of a shared virtual machine slows its vCPUs by up to about 1.7x for
tens of seconds to minutes at a time.  On a 2-vCPU Intel Xeon virtual
machine, ten 26-second runs of one workload had wall times whose
interquartile range was up to 32% of their median, with the same program on
the same inputs.  That is wider than any bound a regression check could use.

`SpeedSampler` measures the CPU speed while commands run.  Every `INTERVAL`
seconds a SIGALRM handler times `probe()`, a fixed piece of standard-library
Fraction and integer arithmetic that no change to `coarseiv` can speed up.
The handler runs in the measuring thread, between the bytecodes of the
commands, so the probes see the speed each command ran at.  A window's
factor is the mean of REFERENCE_PROBE_S / probe time over the probes taken in
it.  A measured time multiplied by its factor is the time the work would
have taken on a CPU where `probe()` takes REFERENCE_PROBE_S, so times from a
slow and a fast period compare.  `scaled()` leaves out the time the probes
themselves took inside the window.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.02  # seconds between in-flight probes
MIN_PROBES = 5  # a window with fewer probes borrows the nearest ones
# Duration of probe() on the reference CPU: its fastest 1% on the 2-vCPU
# Intel Xeon virtual machine the benchmark was calibrated on.
REFERENCE_PROBE_S = 140e-6


def probe() -> float:
    """Seconds taken by a fixed piece of Fraction and integer arithmetic."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = set()
    for i in range(1, 49):
        acc += Fraction(i * 7919, i * 104729 + 3)
        seen.add((acc.numerator % 65521, i))
    return time.perf_counter() - t0


class SpeedSampler:
    """Context manager that probes the CPU speed while it is open."""

    def __init__(self):
        self.stamps: list[float] = []  # probe end times, increasing
        self.probes: list[float] = []  # probe durations

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        self.probes.append(probe())
        self.stamps.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """Scale factor of the perf_counter window [start, end]."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        # A short window borrows the nearest probes, alternately before and after it.
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.stamps)):
            if lo > 0:
                lo -= 1
            if hi - lo < MIN_PROBES and hi < len(self.stamps):
                hi += 1
        return statistics.fmean(REFERENCE_PROBE_S / p for p in self.probes[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """Time the program ran in [start, end], less the probes, scaled to the reference CPU."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        probing = sum(self.probes[lo:hi])
        return (end - start - probing) * self.factor(start, end)
