"""Timing corrected for the host's changing speed.

On a shared host the speed of a fixed loop varies by up to 2x within seconds
as other tenants come and go, and a 35 s run's median moves with it (spread
0.1 to 0.35 between runs). The ratio of a phase's time to the time of a fixed
calibration unit run alongside it varies about ten times less. So while
`HostSpeed` is active, a timer signal runs the calibration unit every
`TICK_S`, and `seconds(start, end)` returns the interval minus the calibration
time inside it, scaled by `REF_UNIT_S / (mean unit time inside it)`: the
interval's length at the reference speed. Intervals too short to hold a tick
use the nearest tick before them.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

TICK_S = 0.02
# Median unit time on an idle 2.1 GHz Xeon vCPU; a fixed scale, so reported
# seconds are close to wall seconds there.
REF_UNIT_S = 0.0004

_A = np.linspace(0.5, 1.5, 256).reshape(8, 32)


def calibration_unit() -> float:
    """Fixed interpreter and small-array work, independent of cdfeat."""
    acc = 0.0
    for i in range(60):
        b = _A * (i % 5 + 1)
        acc += float(np.sum(b @ b.T)) + sum(range(16))
    return acc


class RawTimer:
    """Plain wall-clock intervals (used by traced runs)."""

    def seconds(self, start: float, end: float) -> float:
        return end - start


class HostSpeed:
    """Context manager sampling the calibration unit on a timer signal."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibration_unit()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._tick(None, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def seconds(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.durations[lo:hi]
        if inside:
            unit = sum(inside) / len(inside)
        else:
            unit = self.durations[max(lo - 1, 0)]
        return (end - start - sum(inside)) * REF_UNIT_S / unit
