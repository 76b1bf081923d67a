"""Host time at reference speed.

The host this benchmark was built on changes speed by up to a third
for seconds at a time (other tenants share the machine), which swamps
the differences a benchmark must resolve.  :class:`RefClock` times a
fixed pure-Python calibration loop every :data:`RECALIBRATE_S` of the
run, between ops, and scales each measured host duration by
``REFERENCE_LOOP_S / loop time``.  Durations then read as if the host
ran at the reference speed throughout.  A change to the program moves
them as it moves raw wall-clock; a change in the machine's speed
mostly does not.
"""

from __future__ import annotations

import time

#: Best time of :func:`calibration_loop` on the reference machine (a
#: 2-core x86 VM running CPython 3.11) in its fast state.
REFERENCE_LOOP_S = 0.0017

#: How often the clock re-measures the machine's speed.
RECALIBRATE_S = 0.1


def calibration_loop() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    total = 0
    for value in range(20_000):
        total += value * value % 7
    return time.perf_counter() - start


class RefClock:
    """Scales host durations to the reference machine's speed."""

    def __init__(self) -> None:
        self.factor = 1.0
        self._stamp = 0.0
        self.calibrate()

    def calibrate(self) -> None:
        """Re-measure the machine's speed (best of three loops)."""
        self.factor = REFERENCE_LOOP_S / min(calibration_loop() for __ in range(3))
        self._stamp = time.perf_counter()

    def between_ops(self) -> None:
        """Re-measure when the last measurement is getting old."""
        if time.perf_counter() - self._stamp > RECALIBRATE_S:
            self.calibrate()

    def since(self, start: float) -> float:
        """Reference-speed seconds since ``time.perf_counter()`` was *start*."""
        return (time.perf_counter() - start) * self.factor
