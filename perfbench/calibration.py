"""Machine-speed calibration of end-to-end times."""

from __future__ import annotations

import statistics
import time

import numpy

# The machine is shared and its speed drifts by a third within minutes,
# alike for this fixed loop of interpreter and numpy work and for the
# workloads.  The loop is timed between items, at least once a second, and
# end-to-end times are scaled to the speed at which it takes CALIBRATION_S.
# Times of two commits compare only under the same loop: never change it.
CALIBRATION_S = 0.05
CALIBRATE_EVERY_S = 1.0
# Arrays stay under 1 MB, and numpy.random is not imported, so that the loop
# adds little to peak_rss_mb.  The input is an equidistributed sequence.
_CALIBRATION_INPUT = (numpy.arange(100_000) * 0.6180339887498949) % 1.0


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop."""
    start = time.perf_counter()
    x = _CALIBRATION_INPUT
    level = 0.0
    for k in range(len(x)):  # a Lindley recursion, like the simulator's slot loop
        level += x[k] - 0.5
        if level < 0.0:
            level = 0.0
    for k in range(20):  # fresh temporaries, like the bound sums and the oracle
        a = x + k
        numpy.log(numpy.sum(numpy.exp(a - k - 1.0)))
        numpy.minimum.accumulate(numpy.cumsum(a[::-1]))
    return time.perf_counter() - start


def speed_scale(calibrations: list) -> float:
    """Factor that turns times measured in a run into times at the nominal
    machine speed, where the calibration loop takes CALIBRATION_S."""
    return CALIBRATION_S / statistics.median(calibrations)
