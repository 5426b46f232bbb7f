"""Host-speed calibration: a fixed kernel, timed between the ops of a run.

On a shared host the speed of every process drifts: from one stretch of
seconds to the next by 10-20%, and now and then for minutes.  A run's
median op time moves with it.  The kernel below does fixed work that does
not touch partialreg or depend on the seed, in three parts that the drift
hits the way it hits the ops: passes over an 8 MB array, bound by memory
traffic like the fits at n = 1e6; combined-predictor slopes on four
columns of 1e5 values, like the gamma grid loop at n = 1e5; and number
formatting and parsing in the interpreter, like the CSV reader and writer.  The closed
loop runs it between the ops, in the process that runs them, for a few
percent of the run, so it samples the same stretches of time as the ops.
(In another process it would also time the contention with the ops'
process: OpenBLAS threads spin for a while after each BLAS call.)

Times are reported at a reference speed: multiplied by ``REFERENCE_S``
divided by the run's median kernel time.  A change to partialreg moves the
op times and not the kernel's, so it shows in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's median time on the host the bounds were set on (2 shared
# cores); scaled times are seconds at that speed.
REFERENCE_S = 0.019
# Share of the op time spent in the kernel.
SHARE = 0.05

_rng = np.random.default_rng(0)
_LONG = _rng.standard_normal(1_000_000)
_COLUMNS = _rng.standard_normal((4, 100_000))
_GAMMAS = np.linspace(-1.0, 1.0, 12)
# Memory the kernel keeps resident in the process it runs in.
RESIDENT_BYTES = _LONG.nbytes + _COLUMNS.nbytes


def _kernel() -> float:
    total = 0.0
    for _ in range(6):
        deviations = _LONG - _LONG.mean()
        total += float(deviations @ deviations)
    y, x1, x2, x3 = _COLUMNS
    y_dev = y - y.mean()
    for gamma in _GAMMAS:
        combined = x1 - gamma * x2 - 0.5 * x3
        deviations = combined - combined.mean()
        total += float(deviations @ y_dev) / float(deviations @ deviations)
    for i in range(6_000):
        total += float(f"{i * 0.37:.12g}")
    return total


def time_kernel() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(kernel_s: list[float]) -> float:
    """Factor that turns this run's times into reference-speed times."""
    return REFERENCE_S / statistics.median(kernel_s)
