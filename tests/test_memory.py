"""Pinned memory budgets: the peak traced bytes of one call, in n-row
float64 columns (units of 8·n bytes).

numpy reports its data buffers to ``tracemalloc``, so these peaks do not
depend on the host.  Each call is measured warm, on its second run, at
n = 200,000 rows of four correlated columns.  A budget is the reading
when it was pinned plus 0.1 of a column, so a change that adds one n-row
temporary to a route fails here.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from partialreg import (
    Dataset,
    combined_slope,
    fit,
    gamma_surface,
    gamma_sweep,
    residualize,
    run_verification_suite,
    slope_on_gamma,
    verify_residualized_slope,
)
from partialreg.io import to_csv

N = 200_000

# Route -> (call, budget in columns).
BUDGETS = {
    "fit_k3": (lambda ds: fit(ds, "Y", ["X1", "X2", "X3"]), 0.7),
    "residualize_two_controls_merged": (
        lambda ds: residualize(ds, "X1", ["X2", "X3"]).merged_into(ds),
        2.1),
    "suite_one_control": (
        lambda ds: run_verification_suite(ds, "Y", "X1", ["X2"]), 4.1),
    "suite_two_controls": (
        lambda ds: run_verification_suite(ds, "Y", "X1", ["X2", "X3"]), 5.1),
    "verify_residualized_slope_two_controls": (
        lambda ds: verify_residualized_slope(ds, "Y", "X1", ["X2", "X3"]),
        5.1),
    "gamma_sweep_401": (
        lambda ds: gamma_sweep(ds, "Y", "X1", "X2",
                               np.linspace(-2.0, 2.0, 401)), 4.1),
    "gamma_surface_21x21": (
        lambda ds: gamma_surface(ds, "Y", "X1", ["X2", "X3"],
                                 np.linspace(-1.0, 1.0, 21),
                                 np.linspace(-1.0, 1.0, 21)), 5.1),
    "slope_on_gamma": (
        lambda ds: slope_on_gamma(ds, "Y", "X1", "X2", 0.5), 4.1),
    "combined_slope_two_controls": (
        lambda ds: combined_slope(ds, "Y", "X1", ["X2", "X3"],
                                  [0.5, 0.25]), 3.1),
    "to_csv_four_columns": (to_csv, 14.52),
}


@pytest.fixture(scope="module")
def big() -> Dataset:
    """``Y, X1, X2, X3``: predictors correlated 0.3 to 0.6, ``Y`` linear in
    them plus unit noise; the benchmark's seed-3 data.  ``to_csv``'s peak
    follows the printed widths, so the offsets and scales matter."""
    rng = np.random.default_rng(3)
    slopes = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
    intercept = rng.uniform(-5.0, 5.0)
    correlation = np.array([[1.0, 0.6, 0.45], [0.6, 1.0, 0.3],
                            [0.45, 0.3, 1.0]])
    x = (rng.standard_normal((N, 3)) @ np.linalg.cholesky(correlation).T
         * [1.0, 2.0, 0.5] + [3.0, -1.0, 10.0])
    y = intercept + x @ slopes + rng.standard_normal(N)
    return Dataset({"Y": y, "X1": x[:, 0], "X2": x[:, 1], "X3": x[:, 2]})


@pytest.mark.parametrize("route", sorted(BUDGETS))
def test_peak_within_budget(big, route):
    call, budget = BUDGETS[route]
    call(big)
    tracemalloc.start()
    try:
        call(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * N) <= budget
