"""Pinned memory budgets: the peak traced bytes of one call, in n-row
float64 columns (units of 8·n bytes).

numpy reports its data buffers to ``tracemalloc``, so these peaks do not
depend on the host.  Each call is measured warm, on its second run.  The
library calls and ``load_csv`` run at n = 200,000 rows of four correlated
columns, each CLI command at 20,000 rows of the same data.  A budget is
the reading when it was pinned plus 0.1 of a column, so a change that adds
one n-row temporary to a route fails here.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import partialreg.cli
from helpers import random_dataset
from partialreg import (
    Dataset,
    combined_slope,
    fit,
    gamma_surface,
    gamma_sweep,
    load_csv,
    residualize,
    run_verification_suite,
    save_csv,
    slope_on_gamma,
    verify_residualized_slope,
)
from partialreg.cli import EXIT_OK, EXIT_USAGE
from partialreg.io import to_csv

N = 200_000
N_CLI = 20_000

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

# Command -> (arguments, budget in columns of N_CLI rows).  Every command
# but residualize's CSV, whose table is larger, still peaks in ``load_csv``:
# the file's bytes (7.2 columns) and one transient of their size, against
# about 10.2 columns after the read.
CLI_BUDGETS = {
    "fit": (["fit", "--response", "Y", "--predictors", "X1,X2,X3"], 16.46),
    "residualize_csv": (["residualize", "--target", "X1",
                         "--controls", "X2,X3", "--format", "csv"], 51.25),
    "sweep_401": (["sweep", "--response", "Y", "--x1", "X1", "--x2", "X2",
                   "--gamma-min=-2", "--gamma-max=2", "--gamma-step=0.01"],
                  16.48),
    "surface_21x21": (["surface", "--response", "Y", "--x1", "X1",
                       "--x2", "X2", "--x3", "X3",
                       "--gamma2-range=-1:1:0.1", "--gamma3-range=-1:1:0.1"],
                      16.46),
    "verify": (["verify", "--response", "Y", "--x1", "X1",
                "--controls", "X2,X3"], 16.46),
    "report": (["report", "--response", "Y", "--x1", "X1",
                "--controls", "X2,X3"], 16.46),
}


def _correlated(n: int) -> Dataset:
    """``Y, X1, X2, X3``: predictors correlated 0.3 to 0.6, ``Y`` linear in
    them plus unit noise; the benchmark's seed-3 data.  ``to_csv``'s peak
    follows the printed widths, so the offsets and scales matter."""
    rng = np.random.default_rng(3)
    slopes = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
    intercept = rng.uniform(-5.0, 5.0)
    correlation = np.array([[1.0, 0.6, 0.45], [0.6, 1.0, 0.3],
                            [0.45, 0.3, 1.0]])
    x = (rng.standard_normal((n, 3)) @ np.linalg.cholesky(correlation).T
         * [1.0, 2.0, 0.5] + [3.0, -1.0, 10.0])
    y = intercept + x @ slopes + rng.standard_normal(n)
    return Dataset({"Y": y, "X1": x[:, 0], "X2": x[:, 1], "X3": x[:, 2]})


def _peak(call) -> int:
    """Peak traced bytes of ``call()``'s second run."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _run(argv: list[str], expected: int):
    """A call running one parsed command line through ``cli.run``."""
    args = partialreg.cli.build_parser().parse_args(argv)

    def call():
        assert partialreg.cli.run(args) == expected
    return call


@pytest.fixture(scope="module")
def big() -> Dataset:
    return _correlated(N)


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("memory") / "small.csv"
    save_csv(_correlated(N_CLI), path)
    return str(path)


@pytest.mark.parametrize("route", sorted(BUDGETS))
def test_peak_within_budget(big, route):
    call, budget = BUDGETS[route]
    assert _peak(lambda: call(big)) / (8 * N) <= budget


def test_load_csv_within_budget(big, tmp_path):
    path = tmp_path / "big.csv"
    save_csv(big, path)
    assert _peak(lambda: load_csv(path)) / (8 * N) <= 16.44


@pytest.mark.parametrize("command", sorted(CLI_BUDGETS))
def test_cli_command_within_budget(small_csv, tmp_path, command):
    argv, budget = CLI_BUDGETS[command]
    call = _run([*argv, "--input", small_csv,
                 "--output", str(tmp_path / "out.csv")], EXIT_OK)
    assert _peak(call) / (8 * N_CLI) <= budget


def test_rejected_grid_allocates_nothing_of_grid_size(small_csv, capsys):
    """A 4e12-point sweep is refused before anything of its size exists:
    no CLI argument causes an unbounded allocation."""
    call = _run(["sweep", "--response", "Y", "--x1", "X1", "--x2", "X2",
                 "--input", small_csv, "--gamma-min=-2", "--gamma-max=2",
                 "--gamma-step=1e-12"], EXIT_USAGE)
    assert _peak(call) <= 1_000_000
    assert "GridTooLarge" in capsys.readouterr().out


def test_csv_sweep_bytes_per_point(tmp_path):
    """A CSV sweep's peak per grid point: the table printed in numpy
    blocks takes about 200 bytes a point, most of them ``GammaSweep``'s
    tuples; a second tuple per point (an echo of the grid) takes it to
    about 235, and a Python list per printed row to about 360."""
    path, out = tmp_path / "in.csv", tmp_path / "sweep.csv"
    save_csv(random_dataset(np.random.default_rng(11), n=1000, k=2), path)
    points = 50_001
    call = _run(["sweep", "--response", "Y", "--x1", "X1", "--x2", "X2",
                 "--input", str(path), "--output", str(out),
                 "--gamma-min=-2.5", "--gamma-max=2.5", "--gamma-step=1e-4"],
                EXIT_OK)
    peak = _peak(call)
    assert out.read_text().count("\n") == points + 1
    assert peak < 217 * points
