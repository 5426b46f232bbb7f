"""The library contract under fuzzed data.

Every public function that reads a dataset either returns or raises a
:class:`~partialreg.PartialRegError`: never ``LinAlgError``, never a bare
``ValueError`` for valid arguments, and never a numpy warning.  The data
span magnitudes from 1e-300 to 1e308 with offsets, constant, duplicate and
proportional columns, and from 2 rows to past one tile of the tiled QR;
some already hold the residualized name ``X1*``.  Gammas reach +-1e300.
Examples are derandomized and no example database is written.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import partialreg.ols
from partialreg import (
    Dataset,
    PartialRegError,
    apply_transform,
    build_transform,
    column_stats,
    combined_slope,
    correlation_matrix,
    covariance,
    decompose_coefficients,
    fit,
    fit_simple,
    gamma_roots,
    gamma_surface,
    gamma_sweep,
    map_coefficients,
    multiple_correlation,
    pearson_r,
    predict,
    residualize,
    residualize_with,
    residuals,
    run_verification_suite,
    slope_on_gamma,
    to_csv,
    verify_residualized_slope,
)

NAMES = ("X1", "X2", "X3", "Y")
ROWS = st.sampled_from([40, partialreg.ols._TILE_ROWS + 5, 7, 4, 3, 2])
# A column is random, or a copy, a multiple or a shift of an earlier one,
# or constant; its magnitude is the dataset's, maybe moved by a few or by
# hundreds of decades, and it may carry an offset.  Repeats weight the
# draws toward data that fit, so that the calls past the fit run too.
SHAPE = st.sampled_from(["random"] * 8 + ["integers", "constant",
                                          "duplicate", "proportional",
                                          "shifted"])
MAGNITUDE = st.sampled_from([0] * 10 + [-300, -150, 150, 155, 300, 308])
COLUMN = st.tuples(SHAPE, st.sampled_from([0] * 12 + [-2, 3, -300, 200, 308]),
                   st.sampled_from([0.0] * 8 + [1.0, -1e4, 1e8, 1e300]))
GAMMA = st.one_of(st.floats(-4, 4), st.sampled_from(
    [0.0, 1e-300, 1e150, -1e154, 1e155, 1e200, -1e300, 1e300]))


def _dataset(seed, n, magnitude, columns, with_star):
    rng = np.random.default_rng(seed)
    data = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for name, (shape, exponent, offset) in zip(NAMES, columns):
            scale = 10.0 ** min(max(magnitude + exponent, -300), 308)
            earlier = data[NAMES[rng.integers(len(data))]] if data else None
            if shape == "constant":
                values = np.full(n, scale)
            elif shape == "integers":
                values = rng.integers(-3, 4, n) * scale
            elif earlier is not None and shape == "duplicate":
                values = earlier.copy()
            elif earlier is not None and shape == "proportional":
                values = earlier * (rng.uniform(-3, 3) * scale)
            elif earlier is not None and shape == "shifted":
                values = earlier + scale
            else:
                values = rng.uniform(-1, 1, n) * scale
            values = values + offset
            data[name] = np.nan_to_num(values, posinf=1e308, neginf=-1e308)
    if with_star:
        data["X1*"] = data["X2"][::-1].copy()
    return Dataset(data)


def _calls(ds, g, g3):
    """Each public data function once, as ``(name, thunk)`` pairs; calls
    that need an earlier result come after it."""
    yield "column_stats", lambda: [column_stats(ds, n) for n in ds.names]
    yield "covariance", lambda: covariance(ds, "X1", "Y")
    yield "pearson_r", lambda: pearson_r(ds, "X1", "Y")
    yield "correlation_matrix", lambda: correlation_matrix(ds, NAMES)
    yield "multiple_correlation", lambda: multiple_correlation(
        ds, "Y", ["X1", "X2"])
    yield "fit_simple", lambda: fit_simple(ds, "Y", "X1")
    yield "residualize", lambda: residualize(ds, "X1", ["X2", "X3"])
    yield "residualize_with", lambda: residualize_with(ds, "X1", ["X2"], [g])
    yield "slope_on_gamma", lambda: slope_on_gamma(ds, "Y", "X1", "X2", g)
    yield "combined_slope", lambda: combined_slope(
        ds, "Y", "X1", ["X2", "X3"], [g, g3])
    yield "gamma_roots", lambda: gamma_roots(ds, "Y", "X1", "X2")
    yield "gamma_sweep", lambda: gamma_sweep(ds, "Y", "X1", "X2",
                                             [-g, 0.0, g])
    yield "gamma_surface", lambda: gamma_surface(
        ds, "Y", "X1", ["X2", "X3"], [0.0, g], [g3])
    yield "verify_residualized_slope", lambda: verify_residualized_slope(
        ds, "Y", "X1", ["X2"])
    for controls in (["X2"], ["X2", "X3"]):
        yield "run_verification_suite", lambda: run_verification_suite(
            ds, "Y", "X1", controls)
    yield "to_csv", lambda: to_csv(ds)
    transform = build_transform(3, 1, [g, g3])
    yield "apply_transform", lambda: apply_transform(
        ds, ["X1", "X2", "X3"], transform)
    fits = []
    yield "fit", lambda: fits.append(fit(ds, "Y", ["X1", "X2", "X3"]))
    if not fits:
        return
    fitted, = fits
    yield "predict", lambda: predict(fitted, {n: ds.column(n)[0]
                                              for n in ds.names})
    yield "residuals", lambda: residuals(fitted, ds)
    yield "map_coefficients", lambda: map_coefficients(
        fitted.coefficients(), transform)
    yield "decompose_coefficients", lambda: decompose_coefficients(
        *fitted.slopes[:2], g, g3)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=ROWS, magnitude=MAGNITUDE,
       columns=st.tuples(COLUMN, COLUMN, COLUMN, COLUMN),
       with_star=st.booleans(), g=GAMMA, g3=GAMMA)
# Data that fit, past a tile and holding X1*, so every call returns once.
@example(seed=1, n=partialreg.ols._TILE_ROWS + 5, magnitude=0,
         columns=(("random", 0, -1e4), ("integers", 3, 0.0),
                  ("random", -2, 1.0), ("random", 0, 0.0)),
         with_star=True, g=0.5, g3=-2.0)
def test_returns_or_raises_a_partialreg_error(seed, n, magnitude, columns,
                                              with_star, g, g3):
    ds = _dataset(seed, n, magnitude, columns, with_star)
    for name, call in _calls(ds, g, g3):
        try:
            call()
        except PartialRegError:
            pass
        except Exception as exc:  # a numpy warning too: filterwarnings = error
            raise AssertionError(
                f"{name} raised {type(exc).__name__}: {exc}") from exc
