"""Identities connecting simple, multiple, and residualized-fit slopes.

Every claim here is an exact algebraic identity of least-squares fits, so
on well-conditioned data a failure at the default tolerance means a bug,
not noise.  The checks:

``residualized_slope_*``
    The multiple-regression slope on ``x1`` equals the simple-regression
    slope of the response on ``x1`` residualized against the controls.
``residual_uncorrelated_with_controls``
    That residualized predictor has multiple correlation ~0 with the
    controls.
``controls_have_zero_slope_on_residual``
    (Two controls.)  Regressing either control on the residualized
    predictor plus the other control puts ~0 slope on the residual.
``mapped_coefficients_match_refit``
    Transforming fitted coefficients with the inverse predictor transform
    reproduces a fresh fit on the transformed columns.
``two_predictor_slope_relations``
    (One control.)  With simple slopes ``a1, a2``, cross-fit slopes
    ``c12, c21`` and multiple slopes ``b1, b2``:
    ``b1*c12 = a2 - b2``, ``b2*c21 = a1 - b1``, and ``c12*c21 = r**2``.
``aggregation_recovers_subset_slopes``
    Slopes of the fit on a predictor subset equal the full-model slopes
    contracted with the matrix of predictor-on-subset slopes.

The suite makes one pass over the rows, ``[x1, *controls, y]``, and one
moment call.  The R gives the collinearity gate and the full, subset and
auxiliary fits, the last giving x1*'s weights c.  Since
``[1, x1*, *controls, y]`` is that design times a small matrix T, the
paper's transform law, the R of the x1* design is the R of ``R T``: the
refit reads that derived R.  x1* is still built as data, and the moments
of ``[y, x1*, *controls]`` serve the residualized slope, the multiple
correlation of x1* with the controls, the zero slopes and, with one
control, the slope relations, which read x1's moments off x1*'s by the
same law.  So those four claims compare R with x1*'s moments.  The refit
claim compares the derived R with ``build_transform``'s map, and the
aggregation claim reads the first R alone: it is kept as a consistency
check of the solves, since a moment-route side for it is not accurate
enough on near-collinear controls.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import (
    CollinearPredictors,
    NonCanonicalSubsetRows,
    PartialRegError,
    ShapeMismatch,
    SingularDesign,
)
from .ols import CONDITION_LIMIT, _factor, _simple_from_moments, _solve
from .stats import _correlations, _multiple_correlation
from .transform import _family, _x1_moments, build_transform, map_coefficients

__all__ = [
    "DEFAULT_TOLERANCE",
    "VerificationReport",
    "verify_residualized_slope",
    "aggregate_coefficients",
    "decompose_coefficients",
    "run_verification_suite",
]

#: Default claim tolerance, applied relative to ``max(1, |lhs|)``.
DEFAULT_TOLERANCE = 1e-8

#: How exactly a kept predictor's row must be a unit row.
_UNIT_ROW_TOLERANCE = 1e-10

#: Proportional-predictor gate on ``1 - c12*c21`` (equivalently 1 - r**2).
_PROPORTIONALITY_FLOOR = 1e-12


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one identity.

    ``lhs`` and ``rhs`` hold the compared numbers (tuples even when the
    claim compares scalars), ``abs_diff`` their largest absolute
    difference, and ``tolerance`` the absolute bound actually applied, so
    ``passed == (abs_diff <= tolerance)`` always holds.
    """

    claim: str
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    abs_diff: float
    tolerance: float
    passed: bool


def _checked_tolerance(tolerance: float) -> float:
    """Return ``tolerance``; raise ValueError unless finite and positive."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(
            f"tolerance must be finite and positive, got {tolerance}")
    return tolerance


def _report(claim: str, lhs, rhs, tolerance: float) -> VerificationReport:
    lhs_t = tuple(float(v) for v in np.atleast_1d(lhs))
    rhs_t = tuple(float(v) for v in np.atleast_1d(rhs))
    if len(lhs_t) != len(rhs_t):
        raise ShapeMismatch(
            f"claim {claim!r} compares {len(lhs_t)} values to {len(rhs_t)}")
    abs_diff = max(abs(l - r) for l, r in zip(lhs_t, rhs_t))
    bound = tolerance * max(1.0, max(abs(v) for v in lhs_t))
    return VerificationReport(
        claim=claim,
        lhs=lhs_t,
        rhs=rhs_t,
        abs_diff=abs_diff,
        tolerance=bound,
        passed=abs_diff <= bound,
    )


def _claim_name(control_count: int) -> str:
    if control_count == 1:
        return "residualized_slope_one_control"
    if control_count == 2:
        return "residualized_slope_two_controls"
    return "residualized_slope_many_controls"


def _residualized_report(full, residual, means, cross,
                         tolerance: float) -> VerificationReport:
    """The residualized-slope claim from :func:`_family`'s output, its
    simple slope taken from the moments of ``[response, x1*, ...]``."""
    simple = _simple_from_moments(means, cross, 0, 1, residual.name)[1]
    return _report(_claim_name(len(residual.controls)),
                   full.slopes[0], simple, tolerance)


def verify_residualized_slope(ds: Dataset, response: str, x1: str,
                              controls: Sequence[str],
                              tolerance: float = DEFAULT_TOLERANCE
                              ) -> VerificationReport:
    """Check multiple slope == simple slope on the residualized predictor.

    ``lhs`` is the slope on ``x1`` in the fit of ``response`` on
    ``[x1, *controls]``; ``rhs`` is the slope of the simple fit of
    ``response`` on ``x1`` residualized against the controls.  Raises
    ValueError unless ``tolerance`` is finite and positive and some control
    is given.
    """
    _checked_tolerance(tolerance)
    controls = list(controls)
    if not controls:
        raise ValueError("need at least one control")
    return _residualized_report(
        *_family(ds, response, x1, controls, pairs=[(0, 1)]), tolerance)


def aggregate_coefficients(slopes: Sequence[float],
                           coefficient_matrix) -> tuple[float, ...]:
    """Slopes on a predictor subset from the full-model slopes.

    ``coefficient_matrix`` has one row per full-model predictor and one
    column per kept predictor; entry (i, j) is the slope of predictor i in
    the fit of predictor i on the kept set.  Rows belonging to kept
    predictors are therefore unit rows, which is checked: every column j
    must contain some row equal to the j-th unit row (unit rows for
    different columns can never collide, so no further bookkeeping is
    needed).  The result is the vector-matrix product
    ``slopes @ coefficient_matrix``; no data access happens here.

    Raises
    ------
    ShapeMismatch
        If the matrix is not 2-d with one row per slope, or is wider than
        it is tall.
    NonCanonicalSubsetRows
        If some column has no unit row, i.e. the matrix cannot have come
        from fits onto a subset of the same predictor set.
    """
    b = np.asarray([float(v) for v in slopes])
    matrix = np.asarray(coefficient_matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ShapeMismatch(
            f"coefficient matrix must be 2-d, got shape {matrix.shape}")
    rows, cols = matrix.shape
    if rows != b.size:
        raise ShapeMismatch(
            f"{b.size} slopes but coefficient matrix has {rows} rows")
    if cols > rows:
        raise ShapeMismatch(
            f"subset of {cols} predictors cannot exceed the full {rows}")
    for j in range(cols):
        unit = np.zeros(cols)
        unit[j] = 1.0
        deviations = np.max(np.abs(matrix - unit), axis=1)
        if not np.any(deviations <= _UNIT_ROW_TOLERANCE):
            raise NonCanonicalSubsetRows(
                f"no row of the coefficient matrix is the unit row for "
                f"kept predictor {j}; rows for kept predictors must be "
                f"unit rows")
    return tuple(float(v) for v in b @ matrix)


def decompose_coefficients(a1: float, a2: float, c12: float, c21: float
                           ) -> tuple[float, float]:
    """Two-predictor multiple slopes from simple and cross-fit slopes.

    Inverts the aggregation identities ``a1 = b1 + b2*c21`` and
    ``a2 = b1*c12 + b2``::

        b1 = (a1 - a2*c21) / (1 - c12*c21)
        b2 = (a2 - a1*c12) / (1 - c12*c21)

    Since ``c12*c21 = r**2``, the denominator vanishes exactly when the
    two predictors are proportional, and :class:`CollinearPredictors` is
    raised.
    """
    determinant = 1.0 - float(c12) * float(c21)
    if abs(determinant) <= _PROPORTIONALITY_FLOOR:
        raise CollinearPredictors(
            f"1 - c12*c21 = {determinant!r}; the predictors are "
            f"proportional and the slopes are not identifiable")
    b1 = (float(a1) - float(a2) * float(c21)) / determinant
    b2 = (float(a2) - float(a1) * float(c12)) / determinant
    return (b1, b2)


@contextmanager
def _tag_claim(claim: str):
    """Annotate library errors in place with the claim being checked."""
    try:
        yield
    except PartialRegError as exc:
        exc.args = (f"while checking {claim}: {exc}", *exc.args[1:])
        raise


def run_verification_suite(ds: Dataset, response: str, x1: str,
                           controls: Sequence[str],
                           tolerance: float = DEFAULT_TOLERANCE
                           ) -> list[VerificationReport]:
    """Check every identity applicable to this response/predictor split.

    Always includes the residualized-slope claim, the zero-correlation
    claim, and the transform/refit claim; adds the two-predictor slope
    relations with one control, and the zero-slope-on-residual claim with
    two.  The aggregation claim (subset = controls) closes the list.

    The suite passes iff every report's ``passed`` flag is true.

    Raises
    ------
    ValueError
        If ``tolerance`` is not finite and positive, or no control is given.
    CollinearPredictors
        If any two of ``[x1, *controls]`` are proportional
        (``|pearson_r| >= 1 - 1e-12``), or if ``response`` is ``x1``; no
        report is produced because no claim is well posed in that case.
    SingularDesign
        If a predictor is constant (to working precision: its standard
        deviation is at most 1e-12 of its |mean|) or the data overflow the
        double range, before any claim; otherwise propagated from an inner
        fit, annotated with the claim it arose in.
    """
    return _suite(ds, response, x1, controls, tolerance)[0]


def _predictor_correlations(r: np.ndarray, response: str,
                            names: list[str]) -> np.ndarray:
    """Correlation matrix of the predictors ``names`` from the R of
    ``[1, *names, response]``.

    Column j of R is predictor j's column rotated by Q', and its first
    entry is sqrt(n) times the predictor's mean, so the Gram matrix of the
    block ``R[1:k+1, 1:k+1]`` is n times the predictors' centered cross
    moments (Björck 1996).

    Raises :class:`SingularDesign` if R or that Gram matrix overflows the
    double range, or if a predictor's standard deviation is at most
    1/CONDITION_LIMIT of its |mean|, which puts the design's condition at
    or above the limit.
    """
    design = f"{response!r} ~ {names}"
    overflow = f"design for {design} overflows the double range"
    if not np.all(np.isfinite(r)):
        raise SingularDesign(overflow)
    block = r[1:len(names) + 1, 1:len(names) + 1]
    with np.errstate(over="ignore"):
        cross = block.T @ block
    if not np.all(np.isfinite(cross)):
        raise SingularDesign(overflow)
    for j, name in enumerate(names):
        if math.sqrt(cross[j, j]) * CONDITION_LIMIT <= abs(r[0, j + 1]):
            raise SingularDesign(
                f"column {name!r} is constant to working precision, so the "
                f"design for {design} has condition at least "
                f"{CONDITION_LIMIT:.0e}")
    return _correlations(cross.tolist(), names)


def _residualized_r(r: np.ndarray,
                    coefficients: Sequence[float]) -> np.ndarray:
    """R of ``[1, x1*, *controls, y]`` from the R of ``[1, x1, *controls,
    y]``, where ``x1* = x1 - sum_j coefficients[j] * controls[j]``.

    That design is the first one times T, the identity with ``-c_j`` in
    column 1 at row ``1 + j``, so if the first is Q R, the second is
    Q (R T), and the R of the small ``R T`` is its R: the paper's transform
    law applied to the factor, at no pass over the rows."""
    t = np.eye(r.shape[1])
    t[2:2 + len(coefficients), 1] = np.negative(coefficients)
    return np.linalg.qr(r @ t, mode="r")


def _slope_on_residual(cross: list[list[float]], control: int,
                       other: int) -> float:
    """Slope on x1* of the fit of control ``control`` on x1* and control
    ``other``, from the centered moments of ``[x1*, *controls, ...]``.

    Partialling ``other`` out of both sides (Frisch-Waugh) leaves a simple
    slope.  It reads x1*'s data, not R, so a fault in the pass or in the
    weights that built x1* shows here."""
    partial = cross[0][other] / cross[other][other]
    return ((cross[0][control] - partial * cross[other][control])
            / (cross[0][0] - partial * cross[0][other]))


def _suite(ds: Dataset, response: str, x1: str, controls: Sequence[str],
           tolerance: float):
    """The suite's reports and :func:`_family`'s output."""
    _checked_tolerance(tolerance)
    controls = list(controls)
    if not controls:
        raise ValueError("need at least one control")
    names = [x1, *controls]
    r_raw = _factor(ds, [*names, response])
    corr = _predictor_correlations(r_raw, response, names)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            r = float(corr[i, j])
            if abs(r) >= 1.0 - 1e-12:
                raise CollinearPredictors(
                    f"columns {names[i]!r} and {names[j]!r} are "
                    f"proportional (|r| = {abs(r)!r})")
    if response == x1:
        raise CollinearPredictors(
            f"response {response!r} is also x1; the transformed data "
            f"would rewrite it")

    # With one control the slope relations read cov(y, x2); with more, no
    # claim reads cov(y, x_j), so those products are not computed.
    pairs = None if len(controls) == 1 else [
        (0, 1), *itertools.combinations(range(1, len(names) + 1), 2)]
    with _tag_claim(_claim_name(len(controls))):
        family = _family(ds, response, x1, controls, r_raw, pairs)
        full, residual, _, cross = family
        reports = [_residualized_report(*family, tolerance)]
    union = [residual.name, *controls, response]
    star_cross = [row[1:] for row in cross[1:]]  # of [x1*, *controls]

    with _tag_claim("residual_uncorrelated_with_controls"):
        rho = _multiple_correlation(star_cross, union[:-1])
        reports.append(_report("residual_uncorrelated_with_controls",
                               rho, 0.0, tolerance))

    if len(controls) == 2:
        with _tag_claim("controls_have_zero_slope_on_residual"):
            reports.append(_report("controls_have_zero_slope_on_residual",
                                   (_slope_on_residual(star_cross, 2, 1),
                                    _slope_on_residual(star_cross, 1, 2)),
                                   (0.0, 0.0), tolerance))

    with _tag_claim("mapped_coefficients_match_refit"):
        mapped = map_coefficients(full.coefficients(), build_transform(
            len(names), 1, residual.control_coefficients))
        # T is built from residualize_with's weights, not from this
        # transform, so a fault in build_transform stays visible.
        r_star = _residualized_r(r_raw, residual.control_coefficients)
        refit = _solve(r_star, union, len(names), range(len(names)))
        reports.append(_report("mapped_coefficients_match_refit",
                               mapped, refit.coefficients(), tolerance))

    if len(controls) == 1:
        with _tag_claim("two_predictor_slope_relations"):
            # x1's moments follow from x1*'s; c cancels, since x1* was
            # built with it, so this side reads x1*'s data, not R.
            cov1y, var1, cov12 = _x1_moments(
                cross, *residual.control_coefficients)
            cov2y, var2 = cross[0][2], cross[2][2]
            r = float(_correlations([[var1, cov12], [cov12, var2]],
                                    names)[0, 1])
            a1, a2 = cov1y / var1, cov2y / var2
            c12, c21 = cov12 / var2, cov12 / var1
            b1, b2 = full.slopes
            reports.append(_report(
                "two_predictor_slope_relations",
                (b1 * c12, b2 * c21, c12 * c21),
                (a2 - b2, a1 - b1, r * r),
                tolerance))

    with _tag_claim("aggregation_recovers_subset_slopes"):
        matrix = np.vstack([residual.control_coefficients,
                            np.eye(len(controls))])
        aggregated = aggregate_coefficients(full.slopes, matrix)
        subset = _solve(r_raw, [*names, response], len(names),
                        range(1, len(names)))
        reports.append(_report("aggregation_recovers_subset_slopes",
                               aggregated, subset.slopes, tolerance))

    return reports, family
