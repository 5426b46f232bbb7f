"""The slope of the response on ``x1 - gamma * x2`` as gamma varies.

Write ``a1*(gamma)`` for the simple-regression slope of the response on the
combined predictor ``x1 - gamma * x2``.  In population moments::

    a1*(gamma) = (cov(x1, y) - gamma * cov(x2, y))
                 / (var(x1) - 2 * gamma * cov(x1, x2) + gamma**2 * var(x2))

a rational function of gamma with the horizontal axis as asymptote and (for
correlated data) two extrema.  Its defining property is that it equals the
multiple-regression slope ``b1`` of ``y ~ x1 + x2`` at exactly two points:
``gamma = c12`` (the slope of x1 on x2, i.e. genuine residualization) and
``gamma = -b2/b1``.  :func:`gamma_roots` returns those two closed forms;
:func:`gamma_sweep` and :func:`gamma_surface` tabulate the function on
grids for plotting, skipping (and recording) any gamma where the combined
predictor is constant.

With a second control, a1*(gamma, gamma3) on ``x1 - gamma*x2 - gamma3*x3``
is the same rational function with the third column's terms appended.  The
scalar, sweep and surface evaluators, and the root ``c12``, read one matrix
of centered moments per call, so a G x G surface costs O(n + G**2) and never
rebuilds the combined column; a sweep value at gamma and a surface value at
``(gamma, 0)`` are bit-identical to ``slope_on_gamma`` at the same gamma.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import (
    DegenerateDirection,
    GridTooLarge,
    LengthMismatch,
    NumericalOvershoot,
    ZeroLeadSlope,
)
from .ols import RegressionFit, fit
from .stats import _central_moments
from .transform import _residualized, residualize_with

__all__ = [
    "DENOMINATOR_FLOOR",
    "MAX_GRID_POINTS",
    "ROOT_MATCH_TOLERANCE",
    "GammaSweep",
    "grid_points",
    "slope_on_gamma",
    "combined_slope",
    "gamma_roots",
    "gamma_sweep",
    "gamma_surface",
]

#: The combined predictor counts as constant when its variance is at or
#: below this fraction of the variance scale ``var(x1) + gamma**2 var(x2)``.
DENOMINATOR_FLOOR = 1e-12

#: A listed root must reproduce the reference slope this closely
#: (relative to ``max(1, |b1|)``).
ROOT_MATCH_TOLERANCE = 1e-8

#: Largest grid (points per sweep, or per surface) the evaluators accept.
MAX_GRID_POINTS = 10**6

#: Roots closer together than this collapse to a single listed root.
_ROOT_MERGE_SPACING = 1e-10

#: Relative floor under which the lead slope b1 counts as zero.
_LEAD_SLOPE_FLOOR = 1e-12


def grid_points(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive grid ``lo, lo + step, ..., hi`` as a float array.

    The count is computed once from the range, with a small forgiveness
    term so that ranges like [-2, 2] with step 0.01 include both ends
    despite binary rounding.  It is checked against
    :data:`MAX_GRID_POINTS` before anything is allocated.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise ValueError("grid bounds and step must be finite")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"empty range: max {hi} < min {lo}")
    steps = (hi - lo) / step + 1e-9
    # Written so that a range too wide for a float count (inf) fails too.
    if not steps < MAX_GRID_POINTS:
        raise GridTooLarge(
            f"grid {lo}..{hi} step {step} has more than "
            f"{MAX_GRID_POINTS} points")
    return lo + step * np.arange(math.floor(steps) + 1)


def _checked_grid(gammas: Sequence[float]) -> np.ndarray:
    grid = np.asarray(gammas, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("gamma grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(grid)):
        raise ValueError("gamma grid contains a non-finite value")
    return grid


def _rational_parts(moments: list[list[float]], gamma, gamma3=None):
    """Numerator, denominator, and denominator scale of a1*, from the
    centered moments of ``(response, x1, x2[, x3])``.

    ``gamma`` (and ``gamma3``) may be floats or broadcastable arrays; the
    expression is written once so every path rounds identically.  The third
    control's terms come after the first's, so at ``gamma3 == 0`` they add
    exact zeros and the result is bit-identical to the one-control value.
    """
    c1y, c2y, v1, c12, v2 = (moments[0][1], moments[0][2], moments[1][1],
                             moments[1][2], moments[2][2])
    numerator = c1y - gamma * c2y
    denominator = v1 - (2.0 * gamma) * c12 + (gamma * gamma) * v2
    scale = v1 + (gamma * gamma) * v2
    if gamma3 is not None:
        c3y, c13, c23, v3 = moments[3]  # the x3 row
        numerator = numerator - gamma3 * c3y
        denominator = (denominator - (2.0 * gamma3) * c13
                       + (2.0 * gamma * gamma3) * c23
                       + (gamma3 * gamma3) * v3)
        scale = scale + (gamma3 * gamma3) * v3
    return numerator, denominator, scale


def _slope_from_moments(moments: list[list[float]], gamma: float,
                        x1: str, x2: str) -> float:
    numerator, denominator, scale = _rational_parts(moments, gamma)
    if denominator <= DENOMINATOR_FLOOR * scale:
        raise DegenerateDirection(
            f"{x1} - {gamma!r}*{x2} is constant "
            f"(variance {denominator!r})")
    return numerator / denominator


def slope_on_gamma(ds: Dataset, response: str, x1: str, x2: str,
                   gamma: float) -> float:
    """Evaluate a1*(gamma), the slope of ``response`` on ``x1 - gamma*x2``.

    Raises
    ------
    DegenerateDirection
        If ``var(x1 - gamma * x2)`` is zero relative to its scale, i.e. the
        combined predictor is constant at this gamma.
    """
    moments = _central_moments(ds, [response, x1, x2])[1]
    return _slope_from_moments(moments, float(gamma), x1, x2)


def combined_slope(ds: Dataset, response: str, x1: str,
                   controls: Sequence[str],
                   gammas: Sequence[float]) -> float:
    """Slope of ``response`` on ``x1 - sum_j gammas[j] * controls[j]``.

    The general-k companion of :func:`slope_on_gamma`, read from the moments
    of the column ``residualize_with`` builds, not from the rational
    function.  With one control the two agree to rounding; cross-checking
    them is a test, so they share the moment routine, not the formula.
    """
    controls = list(controls)
    gammas = [float(g) for g in gammas]
    if len(controls) != len(gammas):
        raise LengthMismatch(
            f"{len(controls)} controls but {len(gammas)} gammas")
    moments = _central_moments(ds, [x1, *controls])[1]
    residual = residualize_with(ds, x1, controls, gammas)
    return _combined_slope(residual.merged_into(ds), response, residual,
                           [moments[i][i] for i in range(len(moments))])


def _combined_slope(augmented: Dataset, response: str, residual,
                    variances: list[float]) -> float:
    """Slope of ``response`` on the ``ResidualizedVariable`` that
    ``augmented`` holds, given the variances of ``[target, *controls]``,
    the scale of its constant-predictor floor."""
    scale = variances[0]
    for variance, g in zip(variances[1:], residual.control_coefficients):
        scale += (g * g) * variance
    cross = _central_moments(augmented, [residual.name, response])[1]
    if cross[0][0] <= DENOMINATOR_FLOOR * scale:
        raise DegenerateDirection(
            f"{residual.target} - {list(residual.control_coefficients)}*"
            f"{list(residual.controls)} is constant "
            f"(variance {cross[0][0]!r})")
    return cross[0][1] / cross[0][0]


def gamma_roots(ds: Dataset, response: str, x1: str, x2: str
                ) -> tuple[float, ...]:
    """The gammas at which a1*(gamma) equals the multiple slope b1.

    Returns the closed forms ``c12`` (slope of ``x1`` on ``x2``) and
    ``-b2/b1``, sorted ascending; if they land within 1e-10 of each other
    (the double-root case) a single value is returned.

    Raises
    ------
    SingularDesign
        Propagated from the underlying fit of ``response ~ x1 + x2``.
    ZeroLeadSlope
        If ``|b1|`` is zero relative to the natural slope scale
        ``sd(response)/sd(x1)``, making ``-b2/b1`` undefined.
    """
    return _roots_from_fit(fit(ds, response, (x1, x2)),
                           _central_moments(ds, [response, x1, x2])[1])


def _roots_from_fit(full: RegressionFit, moments: list[list[float]]
                    ) -> tuple[float, ...]:
    """:func:`gamma_roots` given the fit of the response on ``(x1, x2)``
    and the moments of ``(response, x1, x2)``."""
    x1, (b1, b2) = full.predictors[0], full.slopes
    slope_scale = max(1.0, math.sqrt(moments[0][0])
                      / math.sqrt(moments[1][1]))
    if abs(b1) <= _LEAD_SLOPE_FLOOR * slope_scale:
        raise ZeroLeadSlope(
            f"slope on {x1!r} is {b1!r}, within rounding of zero; "
            f"-b2/b1 is undefined")
    first = moments[1][2] / moments[2][2]  # c12, the slope of x1 on x2
    second = -b2 / b1
    if abs(first - second) <= _ROOT_MERGE_SPACING:
        return (first,)
    return tuple(sorted((first, second)))


@dataclass(frozen=True)
class GammaSweep:
    """Tabulated a1* values over a gamma grid (one or two axes).

    ``points`` lists the grid points (as coordinate tuples, row-major with
    the last axis fastest) where the slope is defined, parallel to
    ``values``; ``undefined_points`` lists the grid points skipped because
    the combined predictor was constant there.  Together they partition the
    full grid.  ``roots`` are gamma points at which the tabulated function
    provably equals ``reference_slope``; builders verify that before
    constructing the sweep.
    """

    axis_names: tuple[str, ...]
    grids: tuple[tuple[float, ...], ...]
    points: tuple[tuple[float, ...], ...]
    values: tuple[float, ...]
    reference_slope: float
    roots: tuple[tuple[float, ...], ...]
    undefined_points: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.axis_names) != len(self.grids):
            raise LengthMismatch(
                f"{len(self.axis_names)} axis names but "
                f"{len(self.grids)} grids")
        if len(self.points) != len(self.values):
            raise LengthMismatch(
                f"{len(self.points)} points but {len(self.values)} values")
        total = math.prod(len(g) for g in self.grids)
        if len(self.points) + len(self.undefined_points) != total:
            raise LengthMismatch(
                f"{len(self.points)} defined + "
                f"{len(self.undefined_points)} undefined points do not "
                f"cover the {total}-point grid")
        width = len(self.axis_names)
        for point in (*self.points, *self.undefined_points, *self.roots):
            if len(point) != width:
                raise LengthMismatch(
                    f"point {point} does not have {width} coordinates")


def _check_root(value: float, reference_slope: float, point: tuple) -> None:
    bound = ROOT_MATCH_TOLERANCE * max(1.0, abs(reference_slope))
    if abs(value - reference_slope) > bound:
        raise NumericalOvershoot(
            f"slope at root {point} is {value!r}, expected "
            f"{reference_slope!r} within {bound:.3g}; the data are too ill "
            f"conditioned for a trustworthy sweep annotation")


def _tabulate(moments: list[list[float]], axis_names: tuple[str, ...],
              grids: tuple[np.ndarray, ...], reference_slope: float,
              roots: tuple[tuple[float, ...], ...]) -> GammaSweep:
    """a1* over the row-major product of ``grids``; points where the
    combined predictor is constant are skipped and recorded."""
    axes = np.meshgrid(*grids, indexing="ij")
    numerator, denominator, scale = _rational_parts(moments, *axes)
    defined = denominator > DENOMINATOR_FLOOR * scale
    return GammaSweep(
        axis_names=axis_names,
        grids=tuple(tuple(grid.tolist()) for grid in grids),
        points=tuple(zip(*(axis[defined].tolist() for axis in axes))),
        values=tuple((numerator[defined] / denominator[defined]).tolist()),
        reference_slope=reference_slope,
        roots=roots,
        undefined_points=tuple(zip(*(axis[~defined].tolist()
                                     for axis in axes))),
    )


def gamma_sweep(ds: Dataset, response: str, x1: str, x2: str,
                gammas: Sequence[float]) -> GammaSweep:
    """Tabulate a1*(gamma) on a grid, annotated with its roots.

    ``reference_slope`` is the multiple-regression slope of ``response`` on
    ``(x1, x2)``.  Grid points with a constant combined predictor are
    skipped and recorded, never interpolated.  If the lead slope is zero
    (so ``-b2/b1`` does not exist) the sweep still carries the remaining
    root ``c12``.
    """
    grid = _checked_grid(gammas)
    full = fit(ds, response, (x1, x2))
    reference_slope = full.slopes[0]
    moments = _central_moments(ds, [response, x1, x2])[1]
    try:
        roots = _roots_from_fit(full, moments)
    except ZeroLeadSlope:
        roots = (moments[1][2] / moments[2][2],)
    for root in roots:
        _check_root(_slope_from_moments(moments, root, x1, x2),
                    reference_slope, (root,))
    return _tabulate(moments, ("gamma",), (grid,), reference_slope,
                     tuple((float(r),) for r in roots))


def gamma_surface(ds: Dataset, response: str, x1: str,
                  controls: Sequence[str],
                  gammas2: Sequence[float],
                  gammas3: Sequence[float]) -> GammaSweep:
    """Tabulate the two-control slope surface a1*(gamma2, gamma3).

    The value at ``(g2, g3)`` is the simple-regression slope of
    ``response`` on ``x1 - g2*controls[0] - g3*controls[1]``; at
    ``(c12, c13)``, the slopes of ``x1`` on the controls, it equals the
    three-predictor multiple slope ``b1``, and that point is the surface's
    root annotation.  ``b1``, the root and x1* come from one pass over the
    rows, the values from one moment call, and the root check is the
    residualized-slope claim at the root.  Points are row-major: ``gamma3``
    varies fastest.  More than :data:`MAX_GRID_POINTS` raise GridTooLarge.
    """
    controls = list(controls)
    if len(controls) != 2:
        raise LengthMismatch(
            f"surface needs exactly 2 controls, got {len(controls)}")
    grid2, grid3 = _checked_grid(gammas2), _checked_grid(gammas3)
    if grid2.size * grid3.size > MAX_GRID_POINTS:
        raise GridTooLarge(f"{grid2.size} x {grid3.size} surface has more "
                           f"than {MAX_GRID_POINTS} points")
    # Moments first, so x1* is not alive while they center four columns.
    moments = _central_moments(ds, [response, x1, *controls])[1]
    full, residual, augmented = _residualized(ds, response, x1, controls)
    root = residual.control_coefficients
    _check_root(_combined_slope(augmented, response, residual,
                                [moments[i][i] for i in (1, 2, 3)]),
                full.slopes[0], root)
    return _tabulate(moments, ("gamma", "gamma3"), (grid2, grid3),
                     full.slopes[0], (root,))
