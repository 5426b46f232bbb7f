"""The slope of the response on ``x1 - gamma * x2`` as gamma varies.

``a1*(gamma)``, the simple-regression slope of the response on
``x1 - gamma * x2``, is a rational function of gamma with the horizontal
axis as asymptote and (for correlated data) two extrema.  It equals the
multiple slope ``b1`` of ``y ~ x1 + x2`` at exactly ``gamma = c12`` (the
slope of x1 on x2) and ``gamma = -b2/b1``, which :func:`gamma_roots`
returns; :func:`gamma_sweep` and :func:`gamma_surface` tabulate it on
grids, recording any gamma where the combined predictor is constant.

One evaluator serves them all, in the paper's basis: with c the slopes of
x1 on the controls and ``d = c - gamma``, ``x1 - gamma.x = x1* + d.x``, so
``a1* = (cov(x1*, y) + d.cov(x, y)) / (var(x1*) + 2 d.cov(x1*, x) + d'Sd)``
with S the controls' covariance, a denominator that does not cancel near
the root ``d = 0``.  A sweep is a one-control surface: ``transform._family``
gives b1, c and the moments of ``[y, x1*, *controls]`` from one pass over
the rows and one call, so a G x G surface costs O(n + G**2).
:func:`slope_on_gamma` is the evaluator on a one-point grid, bit for bit
the sweep's value; a surface's ``gamma3 = 0`` line expands in another x1*
(residualized on both controls) and matches the sweep to rounding.
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
    SingularDesign,
    ZeroLeadSlope,
)
from .stats import _central_moments
from .transform import _family, _residual, _x1_moments

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
#: below this fraction of ``var(x1*) + sum_j d_j**2 var(x_j)`` (in
#: :func:`combined_slope`, of ``var(x1) + sum_j gamma_j**2 var(x_j)``).
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


def _checked_grid(*axes: Sequence[float]) -> list[np.ndarray]:
    """The axes as float arrays, their product at most MAX_GRID_POINTS."""
    grids = [np.asarray(gammas, dtype=np.float64) for gammas in axes]
    for grid in grids:
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("gamma grid must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(grid)):
            raise ValueError("gamma grid contains a non-finite value")
    sizes = [grid.size for grid in grids]
    if math.prod(sizes) > MAX_GRID_POINTS:
        raise GridTooLarge(
            f"{' x '.join(map(str, sizes))} "
            f"{'sweep' if len(sizes) == 1 else 'surface'} has more than "
            f"{MAX_GRID_POINTS} points")
    return grids


def _slopes(cross: list[list[float]], weights: Sequence[float],
            gammas) -> np.ndarray:
    """a1* at the gammas (one array per control), NaN where the combined
    predictor ``w.(x1*, *controls)``, ``w = (1, d)``, is constant.

    Each point is summed elementwise in one order, whatever the grid, and
    at ``d = 0`` is ``cov(x1*, y) / var(x1*)``, the residualized-slope
    claim's arithmetic.  Raises :class:`SingularDesign` if a part overflows
    the double range, as ``d**2`` does from about ``|gamma| = 1e154`` on.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w = [1.0, *(c - np.asarray(g, dtype=np.float64)
                    for c, g in zip(weights, gammas))]
        numerator = denominator = scale = 0.0
        for i, wi in enumerate(w):
            row = cross[i + 1]
            numerator = numerator + wi * row[0]
            inner = wi * row[i + 1]  # w'Cw, off-diagonal pairs twice
            for j in range(i):
                inner = inner + (2.0 * w[j]) * row[j + 1]
            denominator = denominator + wi * inner
            scale = scale + (wi * wi) * row[i + 1]
    if not np.isfinite((numerator, denominator, scale)).all():
        raise SingularDesign(
            "the slope a1* overflows the double range at these gammas")
    return np.divide(numerator, denominator,
                     out=np.full(np.shape(denominator), np.nan),
                     where=denominator > DENOMINATOR_FLOOR * scale)


def slope_on_gamma(ds: Dataset, response: str, x1: str, x2: str,
                   gamma: float) -> float:
    """Evaluate a1*(gamma), the slope of ``response`` on ``x1 - gamma*x2``:
    :func:`gamma_sweep`'s value at ``gamma``, bit for bit.

    Each call makes one tiled pass over the rows, one x1* build and one
    moment call, as a whole sweep does; to evaluate many gammas, call
    :func:`gamma_sweep` once with all of them.

    Raises
    ------
    ValueError
        If ``gamma`` is not finite, as for a sweep's grid.
    SingularDesign
        Propagated from the fit of ``response`` on ``(x1, x2)``.
    DegenerateDirection
        If ``x1 - gamma * x2`` is constant relative to its scale, which
        no design that fit accepts allows.
    """
    grid = _checked_grid([gamma])
    _, _, weights, _, cross = _family(ds, response, x1, [x2])
    value, = _slopes(cross, weights, grid).tolist()
    if math.isnan(value):
        raise DegenerateDirection(
            f"{x1} - {gamma!r}*{x2} is constant relative to its scale")
    return value


def combined_slope(ds: Dataset, response: str, x1: str,
                   controls: Sequence[str],
                   gammas: Sequence[float]) -> float:
    """Slope of ``response`` on ``x1 - sum_j gammas[j] * controls[j]``.

    The data route, read from the moments of the column built as
    ``residualize_with`` builds it: cross-checking it against the closed
    form is a test, so they share the moment routine, not the formula.  Its
    floor's scale, ``var(x1) + sum_j gammas[j]**2 var(x_j)``, grows with
    the gammas.
    """
    controls = list(controls)
    gammas = [float(g) for g in gammas]
    if len(controls) != len(gammas):
        raise LengthMismatch(
            f"{len(controls)} controls but {len(gammas)} gammas")
    moments = _central_moments([ds.column(c) for c in (x1, *controls)],
                               [x1, *controls])[1]
    name, _, combined = _residual(ds, x1, controls, gammas)
    scale = moments[0][0]
    for i, g in enumerate(gammas, start=1):
        scale += (g * g) * moments[i][i]
    if not math.isfinite(scale):
        raise SingularDesign(f"the variance scale of {name!r} "
                             f"overflows the double range")
    cross = _central_moments([combined, ds.column(response)],
                             [name, response])[1]
    if cross[0][0] <= DENOMINATOR_FLOOR * scale:
        raise DegenerateDirection(
            f"{x1} - {gammas}*{controls} is constant "
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
    full, _, weights, _, cross = _family(ds, response, x1, [x2])
    return _roots(full, weights, cross)


def _roots(full, weights, cross) -> tuple[float, ...]:
    """:func:`gamma_roots` from :func:`_family`'s fit, x1*'s weights and
    moments; ``var(x1)`` follows from x1*'s moments by the transform law."""
    (c12,) = weights
    var_x1 = _x1_moments(cross, c12)[1]
    x1, (b1, b2) = full.predictors[0], full.slopes
    slope_scale = max(1.0, math.sqrt(cross[0][0]) / math.sqrt(var_x1))
    if abs(b1) <= _LEAD_SLOPE_FLOOR * slope_scale:
        raise ZeroLeadSlope(
            f"slope on {x1!r} is {b1!r}, within rounding of zero; "
            f"-b2/b1 is undefined")
    second = -b2 / b1
    if abs(c12 - second) <= _ROOT_MERGE_SPACING:
        return (c12,)
    return tuple(sorted((c12, second)))


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


def _tabulate(ds: Dataset, response: str, x1: str, controls: list[str],
              grids: list[np.ndarray]) -> GammaSweep:
    """a1* over the row-major product of ``grids``, one per control,
    annotated with the roots once each reproduces b1; points where the
    combined predictor is constant are skipped and recorded."""
    full, _, weights, _, cross = _family(ds, response, x1, controls)
    b1, roots = full.slopes[0], (weights,)
    if len(controls) == 1:
        try:
            roots = tuple((root,) for root in _roots(full, weights, cross))
        except ZeroLeadSlope:
            pass  # c12 remains
    bound = ROOT_MATCH_TOLERANCE * max(1.0, abs(b1))
    at_roots = _slopes(cross, weights, np.transpose(roots)).tolist()
    for root, value in zip(roots, at_roots):
        if not abs(value - b1) <= bound:  # so an undefined (NaN) root too
            raise NumericalOvershoot(
                f"slope at root {root} is {value!r}, expected {b1!r} "
                f"within {bound:.3g}; the data are too ill conditioned "
                f"for a trustworthy sweep annotation")
    axes = np.meshgrid(*grids, indexing="ij")
    values = _slopes(cross, weights, axes)
    defined = ~np.isnan(values)
    return GammaSweep(
        axis_names=("gamma", "gamma3")[:len(grids)],
        grids=tuple(tuple(grid.tolist()) for grid in grids),
        points=tuple(zip(*(axis[defined].tolist() for axis in axes))),
        values=tuple(values[defined].tolist()),
        reference_slope=b1,
        roots=roots,
        undefined_points=tuple(zip(*(axis[~defined].tolist()
                                     for axis in axes))),
    )


def gamma_sweep(ds: Dataset, response: str, x1: str, x2: str,
                gammas: Sequence[float]) -> GammaSweep:
    """Tabulate a1*(gamma) on a grid, annotated with its roots.

    ``reference_slope`` is the multiple-regression slope of ``response`` on
    ``(x1, x2)``; the sweep is a one-control :func:`gamma_surface`.  Grid
    points with a constant combined predictor are skipped and recorded,
    never interpolated.  If the lead slope is zero (so ``-b2/b1`` does not
    exist) the sweep still carries the remaining root ``c12``.  More than
    :data:`MAX_GRID_POINTS` raise GridTooLarge.
    """
    return _tabulate(ds, response, x1, [x2], _checked_grid(gammas))


def gamma_surface(ds: Dataset, response: str, x1: str,
                  controls: Sequence[str],
                  gammas2: Sequence[float],
                  gammas3: Sequence[float]) -> GammaSweep:
    """Tabulate the two-control slope surface a1*(gamma2, gamma3).

    The value at ``(g2, g3)`` is the simple-regression slope of
    ``response`` on ``x1 - g2*controls[0] - g3*controls[1]``; at
    ``(c12, c13)``, the slopes of ``x1`` on the controls, it equals the
    three-predictor multiple slope ``b1``, and that point is the surface's
    root annotation, checked as the residualized-slope claim: there the
    value is the simple slope on x1*.  Points are row-major: ``gamma3``
    varies fastest.  More than :data:`MAX_GRID_POINTS` raise GridTooLarge.
    """
    controls = list(controls)
    if len(controls) != 2:
        raise LengthMismatch(
            f"surface needs exactly 2 controls, got {len(controls)}")
    return _tabulate(ds, response, x1, controls,
                     _checked_grid(gammas2, gammas3))
