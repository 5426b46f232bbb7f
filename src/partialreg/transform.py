"""Residualized predictors and linear predictor transforms.

Orientation convention, used everywhere in this module: an observation is
the row vector ``(1, x1, ..., xk)`` and a transform acts by right
multiplication.  New predictor ``j`` is therefore assembled from the
weights in **column** ``j`` of ``gamma``::

    new_j = sum_i gamma[i, j] * old_i

and a coefficient column vector ``(b0, b1, ..., bk)`` moves the opposite
way: the intercept is untouched and the slopes are multiplied by
``gamma^-1``.  Fitting on transformed columns and transforming the
coefficients of the original fit must land on the same numbers; that
round trip is what :func:`map_coefficients` is for.

One routine builds every combined column, residualized, transformed or fed
to ``gamma.combined_slope``, so equal weights give equal bits on every route.
``_family`` owns x1*, the paper's new variable: b1, x1's slopes c and x1*
from one R, and the moments of ``[y, x1*, *controls]`` from one call that
computes every variance and only the covariances its caller reads;
``_x1_moments`` reads x1's moments off those by the transform law.  x1* is
built in ``k + 2`` passes over the rows for ``k`` controls and is not
scanned for non-finite values: the overflow flags of its build stand in.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields

import numpy as np

from .dataset import Dataset, _freeze, _frozen
from .errors import (
    CollinearPredictors,
    IndexOutOfRange,
    LengthMismatch,
    ShapeMismatch,
    SingularDesign,
    SingularTransform,
)
from .ols import _factor, _solve, fit
from .stats import _central_moments

__all__ = [
    "PredictorTransform",
    "ResidualizedVariable",
    "residualize",
    "residualize_with",
    "build_transform",
    "apply_transform",
    "map_coefficients",
]

#: Singular-value ratio below which an equilibrated transform is rejected.
_SINGULAR_FLOOR = 1e-12


def _combination(ds: Dataset, names: Sequence[str],
                 weights: Sequence[float]) -> np.ndarray:
    """``sum_i weights[i] * column(names[i])`` over the nonzero weights, in
    order, as a new frozen array; ``1.0*x + (-c)*y`` rounds as ``x - c*y``.

    A unit first weight is folded into the first add: ``1.0*x`` is ``x``
    exactly and addition commutes, so ``x + (-c*y)`` is the same bits with
    one pass over the rows fewer.  Raises :class:`SingularDesign` if a
    product or partial sum overflows the double range.  With finite
    columns and weights that is the only way to a non-finite value, and
    the floating-point flags tell it without a scan of the column.
    """
    (w, name), *rest = [(w, name) for name, w in zip(names, weights)
                        if w != 0.0]
    try:
        with np.errstate(over="raise", invalid="raise"):
            if w == 1.0 and rest:
                (w, first), *rest = rest
                column = np.multiply(w, ds.column(first))
                np.add(ds.column(name), column, out=column)
            else:
                column = w * ds.column(name)
            term = np.empty_like(column) if rest else None
            for w, name in rest:
                column += np.multiply(w, ds.column(name), out=term)
    except FloatingPointError:
        raise SingularDesign(
            f"the combination of {list(names)} with weights "
            f"{[float(w) for w in weights]} overflows the double range"
        ) from None
    column.setflags(write=False)
    return column


@dataclass(frozen=True)
class PredictorTransform:
    """A nonsingular linear map of the ``k`` predictors.

    ``gamma`` is the k x k block acting on the predictors alone; see the
    module docstring for which way it multiplies.  Nonsingularity is
    checked at construction, in a way no change of units can move.
    """

    gamma: np.ndarray

    def __post_init__(self) -> None:
        g = _frozen(self.gamma)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ShapeMismatch(f"transform must be square, got {g.shape}")
        if g.shape[0] == 0:
            raise ShapeMismatch("transform must act on at least 1 predictor")
        if not np.all(np.isfinite(g)):
            raise ValueError("transform contains a non-finite value")
        # Exact power-of-two row, then column, scaling: blind to units.
        rows = np.ldexp(g, -np.frexp(np.abs(g).max(axis=1, keepdims=True))[1])
        balanced = np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=0))[1])
        singular_values = np.linalg.svd(balanced, compute_uv=False)
        if singular_values[-1] <= _SINGULAR_FLOOR * singular_values[0]:
            raise SingularTransform(
                f"transform is singular to working precision "
                f"(singular values {singular_values[0]:.3g} .. "
                f"{singular_values[-1]:.3g})")
        object.__setattr__(self, "gamma", g)

    @property
    def k(self) -> int:
        """Number of predictors the transform acts on."""
        return self.gamma.shape[0]

    @property
    def determinant(self) -> float:
        return float(np.linalg.det(self.gamma))

    def inverse_gamma(self) -> np.ndarray:
        """Inverse of ``gamma``: a solve refined by one Newton step.

        Construction is the only invertibility gate.  The Newton step and
        the unit-row snapping below keep unit rows and columns exact, so a
        transform that residualizes one predictor inverts exactly even
        with coefficients of 1e11.
        """
        identity = np.eye(self.k)
        try:
            inv = np.linalg.solve(self.gamma, identity)
        except np.linalg.LinAlgError as exc:
            raise SingularTransform(str(exc)) from None
        inv = inv + inv @ (identity - self.gamma @ inv)
        # If row i of gamma is literally e_i then row i of the inverse is
        # too (e_i' @ inv = (gamma @ inv) row i = identity row i), and the
        # same goes for unit columns.  Snapping them keeps untouched
        # predictors untouched exactly instead of to rounding.
        for i in range(self.k):
            if np.array_equal(self.gamma[i, :], identity[i, :]):
                inv[i, :] = identity[i, :]
            if np.array_equal(self.gamma[:, i], identity[:, i]):
                inv[:, i] = identity[:, i]
        return inv


@dataclass(frozen=True)
class ResidualizedVariable:
    """A predictor with fitted multiples of the controls removed.

    ``values = target - sum_j control_coefficients[j] * controls[j]``.  Only the
    slope pieces are subtracted; the intercept of the auxiliary regression
    is deliberately left in, so the residualized variable keeps a nonzero
    mean in general; it merges in as column ``name``.  ``values`` is
    checked and frozen like a :class:`Dataset` column; those
    :func:`residualize_with` builds skip the scan for non-finite values,
    which the overflow flags of their build replace.
    """

    name: str
    target: str
    controls: tuple[str, ...]
    control_coefficients: tuple[float, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        self._check(scanned=False)

    @classmethod
    def _combined(cls, *args) -> "ResidualizedVariable":
        """The variable of the constructor's ``args`` whose values
        :func:`_combination` built: its overflow flags vouch that they are
        finite, so they are not scanned again; every other check runs."""
        variable = object.__new__(cls)
        variable.__dict__.update(zip((f.name for f in fields(cls)), args))
        variable._check(scanned=True)
        return variable

    def _check(self, scanned: bool) -> None:
        if len(self.controls) != len(self.control_coefficients):
            raise LengthMismatch(
                f"{len(self.controls)} controls but "
                f"{len(self.control_coefficients)} coefficients")
        object.__setattr__(self, "values",
                           _freeze(self.values, self.name, None, scanned))

    def merged_into(self, ds: Dataset) -> Dataset:
        """Return ``ds`` with this variable appended as a column: the frozen
        ``values`` array itself, not a copy, and not scanned again."""
        return ds._appended(self.name, self.values, scanned=True)


def residualize(ds: Dataset, target: str, controls: Sequence[str],
                name: str | None = None) -> ResidualizedVariable:
    """Remove the fitted influence of ``controls`` from ``target``.

    The subtracted multiples are the slopes of the least-squares fit of
    ``target`` on ``controls``, so the result is uncorrelated with every
    control (up to rounding); ``name`` defaults as in :func:`residualize_with`.

    Raises
    ------
    CollinearPredictors
        If ``target`` is among ``controls``.
    SingularDesign
        If the auxiliary fit of ``target`` on ``controls`` is not well
        posed.
    """
    controls = list(controls)
    if not controls:
        raise ValueError("need at least one control")
    ds.require(target, *controls)
    if target in controls:
        raise CollinearPredictors(
            f"target {target!r} is among its own controls {controls}")
    aux = fit(ds, target, controls)
    return residualize_with(ds, target, controls, aux.slopes, name)


def residualize_with(ds: Dataset, target: str, controls: Sequence[str],
                     coefficients: Sequence[float],
                     name: str | None = None) -> ResidualizedVariable:
    """Subtract caller-chosen multiples of the controls from ``target``.

    No orthogonality is implied: this is the tool for sweeping arbitrary
    coefficients, with :func:`residualize` as the special case that picks
    the fitted ones.  ``name`` defaults to the first of ``target*``,
    ``target**``, ... not in ``ds``, so the result merges into ``ds``.

    Raises
    ------
    ValueError
        If a coefficient is not finite.
    SingularDesign
        If the combined column overflows the double range.
    """
    controls = tuple(controls)
    ds.require(target, *controls)
    coefficients = tuple(float(c) for c in coefficients)
    if not all(map(math.isfinite, coefficients)):
        raise ValueError(f"coefficients must be finite, got {coefficients}")
    values = _combination(ds, [target, *controls],
                          [1.0, *(-c for c in coefficients)])
    if name is None:
        name = target + "*"
        while name in ds:
            name += "*"
    # _combined checks that the two lengths agree.
    return ResidualizedVariable._combined(name, target, controls,
                                          coefficients, values)


def _family(ds: Dataset, response: str, x1: str, controls: list[str],
            r: np.ndarray | None = None,
            pairs: Iterable[tuple[int, int]] | None = None):
    """The fit of ``response`` on ``[x1, *controls]``, x1* from x1's slopes
    on the controls solved on the same R (``r``, factored unless given), and
    the means and centered cross moments of ``[response, x1*, *controls]``:
    every variance, and the covariances ``pairs`` names (all when None),
    the rest None.  The gamma evaluators and the one-control suite read
    every covariance; the suite with more controls reads none of
    ``cov(response, control)``, and ``verify_residualized_slope`` only
    ``cov(response, x1*)``."""
    union = [x1, *controls, response]
    if r is None:
        r = _factor(ds, union)
    full = _solve(r, union, len(controls) + 1, range(len(controls) + 1))
    aux = _solve(r, union, 0, range(1, len(controls) + 1))
    residual = residualize_with(ds, x1, controls, aux.slopes)
    means, cross = _central_moments(residual.merged_into(ds),
                                    [response, residual.name, *controls],
                                    pairs)
    return full, residual, means, cross


def _x1_moments(cross: list[list[float]],
                c12: float) -> tuple[float, float, float]:
    """``cov(x1, y)``, ``var(x1)`` and ``cov(x1, x2)`` from :func:`_family`'s
    moments of ``[y, x1*, x2]``: moments are linear in each column, and
    ``x1 = x1* + c12 x2`` is the paper's transform law."""
    (_, sy, ty), (_, ss, st), (_, _, tt) = cross  # s is x1*, t is x2
    return sy + c12 * ty, ss + c12 * (2.0 * st + c12 * tt), st + c12 * tt


def build_transform(k: int, target_index: int,
                    coefficients: Sequence[float]) -> PredictorTransform:
    """Transform that residualizes predictor ``target_index`` (1-based).

    The returned ``gamma`` is the identity except in column
    ``target_index``, where the rows of the other predictors carry minus
    the given coefficients (in ascending predictor order).  Applying it
    replaces only that one predictor::

        new_t = old_t - sum_j coefficients[j] * old_j

    Its determinant is exactly 1, so the transform is always invertible.

    Raises
    ------
    IndexOutOfRange
        If ``target_index`` is not in ``1..k``.
    LengthMismatch
        If ``len(coefficients) != k - 1``.
    """
    if k < 1:
        raise IndexOutOfRange(f"k must be at least 1, got {k}")
    if not 1 <= target_index <= k:
        raise IndexOutOfRange(
            f"target_index {target_index} outside 1..{k}")
    coefficients = [float(c) for c in coefficients]
    if len(coefficients) != k - 1:
        raise LengthMismatch(
            f"expected {k - 1} coefficients for k={k}, "
            f"got {len(coefficients)}")
    gamma = np.eye(k)
    others = [i for i in range(k) if i != target_index - 1]
    for row, coeff in zip(others, coefficients):
        gamma[row, target_index - 1] = -coeff
    return PredictorTransform(gamma)


def apply_transform(ds: Dataset, predictors: Sequence[str],
                    transform: PredictorTransform) -> Dataset:
    """Replace the named predictor columns by their transformed versions.

    Column ``predictors[j]`` ends up holding
    ``sum_i gamma[i, j] * old_i`` over the nonzero weights; a column whose
    weights are its own unit vector, and every other column of ``ds``, is
    the source's array itself.  Column order is preserved.
    """
    predictors = list(predictors)
    if len(predictors) != transform.k:
        raise LengthMismatch(
            f"{len(predictors)} predictors but transform acts on "
            f"{transform.k}")
    ds.require(*predictors)
    gamma, unit = transform.gamma, np.eye(transform.k)
    return ds.replace_columns({
        name: _combination(ds, predictors, gamma[:, j])
        for j, name in enumerate(predictors)
        if not np.array_equal(gamma[:, j], unit[:, j])})


def map_coefficients(coefficients: Sequence[float],
                     transform: PredictorTransform) -> tuple[float, ...]:
    """Coefficients of the same fit expressed in transformed predictors.

    The intercept passes through; the slope block is multiplied by the
    inverse of ``gamma``.  If ``b`` solves the original least-squares
    problem then the returned vector solves the problem on the transformed
    columns, to rounding.

    Raises
    ------
    ShapeMismatch
        If ``len(coefficients) != k + 1``.
    SingularTransform
        If the solve meets an exactly zero pivot in ``gamma``.
    SingularDesign
        If a mapped slope overflows the double range.
    """
    coefficients = [float(c) for c in coefficients]
    if len(coefficients) != transform.k + 1:
        raise ShapeMismatch(
            f"expected {transform.k + 1} coefficients "
            f"(intercept + {transform.k} slopes), got {len(coefficients)}")
    slopes = np.array(coefficients[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        mapped = transform.inverse_gamma() @ slopes
    if not np.all(np.isfinite(mapped)):
        raise SingularDesign("a mapped slope would overflow the double range")
    return (coefficients[0], *(float(b) for b in mapped))
