"""Ordinary least squares with an explicit conditioning gate.

``fit`` solves least squares through one R-only QR of ``[1, X | y]``, taken
a tile of rows at a time, rather than by forming X'X, and it refuses
designs whose condition number says the answer would be noise.  That is
one tiled pass per column set: ``_factor`` makes the pass, factoring each
tile as L1-sized leaves in one stacked QR whose Rs land in one row stack,
and ``_solve`` fits any subset of its columns from the R of the union alone.
``fit_simple`` is the one-predictor closed form, kept as a separate code
path on purpose: several identities in this package equate outputs of the
two routes, and that check is only meaningful if they do not share code.
Its arithmetic lives in ``_simple_from_moments``, so callers that already
hold the moments of a column set take simple slopes from them.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import (
    MissingPredictorValue,
    SingularDesign,
    TooFewRows,
    ZeroVariance,
)
from .stats import _central_moments

__all__ = [
    "CONDITION_LIMIT",
    "RegressionFit",
    "fit",
    "fit_simple",
    "predict",
    "residuals",
]

#: Designs whose 2-norm condition number exceeds this are rejected.
CONDITION_LIMIT = 1e12

# Rows per tile of the pass in ``fit``; 8192 (320 KB at k = 3) measured
# fastest.
_TILE_ROWS = 8192

# Rows per leaf QR within a tile: 1024 (40 KB at k = 3) keeps LAPACK's
# working set in L1 cache.
_LEAF_ROWS = 1024


@dataclass(frozen=True)
class RegressionFit:
    """Intercept and named slopes of one least-squares fit.

    ``slopes`` is ordered like ``predictors``.  ``condition_estimate`` is
    the condition number of the design matrix (ones column included):
    :func:`fit` rejects designs above :data:`CONDITION_LIMIT`, while
    :func:`fit_simple` reports the number without gating on it.  ``rss`` is
    the residual sum of squares, never negative.
    """

    response: str
    predictors: tuple[str, ...]
    intercept: float
    slopes: tuple[float, ...]
    condition_estimate: float
    rss: float

    def coefficients(self) -> tuple[float, ...]:
        """Intercept followed by the slopes, in predictor order."""
        return (self.intercept, *self.slopes)

    def slope(self, predictor: str) -> float:
        """Slope attached to one named predictor."""
        try:
            return self.slopes[self.predictors.index(predictor)]
        except ValueError:
            raise MissingPredictorValue(
                f"fit has no predictor {predictor!r}; "
                f"have {list(self.predictors)}") from None


def fit(ds: Dataset, response: str,
        predictors: Sequence[str]) -> RegressionFit:
    """Least-squares fit of ``response`` on the named predictors.

    Parameters
    ----------
    ds:
        Source dataset.
    response:
        Column to explain.
    predictors:
        Columns to explain it with, in the order the slopes should come
        back.  May be empty, in which case the fit is just the mean.

    Raises
    ------
    UnknownColumn
        If any named column is absent.
    TooFewRows
        If ``ds.n < len(predictors) + 1``.
    SingularDesign
        If the design's condition number exceeds
        :data:`CONDITION_LIMIT` (constant predictor, repeated predictor,
        collinear predictors, ...), or if the data overflow the double
        range.
    """
    preds = tuple(predictors)
    return _solve(_factor(ds, [*preds, response]), [*preds, response],
                  len(preds), range(len(preds)))


def _factor(ds: Dataset, names: Sequence[str]) -> np.ndarray:
    """R factor of ``[1, *names]``, from one tiled pass over the rows.

    Each tile's full leaves of ``_LEAF_ROWS`` rows are factored by one
    stacked ``mode="raw"`` QR and its ragged rest by one more, into one row
    stack; one ``triu`` per pass and a final QR of the stack give the R of
    the whole design (TSQR), bit for bit as from each leaf's own R."""
    columns = [ds.column(name) for name in names]
    # One tile buffer for the pass; its row of ones is written once.
    block = np.empty((len(names) + 1, min(ds.n, _TILE_ROWS)))
    block[0] = 1.0
    leaves, rest = divmod(ds.n, _LEAF_ROWS)
    leaf_rows = min(len(block), _LEAF_ROWS)
    stack = np.empty((leaves * leaf_rows + min(rest, len(block)), len(block)))
    head = stack[:leaves * leaf_rows].reshape(leaves, leaf_rows, len(block))
    for start in range(0, ds.n, _TILE_ROWS):
        size = min(_TILE_ROWS, ds.n - start)
        for row, column in zip(block[1:], columns):
            row[:size] = column[start:start + size]
        split = size - size % _LEAF_ROWS
        if split:
            tile = block[:, :split].reshape(len(block), -1, _LEAF_ROWS)
            # Fortran-ordered (leaf, row, column); h[l].T holds leaf l's R.
            h, _ = np.linalg.qr(tile.transpose(1, 2, 0), mode="raw")
            leaf = start // _LEAF_ROWS
            head[leaf:leaf + len(h)] = h.swapaxes(1, 2)[:, :leaf_rows]
        if split < size:
            stack[leaves * leaf_rows:] = np.linalg.qr(
                block[:, split:size].T, mode="r")
    head[:] = np.triu(head)
    return np.linalg.qr(stack, mode="r")


def _solve(r: np.ndarray, names: Sequence[str], response: int,
           predictors: Sequence[int]) -> RegressionFit:
    """Fit of ``names[response]`` on ``names[predictors]`` from the R of
    ``_factor(ds, names)``: X[:, s] = Q R[:, s], so the R of a column subset
    s is the R of R[:, s], and a leading subset's R is R's leading block."""
    preds = tuple(names[i] for i in predictors)
    design = f"{names[response]!r} ~ {list(preds)}"
    k = len(preds)
    if r.shape[0] < k + 1:  # r has min(n, len(names) + 1) rows
        raise TooFewRows(
            f"{r.shape[0]} rows cannot determine {k + 1} coefficients")
    selected = [0, *(i + 1 for i in predictors), response + 1]
    if selected != list(range(k + 2)):
        r = np.linalg.qr(r[:, selected], mode="r")
    r = r[:, :k + 2]
    # The R of [1, X | y] holds the design's R in the leading block, Q'y
    # beside it and the residual norm, whose square may overflow, in the
    # corner.  LAPACK's svd fails (or prints to stdout) on inf or nan.
    corner = float(r[k + 1, k + 1]) if r.shape[0] > k + 1 else 0.0
    if not (np.all(np.isfinite(r)) and math.isfinite(corner * corner)):
        raise SingularDesign(f"design for {design} overflows the double range")
    singular = np.linalg.svd(r[:k + 1, :k + 1], compute_uv=False).tolist()
    condition = singular[0] / singular[-1] if singular[-1] else math.inf
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise SingularDesign(
            f"design for {design} has condition "
            f"{condition:.3g} (limit {CONDITION_LIMIT:.0e})")
    coef = np.linalg.solve(r[:k + 1, :k + 1], r[:k + 1, k + 1])
    return RegressionFit(
        response=names[response],
        predictors=preds,
        intercept=float(coef[0]),
        slopes=tuple(float(c) for c in coef[1:]),
        condition_estimate=condition,
        rss=corner * corner,
    )


def fit_simple(ds: Dataset, response: str, predictor: str) -> RegressionFit:
    """One-predictor fit via the moment closed form.

    ``slope = cov(x, y) / var(x)`` and
    ``intercept = mean(y) - slope * mean(x)``.

    Raises
    ------
    ZeroVariance
        If the predictor is constant.
    """
    means, cross = _central_moments(ds, [predictor, response])
    intercept, slope, condition = _simple_from_moments(
        means, cross, 1, 0, predictor)
    resid = slope * ds.column(predictor)  # y - (intercept + slope * x)
    resid += intercept
    np.subtract(ds.column(response), resid, out=resid)
    return RegressionFit(
        response=response,
        predictors=(predictor,),
        intercept=intercept,
        slopes=(slope,),
        condition_estimate=condition,
        rss=float(resid @ resid),
    )


def _simple_from_moments(means: Sequence[float],
                         cross: Sequence[Sequence[float]], response: int,
                         predictor: int, name: str
                         ) -> tuple[float, float, float]:
    """Intercept, slope and condition of :func:`fit_simple` from the means
    and centered moments of a column list holding the response at index
    ``response`` and the predictor, named ``name``, at ``predictor``."""
    m, my = means[predictor], means[response]
    v, cxy = cross[predictor][predictor], cross[predictor][response]
    if v == 0.0:
        raise ZeroVariance(f"column {name!r} is constant")
    slope = cxy / v
    # cond([1, x]) from the eigenvalues of its Gram matrix over n,
    # [[1, m], [m, m² + v]]: their sum t is 1 + m² + v, their product is v,
    # and t² - 4v = (1 - v)² + m²(m² + 2 + 2v) has no cancellation.
    root = math.hypot(1.0 - v, m * math.sqrt(m * m + 2.0 + 2.0 * v))
    condition = (1.0 + m * m + v + root) / 2.0 / math.sqrt(v)
    return my - slope * m, slope, condition


def predict(fitted: RegressionFit, row: Mapping[str, float]) -> float:
    """Fitted value at one observation given as a name -> value mapping.

    Extra keys are ignored; a missing predictor raises
    :class:`MissingPredictorValue` naming every absent column.
    """
    missing = [p for p in fitted.predictors if p not in row]
    if missing:
        raise MissingPredictorValue(
            f"row lacks values for {missing}")
    value = fitted.intercept
    for name, slope in zip(fitted.predictors, fitted.slopes):
        value += slope * float(row[name])
    return value


def residuals(fitted: RegressionFit, ds: Dataset) -> np.ndarray:
    """Observed minus fitted response over a whole dataset.

    ``ds`` may be any dataset carrying the fit's response and predictors;
    passing the training data gives residuals that sum to ~0.
    """
    ds.require(fitted.response, *fitted.predictors)
    y = ds.column(fitted.response)
    fitted_values = np.full(ds.n, fitted.intercept)
    for name, slope in zip(fitted.predictors, fitted.slopes):
        fitted_values = fitted_values + slope * ds.column(name)
    return y - fitted_values
