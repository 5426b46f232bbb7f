"""Descriptive statistics over dataset columns.

All second moments use the population convention (divide by ``n``):
``var(x) = mean((x - mean(x))**2)`` and likewise for covariances.  The
coefficient identities in :mod:`partialreg.identities` are written in terms
of these population moments, and any common rescaling of them (for example
the ``n/(n-1)`` sample correction) cancels in every slope, so nothing here
exposes a convention switch.

Computation is two-pass (center first, then one dot product of deviations
per pair, divided by ``n``), which is the numerically stable arrangement and
makes ``covariance(ds, a, a)`` return the variance of ``a`` bit for bit.  The
dot product makes no n-row temporary; BLAS may split it across threads, so
the last bits depend on the BLAS thread count (never within one process).
Every moment here, ``fit_simple`` and the gamma closed forms read one routine
that centers each column once per call.  It takes arrays, not a dataset, so
x1* reaches it as the array its build returned.  The moments of a column
subset are the superset's bits, so a caller needing several statistics
takes one call over the union and hands the moments to the private
from-moments forms (``_correlations``, ``_multiple_correlation``).  That
routine computes every variance, and every covariance unless its caller
names the pairs it reads: the suite with two or more controls skips
``cov(y, x_j)``, and ``verify_residualized_slope`` computes ``cov(x1*, y)``
alone.  It raises :class:`~partialreg.errors.SingularDesign` when a mean or
a computed moment overflows the double range.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import (
    DegenerateCofactor,
    NumericalOvershoot,
    SingularDesign,
    ZeroVariance,
)

__all__ = [
    "CLAMP_TOLERANCE",
    "SummaryStats",
    "column_stats",
    "covariance",
    "pearson_r",
    "correlation_matrix",
    "multiple_correlation",
]

#: How far a correlation (or squared multiple correlation) may overshoot its
#: legal range and still be silently clamped.  Larger excursions raise
#: :class:`NumericalOvershoot` instead of being hidden.
CLAMP_TOLERANCE = 1e-9

#: Below this fraction of the leading cofactor's natural scale the predictor
#: block of a correlation matrix counts as singular.
_COFACTOR_FLOOR = 1e-12


@dataclass(frozen=True)
class SummaryStats:
    """Mean, population variance, and standard deviation of one column."""

    mean: float
    variance: float
    sd: float


def _central_moments(columns: Sequence[np.ndarray], names: Sequence[str],
                     pairs: Iterable[tuple[int, int]] | None = None
                     ) -> tuple[list[float], list[list[float | None]]]:
    """Means and centered cross moments ``cross[i][j] = dev_i . dev_j / n``
    of the equally long ``columns``, each centered once; ``names`` label
    them in the overflow message.

    Every variance (the diagonal) is computed; of the covariances, only
    the pairs ``(i, j)``, ``i < j``, in ``pairs`` are (all of them when
    ``pairs`` is None), each once and mirrored.  The rest are None, so
    reading one fails rather than returns a placeholder.  Raises
    :class:`SingularDesign` when a mean or a computed moment overflows the
    double range; finite variances bound every covariance (Cauchy-Schwarz),
    so the gate holds for the pairs skipped too.
    """
    m = len(columns)
    if pairs is None:
        pairs = itertools.combinations(range(m), 2)
    cross: list[list[float | None]] = [[None] * m for _ in range(m)]
    with np.errstate(over="ignore", invalid="ignore"):
        means = [float(x.mean()) for x in columns]
        devs = [x - mean for x, mean in zip(columns, means)]
        for i, j in [*zip(range(m), range(m)), *pairs]:
            cross[i][j] = cross[j][i] = float(np.dot(devs[i], devs[j])
                                              / devs[i].size)
    if not all(math.isfinite(v) for v in itertools.chain(means, *cross)
               if v is not None):
        raise SingularDesign(
            f"moments of {list(names)}: a mean or cross moment overflows "
            f"the double range")
    return means, cross


def column_stats(ds: Dataset, name: str) -> SummaryStats:
    """Summary statistics of one column.

    The variance is the mean squared deviation from the mean; it is zero
    exactly (not merely tiny) for a constant column, which downstream code
    relies on when deciding whether to raise :class:`ZeroVariance`.
    """
    (mean,), ((variance,),) = _central_moments([ds.column(name)], [name])
    return SummaryStats(mean, variance, math.sqrt(variance))


def covariance(ds: Dataset, a: str, b: str) -> float:
    """Population covariance of two columns.

    Symmetric by construction: the elementwise products commute, so
    ``covariance(ds, a, b) == covariance(ds, b, a)`` exactly.
    """
    return _central_moments([ds.column(a), ds.column(b)], [a, b])[1][0][1]


def _clamp(value: float, lo: float, hi: float, what: str) -> float:
    if value < lo:
        if lo - value > CLAMP_TOLERANCE:
            raise NumericalOvershoot(
                f"{what} = {value!r} is below {lo} by more than "
                f"{CLAMP_TOLERANCE}")
        return lo
    if value > hi:
        if value - hi > CLAMP_TOLERANCE:
            raise NumericalOvershoot(
                f"{what} = {value!r} is above {hi} by more than "
                f"{CLAMP_TOLERANCE}")
        return hi
    return value


def pearson_r(ds: Dataset, a: str, b: str) -> float:
    """Pearson correlation of two columns, clamped to [-1, 1].

    Raises
    ------
    ZeroVariance
        If either column is constant.
    NumericalOvershoot
        If rounding pushed the ratio outside [-1, 1] by more than
        :data:`CLAMP_TOLERANCE`.
    """
    return float(correlation_matrix(ds, [a, b])[0, 1])


def correlation_matrix(ds: Dataset, names: Sequence[str]) -> np.ndarray:
    """Correlation matrix of the named columns.

    Each column is centered once.  Unit diagonal and exact symmetry hold by
    construction: each off-diagonal pair is computed once and mirrored.
    Raises like :func:`pearson_r`, checking the columns in order.
    """
    names = list(names)
    return _correlations(
        _central_moments([ds.column(c) for c in names], names)[1], names)


def _correlations(cross: list[list[float]], names: Sequence[str]
                  ) -> np.ndarray:
    """:func:`correlation_matrix` from centered moments whose leading
    block is that of ``names``."""
    sds = []
    for i, name in enumerate(names):
        if cross[i][i] == 0.0:
            raise ZeroVariance(f"column {name!r} is constant")
        sds.append(math.sqrt(cross[i][i]))
    corr = np.eye(len(sds))
    for i in range(len(sds)):
        for j in range(i + 1, len(sds)):
            r = cross[i][j] / (sds[i] * sds[j])
            corr[i, j] = corr[j, i] = _clamp(
                r, -1.0, 1.0, f"pearson_r({names[i]!r}, {names[j]!r})")
    return corr


def multiple_correlation(ds: Dataset, target: str,
                         predictors: Sequence[str]) -> float:
    """Multiple correlation of ``target`` with the predictor set.

    Computed as ``sqrt(1 - det(R) / M11)`` where ``R`` is the correlation
    matrix of ``(target, *predictors)`` and ``M11`` is the determinant of
    its predictor block (the minor obtained by deleting the target's row
    and column).  With one predictor this reduces to ``|pearson_r|``.

    Raises
    ------
    DegenerateCofactor
        If the predictor block is singular, i.e. the predictors are
        perfectly collinear among themselves.
    NumericalOvershoot
        If the squared value leaves [0, 1] by more than
        :data:`CLAMP_TOLERANCE`.
    """
    names = [target, *predictors]
    if len(names) < 2:
        raise ValueError("need at least one predictor")
    return _multiple_correlation(
        _central_moments([ds.column(c) for c in names], names)[1], names)


def _multiple_correlation(cross: list[list[float]], names: Sequence[str]
                          ) -> float:
    """:func:`multiple_correlation` of ``names[0]`` with ``names[1:]`` from
    centered moments whose leading block is that of ``names``."""
    target, *predictors = names
    corr = _correlations(cross, names)
    minor = corr[1:, 1:]
    cofactor = float(np.linalg.det(minor))
    # Hadamard bound: |det| of a unit-diagonal correlation block is <= 1,
    # so the floor needs no further scaling.
    if abs(cofactor) <= _COFACTOR_FLOOR:
        raise DegenerateCofactor(
            f"predictor block of {predictors} is singular "
            f"(det = {cofactor!r})")
    rho_sq = 1.0 - float(np.linalg.det(corr)) / cofactor
    rho_sq = _clamp(rho_sq, 0.0, 1.0,
                    f"multiple_correlation({target!r}, {predictors})**2")
    return math.sqrt(rho_sq)
