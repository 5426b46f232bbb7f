"""Shared generators and scan utilities for the test suite."""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np

import partialreg
import partialreg.ols
import partialreg.stats
from partialreg import Dataset, column_stats, covariance
from partialreg.ols import _LEAF_ROWS, _TILE_ROWS

#: Row counts at and around the leaf and tile edges of the tiled QR pass.
TILE_EDGES = (_LEAF_ROWS - 1, _LEAF_ROWS, _LEAF_ROWS + 1, _TILE_ROWS - 1,
              _TILE_ROWS, _TILE_ROWS + 1, _TILE_ROWS + _LEAF_ROWS + 1,
              3 * _TILE_ROWS + 5)


def predictor_names(k: int) -> list[str]:
    return [f"X{i + 1}" for i in range(k)]


def columns(ds: Dataset, names) -> list[np.ndarray]:
    """The named columns of ``ds``, in order, as the moment routine reads
    them."""
    return [ds.column(name) for name in names]


def design_matrix(ds: Dataset, predictors) -> np.ndarray:
    """n x (k+1) design whose first column is all ones."""
    columns = [np.ones(ds.n)]
    columns.extend(ds.column(p) for p in predictors)
    return np.column_stack(columns)


def rescaled_x1_dataset(scale: float) -> Dataset:
    """Correlated X1, X2 and an unrelated X3, with X1 in units ``scale``
    times smaller; the design's condition grows only to about 2.4 scale."""
    rng = np.random.default_rng(5)
    x2, x3 = rng.normal(size=50), rng.normal(size=50)
    x1 = x2 + 0.5 * rng.normal(size=50)
    y = 1.0 + 2.0 * x1 - x2 + 0.3 * x3 + rng.normal(size=50)
    return Dataset({"X1": x1 * scale, "X2": x2, "X3": x3, "Y": y})


def x1_near_x2_dataset(epsilon: float) -> Dataset:
    """X1 = X2 + epsilon * noise, n = 30: b1 is about 2e-1 / epsilon and
    the design's condition about 1.9 / epsilon."""
    x2, noise, e = np.random.default_rng(0).normal(size=(3, 30))
    x1 = x2 + epsilon * noise
    return Dataset({"X1": x1, "X2": x2, "Y": e + x1})


def overshooting_sweep_dataset() -> Dataset:
    """The epsilon = 1e-8 member of :func:`x1_near_x2_dataset`: its design
    condition, 1.9e8, is under ``CONDITION_LIMIT``, but the residualized
    slope misses b1 = 2.1e7 by 2.66, beyond the 0.215 that
    ``ROOT_MATCH_TOLERANCE`` and the claim's default tolerance allow."""
    return x1_near_x2_dataset(1e-8)


def near_collinear_controls_dataset(rng: np.random.Generator,
                                    n: int) -> Dataset:
    """X3 = X2 + 1e-7 * e, with e orthogonal to the intercept, X1, X2 and
    Y: the fits stay well posed and the root (c12, c13) stays modest, but
    X1 - g*X2 + g*X3 is constant relative to its scale for large g."""
    x1 = rng.normal(size=n)
    x2 = 0.5 * x1 + rng.normal(size=n)
    y = x1 - x2 + rng.normal(size=n)
    basis = np.column_stack([np.ones(n), x1, x2, y])
    e = rng.normal(size=n)
    e -= basis @ np.linalg.lstsq(basis, e, rcond=None)[0]
    return Dataset({"X1": x1, "X2": x2, "X3": x2 + 1e-7 * e / e.std(),
                    "Y": y})


def random_dataset(rng: np.random.Generator, n: int, k: int, *,
                   condition_limit: float = 1e6) -> Dataset:
    """Random dataset with correlated predictors and a gated condition.

    Predictors are mixed normals (so they correlate with each other), the
    response is a random linear signal plus noise.  Regenerates until the
    design's condition number is under ``condition_limit``.
    """
    names = predictor_names(k)
    while True:
        base = rng.normal(size=(n, k))
        mix = np.eye(k) + 0.5 * rng.normal(size=(k, k))
        x = base @ mix
        coef = rng.uniform(-3.0, 3.0, size=k)
        y = rng.normal() + x @ coef + rng.normal(scale=0.5, size=n)
        columns = {name: x[:, i] for i, name in enumerate(names)}
        columns["Y"] = y
        ds = Dataset(columns)
        if np.linalg.cond(design_matrix(ds, names)) < condition_limit:
            return ds


def random_integer_dataset(rng: np.random.Generator, n: int, k: int, *,
                           condition_limit: float = 1e3
                           ) -> tuple[Dataset, dict[str, list[int]]]:
    """Small-integer dataset plus its exact integer columns.

    Entries lie in [-9, 9]; the same integers feed the rational oracle, so
    there is no representation gap between the two computations.
    """
    names = predictor_names(k)
    while True:
        raw = {name: rng.integers(-9, 10, size=n) for name in names}
        raw["Y"] = rng.integers(-9, 10, size=n)
        if any(np.all(v == v[0]) for v in raw.values()):
            continue
        ds = Dataset({name: raw[name].astype(float)
                      for name in (*names, "Y")})
        if np.linalg.cond(design_matrix(ds, names)) < condition_limit:
            return ds, {name: [int(v) for v in raw[name]]
                        for name in (*names, "Y")}


def gamma_scan_values(ds: Dataset, response: str, x1: str, x2: str,
                      gammas: np.ndarray) -> np.ndarray:
    """Vectorized scan of the combined-predictor slope over a gamma grid.

    Re-derives the rational form from column moments without touching the
    library's own grid evaluator, so sweeps have something independent to
    agree with.
    """
    c1y = covariance(ds, x1, response)
    c2y = covariance(ds, x2, response)
    c12 = covariance(ds, x1, x2)
    v1 = column_stats(ds, x1).variance
    v2 = column_stats(ds, x2).variance
    return (c1y - gammas * c2y) / (v1 - 2.0 * gammas * c12
                                   + gammas ** 2 * v2)


def crossing_points(gammas: np.ndarray, values: np.ndarray,
                    target: float) -> np.ndarray:
    """Grid locations where ``values - target`` changes sign.

    Returns the midpoint of each bracketing interval; an exact hit on a
    grid point returns that point itself.
    """
    signed = values - target
    hits = list(gammas[signed == 0.0])
    products = signed[:-1] * signed[1:]
    for i in np.nonzero(products < 0.0)[0]:
        hits.append((gammas[i] + gammas[i + 1]) / 2.0)
    return np.array(sorted(float(h) for h in hits))


def sign_change_count(values: np.ndarray, *, zero_floor: float) -> int:
    """Sign changes of ``diff(values)``, treating |diff| <= floor as zero."""
    steps = np.diff(values)
    signs = np.sign(np.where(np.abs(steps) <= zero_floor, 0.0, steps))
    signs = signs[signs != 0.0]
    if signs.size < 2:
        return 0
    return int(np.sum(signs[1:] != signs[:-1]))


def patch_library(monkeypatch, name: str, replacement) -> None:
    """Bind ``replacement`` to ``name`` in every partialreg module that
    binds it.  The modules import each other with ``from .x import f``, so
    patching the defining module alone would miss most call sites."""
    modules = [partialreg, *(
        importlib.import_module(f"partialreg.{info.name}")
        for info in pkgutil.iter_modules(partialreg.__path__))]
    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, replacement)


def spy_moment_calls(monkeypatch) -> list[list[str]]:
    """Record the column list of every moment call the library makes."""
    calls: list[list[str]] = []
    moments = partialreg.stats._central_moments

    def recording(columns, names, pairs=None):
        calls.append(list(names))
        return moments(columns, names, pairs)

    patch_library(monkeypatch, "_central_moments", recording)
    return calls


def spy_moment_products(monkeypatch) -> list[int]:
    """Record the products each moment call computes: its variances plus
    the covariances it was asked for, each pair counted once."""
    products: list[int] = []
    moments = partialreg.stats._central_moments

    def recording(columns, names, pairs=None):
        means, cross = moments(columns, names, pairs)
        products.append(sum(value is not None for i, row in enumerate(cross)
                            for value in row[i:]))
        return means, cross

    patch_library(monkeypatch, "_central_moments", recording)
    return products


def spy_passes(monkeypatch) -> list[tuple[list[str], Dataset]]:
    """Record ``(names, ds)`` of every tiled pass over the rows."""
    passes: list[tuple[list[str], Dataset]] = []
    factor = partialreg.ols._factor

    def recording(ds, names):
        passes.append((list(names), ds))
        return factor(ds, names)

    patch_library(monkeypatch, "_factor", recording)
    return passes
