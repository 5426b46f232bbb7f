"""Shared generators and scan utilities for the test suite."""

from __future__ import annotations

import numpy as np

from partialreg import Dataset, column_stats, covariance


def predictor_names(k: int) -> list[str]:
    return [f"X{i + 1}" for i in range(k)]


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


def overshooting_sweep_dataset() -> Dataset:
    """X1 = X2 + 1e-5 * noise, n = 30: b1 is about 2e4 and the sweep's
    closed form at the root c12 misses it by more than
    ``ROOT_MATCH_TOLERANCE`` allows."""
    x2, noise, e = np.random.default_rng(0).normal(size=(3, 30))
    x1 = x2 + 1e-5 * noise
    return Dataset({"X1": x1, "X2": x2, "Y": e + x1})


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


def spy_moment_calls(monkeypatch) -> list[list[str]]:
    """Record the column list of every moment call the library makes."""
    import partialreg.cli
    import partialreg.gamma
    import partialreg.identities
    import partialreg.ols
    import partialreg.stats

    calls: list[list[str]] = []
    moments = partialreg.stats._central_moments

    def recording(ds, names):
        calls.append(list(names))
        return moments(ds, names)

    for module in (partialreg.stats, partialreg.ols, partialreg.identities,
                   partialreg.gamma, partialreg.cli):
        monkeypatch.setattr(module, "_central_moments", recording)
    return calls
