"""Seeded inputs for the benchmark and the reference answers it checks against.

Everything here uses numpy alone, never partialreg, so that a bug in the
library cannot hide by also being in the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

COLUMNS = ("Y", "X1", "X2", "X3")

# Pairwise predictor correlations between 0.3 and 0.6: correlated enough
# that residualizing matters, far enough from 1 that the design stays well
# conditioned and every identity claim passes.
_CORRELATION = np.array([[1.0, 0.6, 0.45],
                         [0.6, 1.0, 0.3],
                         [0.45, 0.3, 1.0]])
_SCALE = np.array([1.0, 2.0, 0.5])
_OFFSET = np.array([3.0, -1.0, 10.0])

# Surface and sweep grids of the lib-gamma workload.
SURFACE_GRID = np.linspace(-1.0, 1.0, 21)
SWEEP_GRID = np.linspace(-2.0, 2.0, 401)

# Grid points, as indices into the grids, whose values are compared with a
# direct computation on every op: the corners and centre of the surface,
# the ends and middle of the sweep.
SURFACE_SAMPLES = ((0, 0), (0, 20), (10, 10), (20, 0), (20, 20))
SWEEP_SAMPLES = (0, 200, 400)

# Same floor the library applies to the combined predictor's variance.
_DEFINED_FLOOR = 1e-12


def generate(seed: int, n: int) -> dict[str, np.ndarray]:
    """Columns ``Y, X1, X2, X3``: correlated predictors, ``Y`` linear in them
    plus unit-variance noise.  The same seed gives the same arrays."""
    rng = np.random.default_rng(seed)
    slopes = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
    intercept = rng.uniform(-5.0, 5.0)
    z = rng.standard_normal((n, 3))
    x = (z @ np.linalg.cholesky(_CORRELATION).T) * _SCALE + _OFFSET
    y = intercept + x @ slopes + rng.standard_normal(n)
    return {"Y": y, "X1": x[:, 0].copy(), "X2": x[:, 1].copy(),
            "X3": x[:, 2].copy()}


def write_csv(columns: dict[str, np.ndarray], path: Path) -> None:
    """Write the columns as CSV with 12 significant digits."""
    matrix = np.column_stack([columns[name] for name in COLUMNS])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        np.savetxt(handle, matrix, fmt="%.12g", delimiter=",",
                   header=",".join(COLUMNS), comments="")


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header names and the float matrix of a CSV, parsed by numpy."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        matrix = np.loadtxt(handle, delimiter=",", ndmin=2)
    return header, matrix


def read_back(path: Path) -> dict[str, np.ndarray]:
    """The columns exactly as a consumer of the CSV bytes sees them."""
    header, matrix = read_csv(path)
    if tuple(header) != COLUMNS:
        raise ValueError(f"unexpected header {header} in {path}")
    return {name: matrix[:, j].copy() for j, name in enumerate(COLUMNS)}


def _lstsq(columns: dict[str, np.ndarray], response: str,
           predictors: tuple[str, ...]) -> np.ndarray:
    y = columns[response]
    design = np.column_stack([np.ones(y.size),
                              *(columns[p] for p in predictors)])
    coefficients, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    return coefficients


def _combined_slope(columns: dict[str, np.ndarray],
                    weights: tuple[float, float, float]) -> float:
    """Slope of ``Y`` on ``X1 - w2*X2 - w3*X3`` by two-pass moments."""
    combined = (columns["X1"] - weights[1] * columns["X2"]
                - weights[2] * columns["X3"])
    deviations = combined - combined.mean()
    y = columns["Y"]
    return float(np.mean(deviations * (y - y.mean()))
                 / np.mean(deviations * deviations))


@dataclass(frozen=True)
class Reference:
    """Expected outputs of every workload, from ``numpy.linalg.lstsq``."""

    full: tuple[float, ...]       # Y ~ 1 + X1 + X2 + X3
    aux: tuple[float, ...]        # X1 ~ 1 + X2 + X3
    subset: tuple[float, ...]     # Y ~ 1 + X2 + X3
    pair: tuple[float, ...]       # Y ~ 1 + X1 + X2
    sweep_roots: tuple[float, ...]
    surface_values: tuple[float, ...]
    sweep_values: tuple[float, ...]
    surface_undefined: int
    sweep_undefined: int

    @property
    def mapped(self) -> tuple[float, ...]:
        """Full-model coefficients expressed in ``(X1*, X2, X3)``."""
        a, b1, b2, b3 = self.full
        return (a, b1, b2 + b1 * self.aux[1], b3 + b1 * self.aux[2])

    def biased(self, relative: float) -> "Reference":
        """A deliberately wrong copy, every slope scaled by ``1 + relative``.

        Used to show that the checks catch a disagreement."""
        def scale(values):
            return tuple(v * (1.0 + relative) for v in values)
        return Reference(scale(self.full), scale(self.aux),
                         scale(self.subset), scale(self.pair),
                         scale(self.sweep_roots), scale(self.surface_values),
                         scale(self.sweep_values), self.surface_undefined,
                         self.sweep_undefined)


def _undefined_count(columns: dict[str, np.ndarray],
                     weights: np.ndarray) -> int:
    """Grid points where ``var(X1 - w2*X2 - w3*X3)`` is zero to rounding.

    ``weights`` holds one ``(1, -w2, -w3)`` row per point; the variance is
    the quadratic form of the predictors' covariance matrix.
    """
    x = np.column_stack([columns["X1"], columns["X2"], columns["X3"]])
    x = x - x.mean(axis=0)
    cov = x.T @ x / x.shape[0]
    variance = np.einsum("pi,ij,pj->p", weights, cov, weights)
    scale = (weights * weights) @ np.diag(cov)
    return int(np.count_nonzero(variance <= _DEFINED_FLOOR * scale))


def reference(columns: dict[str, np.ndarray]) -> Reference:
    """Reference answers for data exactly as the program receives it."""
    full = _lstsq(columns, "Y", ("X1", "X2", "X3"))
    aux = _lstsq(columns, "X1", ("X2", "X3"))
    subset = _lstsq(columns, "Y", ("X2", "X3"))
    pair = _lstsq(columns, "Y", ("X1", "X2"))
    c12 = _lstsq(columns, "X1", ("X2",))[1]
    roots = tuple(sorted((float(c12), float(-pair[2] / pair[1]))))
    g2, g3 = np.meshgrid(SURFACE_GRID, SURFACE_GRID, indexing="ij")
    surface_weights = np.column_stack(
        [np.ones(g2.size), -g2.ravel(), -g3.ravel()])
    sweep_weights = np.column_stack(
        [np.ones(SWEEP_GRID.size), -SWEEP_GRID, np.zeros(SWEEP_GRID.size)])
    return Reference(
        full=tuple(map(float, full)),
        aux=tuple(map(float, aux)),
        subset=tuple(map(float, subset)),
        pair=tuple(map(float, pair)),
        sweep_roots=roots,
        surface_values=tuple(
            _combined_slope(columns, (1.0, SURFACE_GRID[i], SURFACE_GRID[j]))
            for i, j in SURFACE_SAMPLES),
        sweep_values=tuple(_combined_slope(columns, (1.0, SWEEP_GRID[i], 0.0))
                           for i in SWEEP_SAMPLES),
        surface_undefined=_undefined_count(columns, surface_weights),
        sweep_undefined=_undefined_count(columns, sweep_weights),
    )
