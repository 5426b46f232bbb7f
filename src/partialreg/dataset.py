"""Immutable named-column datasets that every fit draws from."""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from .errors import DuplicateColumn, LengthMismatch, TooFewRows, UnknownColumn

__all__ = ["Dataset"]


def _frozen(values, what: str) -> np.ndarray:
    """``values`` itself if it is a read-only float64 array owning its
    memory, as every array this package freezes is; else a read-only copy.
    Other iterables are listed first, since numpy reads no generator.  Text
    and complex values raise ValueError naming ``what``."""
    if (type(values) is np.ndarray and values.dtype == np.float64
            and values.flags.owndata and not values.flags.writeable):
        return values
    if isinstance(values, (str, bytes, bytearray)):
        raise ValueError(f"{what} must hold numbers, not text")
    listed = not isinstance(values, np.ndarray) and isinstance(values, Iterable)
    arr = np.array(list(values)) if listed else np.asarray(values)
    if arr.dtype.kind not in "biufO":
        raise ValueError(f"{what} must hold real numbers, not {arr.dtype}")
    try:  # an object array may still hold a complex number or text
        arr = arr.astype(np.float64, copy=not listed)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{what} must hold real numbers: {err}") from None
    arr.setflags(write=False)
    return arr


def _freeze(values: Iterable[float], name: str, n: int | None) -> np.ndarray:
    """``values`` as a checked, frozen column."""
    if not isinstance(name, str) or not name:
        raise ValueError("column names must be non-empty strings")
    arr = _frozen(values, f"column {name!r}")
    if arr.ndim != 1:
        raise ValueError(f"column {name!r} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"column {name!r} contains a non-finite value")
    if n is not None and arr.size != n:
        raise LengthMismatch(
            f"column {name!r} has {arr.size} rows, expected {n}")
    return arr


class Dataset:
    """Named columns of equal-length, finite, float64 observations.

    A Dataset is a value: its arrays are frozen against writes and every
    operation that "adds" a column returns a new instance.  Column order is
    the insertion order and is preserved by every derived dataset.

    Parameters
    ----------
    columns:
        Mapping from column name to a sequence of numbers.  At least two
        rows are required (no statistic here is defined on fewer), names
        must be non-empty strings, and all columns must share one length.
    """

    __slots__ = ("_names", "_columns", "_n")

    def __init__(self, columns: Mapping[str, Iterable[float]]):
        if not columns:
            raise ValueError("a dataset needs at least one column")
        frozen: dict[str, np.ndarray] = {}
        n: int | None = None
        for name, values in columns.items():
            frozen[name] = _freeze(values, name, n)
            n = frozen[name].size
        assert n is not None
        if n < 2:
            raise TooFewRows(f"need at least 2 rows, got {n}")
        self._names = tuple(frozen)
        self._columns = frozen
        self._n = n

    # ------------------------------------------------------------------
    # inspection

    @property
    def n(self) -> int:
        """Number of rows."""
        return self._n

    @property
    def names(self) -> tuple[str, ...]:
        """Column names in insertion order."""
        return self._names

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        cols = ", ".join(self._names)
        return f"Dataset(n={self._n}, columns=[{cols}])"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._names == other._names and all(
            np.array_equal(self._columns[c], other._columns[c])
            for c in self._names)

    def column(self, name: str) -> np.ndarray:
        """Return the named column as a read-only float64 array."""
        try:
            return self._columns[name]
        except KeyError:
            raise UnknownColumn(f"no column named {name!r}; "
                                f"have {list(self._names)}") from None

    def require(self, *names: str) -> None:
        """Raise :class:`UnknownColumn` unless every name is present."""
        for name in names:
            if name not in self._columns:
                self.column(name)  # raises with the standard message

    def items(self) -> Iterable[tuple[str, np.ndarray]]:
        """Yield ``(name, column)`` pairs in column order."""
        for name in self._names:
            yield name, self._columns[name]

    # ------------------------------------------------------------------
    # derivation

    def with_column(self, name: str, values: Iterable[float]) -> "Dataset":
        """Return a new dataset with ``values`` appended under ``name``."""
        if name in self._columns:
            raise DuplicateColumn(f"column {name!r} already exists")
        return self._derive({name: _freeze(values, name, self._n)})

    def replace_columns(self, replacements: Mapping[str, Iterable[float]]
                        ) -> "Dataset":
        """Return a new dataset with the named columns' values swapped out."""
        self.require(*replacements)
        return self._derive({name: _freeze(replacements[name], name, self._n)
                             for name in self._names if name in replacements})

    def _derive(self, fresh: Mapping[str, np.ndarray]) -> "Dataset":
        # Arrays already here are frozen and valid; ``fresh`` ones are too.
        columns = {**self._columns, **fresh}
        derived = object.__new__(Dataset)
        derived._names = tuple(columns)
        derived._columns = columns
        derived._n = self._n
        return derived
