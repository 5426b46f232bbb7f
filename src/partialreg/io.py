"""Strict CSV ingestion and emission of datasets.

The accepted format is deliberately narrow: comma-separated, one header
row of unique non-empty column names, every data cell a finite number,
every row exactly as wide as the header.  Anything else is rejected with
a parse error carrying 1-based file coordinates (the header is row 1).

Numbers are emitted with 12 significant digits.  That printing is a
fixpoint: loading an emitted file and emitting it again reproduces the
bytes, so emitted CSVs round-trip exactly.
"""

from __future__ import annotations

import csv
import math
import os

from .dataset import Dataset
from .errors import (
    DuplicateHeader,
    IoError,
    MissingValue,
    NonNumericCell,
    ParseError,
    RaggedRow,
)

__all__ = [
    "format_number",
    "round_to_printed",
    "load_csv",
    "to_csv",
    "save_csv",
]


def format_number(value: float) -> str:
    """Render a float with 12 significant digits."""
    return format(float(value), ".12g")


def round_to_printed(value: float) -> float:
    """The float a consumer gets back after parsing our printed form."""
    return float(format_number(value))


def load_csv(path: str | os.PathLike) -> Dataset:
    """Read a dataset from a strict comma-separated file.

    The file must be UTF-8; a leading byte order mark is skipped.

    Raises
    ------
    IoError
        If the file cannot be opened or read.
    ParseError
        (Or a subclass: :class:`DuplicateHeader`, :class:`RaggedRow`,
        :class:`MissingValue`, :class:`NonNumericCell`.)  If the content is
        not UTF-8, holds a field longer than :func:`csv.field_size_limit`,
        or violates the format (then with row/column coordinates).
    TooFewRows
        If fewer than two data rows survive parsing.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            rows = list(reader)
    except OSError as exc:
        raise IoError(f"cannot read {os.fspath(path)!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{os.fspath(path)!r} is not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(f"line {reader.line_num}: {exc}",
                         row=reader.line_num) from exc

    if not rows:
        raise ParseError(f"{os.fspath(path)!r} is empty")
    header = [name.strip() for name in rows[0]]
    seen: dict[str, int] = {}
    for j, name in enumerate(header, start=1):
        if not name:
            raise ParseError("empty column name in header", row=1, column=j)
        if name in seen:
            raise DuplicateHeader(
                f"column name {name!r} appears at positions "
                f"{seen[name]} and {j}", row=1, column=j)
        seen[name] = j

    columns: dict[str, list[float]] = {name: [] for name in header}
    for i, cells in enumerate(rows[1:], start=2):
        if len(cells) != len(header):
            raise RaggedRow(
                f"row {i} has {len(cells)} cells, expected {len(header)}",
                row=i)
        for j, (name, text) in enumerate(zip(header, cells), start=1):
            if not text.strip():
                raise MissingValue(
                    f"empty value for {name!r}", row=i, column=j)
            try:
                value = float(text)
            except ValueError:
                raise NonNumericCell(
                    f"cannot parse {text!r} as a number",
                    row=i, column=j) from None
            if not math.isfinite(value):
                raise NonNumericCell(
                    f"non-finite value {text!r}", row=i, column=j)
            columns[name].append(value)

    return Dataset(columns)  # TooFewRows when n < 2


def to_csv(ds: Dataset) -> str:
    """Serialize a dataset in the same strict format, 12 digits."""
    lines = [",".join(ds.names)]
    matrix = [ds.column(name) for name in ds.names]
    for i in range(ds.n):
        lines.append(",".join(format_number(col[i]) for col in matrix))
    return "\n".join(lines) + "\n"


def save_csv(ds: Dataset, path: str | os.PathLike) -> None:
    """Write :func:`to_csv` output to a file."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(to_csv(ds))
    except OSError as exc:
        raise IoError(f"cannot write {os.fspath(path)!r}: {exc}") from exc
