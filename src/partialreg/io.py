"""Strict CSV ingestion and emission of datasets.

The accepted format is deliberately narrow: comma-separated, one header
row of unique non-empty column names, every data cell a finite number,
every row exactly as wide as the header.  Anything else is rejected with
a parse error carrying 1-based file coordinates (the header is row 1).

The file is read once, as bytes.  A plain numeric body (only digits,
signs, ``.``, ``e``, ``E``, commas, spaces and ``\\n``, no empty line and
no line over :func:`csv.field_size_limit`) is parsed by one numpy call,
whose result is kept only when it has one row per line, one column per
header name and no non-finite value.  Every other file, and every plain
body numpy rejects, goes through the row-by-row reader, which is the only
judge of what is malformed: results and errors are the same on both
routes.

Numbers are emitted with 12 significant digits.  That printing is a
fixpoint: loading an emitted file and emitting it again reproduces the
bytes, so emitted CSVs round-trip exactly.
"""

from __future__ import annotations

import codecs
import csv
import math
import os
from io import BytesIO, StringIO, TextIOWrapper

import numpy as np

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

_NUMBER_FORMAT = ".12g"  # 12 significant digits, the printing fixpoint
_PLAIN_BYTES = b"0123456789+-.eE, \n"
_WRITE_BLOCK_ROWS = 8192


def format_number(value: float) -> str:
    """Render a float with 12 significant digits."""
    return format(float(value), _NUMBER_FORMAT)


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
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read {os.fspath(path)!r}: {exc}") from exc
    ds = _read_plain(data)
    return ds if ds is not None else _read_strict(data, path)


def _header_names(cells: list[str]) -> list[str]:
    if not cells:
        raise ParseError("empty header", row=1)
    header = [name.strip() for name in cells]
    seen: dict[str, int] = {}
    for j, name in enumerate(header, start=1):
        if not name:
            raise ParseError("empty column name in header", row=1, column=j)
        if name in seen:
            raise DuplicateHeader(
                f"column name {name!r} appears at positions "
                f"{seen[name]} and {j}", row=1, column=j)
        seen[name] = j
    return header


def _read_plain(data: bytes) -> Dataset | None:
    """The dataset of a plain numeric body, or None when only the strict
    reader can tell.

    numpy's parser accepts text ``float`` rejects (``5\\x1c``) and parses
    a field over the csv size limit, so the byte and length guards here
    are what keeps an accepted result equal to the strict reader's.
    """
    header, _, body = data.removeprefix(codecs.BOM_UTF8).partition(b"\n")
    limit = csv.field_size_limit()
    if (not body or b'"' in header or b"\r" in header or len(header) > limit
            or body.translate(None, _PLAIN_BYTES)):
        return None
    lines = body.decode("ascii").removesuffix("\n").split("\n")
    if "" in lines or max(map(len, lines)) > limit:
        return None
    try:
        cells = next(csv.reader([header.decode("utf-8")]))
    except UnicodeDecodeError:
        return None
    names = _header_names(cells)
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape != (len(lines), len(names)) or not np.isfinite(table).all():
        return None
    return Dataset({name: table[:, j] for j, name in enumerate(names)})


def _read_strict(data: bytes, path: str | os.PathLike) -> Dataset:
    """Parse ``data`` row by row, raising at the first malformed cell."""
    reader = csv.reader(TextIOWrapper(BytesIO(data), encoding="utf-8-sig",
                                      newline=""))
    try:
        rows = list(reader)
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{os.fspath(path)!r} is not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(f"line {reader.line_num}: {exc}",
                         row=reader.line_num) from exc

    if not rows:
        raise ParseError(f"{os.fspath(path)!r} is empty")
    header = _header_names(rows[0])

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
    """Serialize a dataset in the same strict format, 12 digits.

    Raises :class:`IoError` if a column name starts or ends with
    whitespace, which :func:`load_csv` strips and so could not give back.
    """
    for name in ds.names:
        if name != name.strip():
            raise IoError(f"column name {name!r} starts or ends with "
                          f"whitespace, which a CSV header cannot keep")
    columns = [ds.column(name) for name in ds.names]
    row = ",".join(["%" + _NUMBER_FORMAT] * len(columns)) + "\n"
    header = StringIO()  # "\r\n" makes it quote names holding \r or \n
    csv.writer(header, lineterminator="\r\n").writerow(ds.names)
    parts = [header.getvalue()[:-2] + "\n"]
    for start in range(0, ds.n, _WRITE_BLOCK_ROWS):
        block = np.column_stack(
            [col[start:start + _WRITE_BLOCK_ROWS] for col in columns])
        parts.append(row * len(block) % tuple(block.ravel().tolist()))
    return "".join(parts)


def save_csv(ds: Dataset, path: str | os.PathLike) -> None:
    """Write :func:`to_csv` output to a file."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(to_csv(ds))
    except OSError as exc:
        raise IoError(f"cannot write {os.fspath(path)!r}: {exc}") from exc
