"""Strict CSV ingestion and emission of datasets.

The accepted format is deliberately narrow: comma-separated, one header
row of unique non-empty column names, every data cell a finite number,
every row exactly as wide as the header.  Anything else is rejected with
a parse error carrying 1-based file coordinates (the header is row 1).

The file is read once, as bytes.  A plain numeric body (only digits,
signs, ``.``, ``e``, ``E``, commas, spaces and ``\\n``, no line over
:func:`csv.field_size_limit`) is parsed from those bytes by one numpy
call, whose result is kept only when it has one row per line (numpy skips
a blank line, so a body with one falls short), one column per header name
and no non-finite value.  Every other file, and every plain body numpy
rejects, goes through the row-by-row reader, which is the only judge of
what is malformed: results and errors are the same on both routes.

Numbers are emitted with 12 significant digits, byte for byte what
``%.12g`` prints.  That printing is a fixpoint: loading an emitted file
and emitting it again reproduces the bytes, so emitted CSVs round-trip
exactly.  :func:`to_csv`, like the CLI's sweep and surface tables, prints
blocks of rows in numpy.  A cell whose decimal exponent is -4..11 (the
ones ``%g`` prints without an exponent) gets its 12-digit mantissa
``D = rint(y)`` from ``y = fl(|x| * 10**k)``, one correctly rounded
product by an exact power of ten, 0 <= k <= 15 (Clinger's fast path).
Below 2**40 every half-integer is a double and rounding is monotone, so
unless ``y`` is itself a half-integer, the exact ``|x| * 10**k`` lies on
the same side of every half-integer as ``y`` and rounds to the same
``D``.  Every other cell (zero, subnormal, exponent notation, a possible
tie) is printed by Python's own ``%``, one call per block over those
cells only, as Grisu3 hands the cases it cannot prove to an exact
printer.
"""

from __future__ import annotations

import codecs
import csv
import functools
import math
import os
from collections.abc import Sequence
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
_WRITE_BLOCK_ROWS = 4096

# The block printer's tables, built by ``_tables`` on first use.  A cell is
# laid out in a 32-byte row, read as four little-endian 64-bit words:
#   "-0" d0..d11 ".000" d0..d11 sep pad
# where d0..d11 are the digits of its 12-digit mantissa D.  Which bytes a
# cell keeps depends only on its sign, its decimal exponent e (-4..11)
# and its number of significant digits s (1..12): "-" if negative; for
# e < 0, "0." then -e-1 zeros then d0..d(s-1) from the second copy; for
# e >= 0, d0..de from the first copy, then "." and d(e+1)..d(s-1) from
# the second when s > e+1.  A cell the fast path cannot prove keeps
# "%.12g" and its separator instead, for Python's ``%`` to fill in.
_ROW = np.dtype("<u8")
_ROW_BYTES = 32
_SCALE = np.array([float(10 ** max(k, 0)) for k in range(-2, 18)])  # [k+2]
_NEWLINE = np.array((ord(",") ^ ord("\n")) << 48, _ROW)  # word 3: , -> \n
_SPEC = ("%" + _NUMBER_FORMAT).encode("ascii")
_SPEC_WORD = np.frombuffer(_SPEC.ljust(8, b"\0"), _ROW)[0]


@functools.cache
def _tables():
    """The layout tables: each 4-digit group's bytes as a word, the
    significant digits it adds as D's first, second or third group (the
    trailing zeros of the last nonzero group dropped), the fixed bytes of a
    row, and the bytes a cell keeps: one row per ``(sign, e + 4, s - 1)``
    of a fixed-notation cell, then the row of a fallback cell."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # of 0..9999
    code = (np.ascontiguousarray(digits + ord("0")).view("<u4").ravel()
            .astype(_ROW))
    significant = ((digits != 0) * np.arange(1, 5, dtype=np.uint8)).max(axis=1)
    significant_at = (significant,
                      np.where(significant, significant + 4, 0),
                      np.where(significant, significant + 8, 0))
    fixed = np.frombuffer(b"-0" + bytes(12) + b".000" + bytes(12) + b",\0",
                          np.uint8).view(_ROW)

    sign = np.arange(2)[:, None, None, None]
    e = np.arange(-4, 12)[None, :, None, None]
    s = np.arange(1, 13)[None, None, :, None]
    at = np.arange(_ROW_BYTES)
    lo = np.maximum(e + 1, 0)  # first digit kept from the second copy
    first, zero, second = at - 2, at - 15, at - 18
    keep = (((at == 0) & (sign == 1)) | ((at == 1) & (e < 0))
            | ((0 <= first) & (first < 12) & (first <= e))
            | ((at == 14) & (s > lo))
            | ((0 <= zero) & (zero < 3) & (zero < -e - 1))
            | ((0 <= second) & (second < 12) & (lo <= second) & (second < s))
            | (at == 30))
    fallback = (at < len(_SPEC)) | (at == 30)
    return code, significant_at, fixed, np.vstack(
        [keep.reshape(-1, _ROW_BYTES), fallback]).view(_ROW)


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
    """The dataset of a plain body, or None for the strict reader to judge.

    numpy accepts text ``float`` rejects (``5\\x1c``), fields over the csv
    size limit and blank lines (it skips them): the guards and the row
    count keep an accepted result equal to the strict reader's.
    """
    data = data.removeprefix(codecs.BOM_UTF8)
    header, limit = data[:data.find(b"\n")], csv.field_size_limit()
    # 1 + each line's length after the header's newline (1: absent tail).
    # No step over 1 (or no newline at all): no row, and numpy would warn.
    steps = np.diff(np.flatnonzero(np.frombuffer(data, np.uint8)
                                   == ord("\n")), append=len(data))
    if (b'"' in header or b"\r" in header or len(header) > limit
            or not 1 < steps.max(initial=0) <= limit + 1
            or data.translate(None, _PLAIN_BYTES)
            != header.translate(None, _PLAIN_BYTES)):
        return None
    try:  # a header that is not UTF-8 or a line numpy cannot split
        names = _header_names(next(csv.reader([header.decode("utf-8")])))
        table = np.loadtxt(TextIOWrapper(BytesIO(data), encoding="utf-8"),
                           delimiter=",", comments=None, skiprows=1, ndmin=2)
    except ValueError:
        return None
    rows = len(steps) - (steps[-1] == 1)
    if table.shape != (rows, len(names)) or not np.isfinite(table).all():
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
    return _table(ds.names, [ds.column(name) for name in ds.names])


def _table(names: Sequence[str], columns: Sequence[np.ndarray]) -> str:
    """A header of ``names`` over the rows of the equally long float
    ``columns``, printed ``_WRITE_BLOCK_ROWS`` rows at a time; zero rows
    give the header alone."""
    header = StringIO()  # "\r\n" makes it quote names holding \r or \n
    csv.writer(header, lineterminator="\r\n").writerow(names)
    parts = [header.getvalue()[:-2] + "\n"]
    for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
        parts.append(_print_block(np.column_stack(
            [col[start:start + _WRITE_BLOCK_ROWS] for col in columns])))
    return "".join(parts)


def _print_block(block: np.ndarray) -> str:
    """Rows of ``block`` as ``%.12g`` cells joined by ``,``, each ended
    by ``\\n``; see the module docstring for why every byte is exact."""
    rows, width = block.shape
    x = block.ravel()
    fast, exponent, mantissa = _fixed_notation(x)
    slow = np.flatnonzero(~fast)
    if slow.size < x.size:
        layout = _layout(x, exponent, mantissa, slow, width)
    else:  # every cell is Python's: the layout is all specs
        layout = (b",".join([_SPEC] * width) + b"\n") * rows
    if slow.size:
        layout %= tuple(x[slow].tolist())
    return layout.decode("ascii")


def _fixed_notation(x: np.ndarray):
    """Which cells of ``x`` provably print in fixed notation, with their
    decimal exponents and 12-digit mantissas (meaningful where they do)."""
    ax = np.abs(x)
    # k = 11 - floor(log10|x|) puts 12 digits before the point; corrected
    # once, since log10 may round across a power of ten.  Out-of-range k
    # (-2, -1, 16, 17) only marks a cell for the fallback.
    with np.errstate(divide="ignore"):  # log10(0) = -inf
        k = np.clip(11 - np.floor(np.log10(ax)), -1, 16).astype(np.intp)
    y = ax * np.take(_SCALE, k + 2)
    k += (y < 1e11).view(np.int8)
    k -= (y >= 1e12).view(np.int8)
    y = ax * np.take(_SCALE, k + 2)
    mantissa = np.rint(y)
    carry = mantissa == 1e12  # 999999999999.6 -> 1e11 one decade up
    # With log10 off by under a decade the range tests always hold; they
    # keep D at 12 digits without resting on that.
    fast = ((y - np.floor(y) != 0.5) & (y >= 1e11) & (mantissa <= 1e12)
            & (k >= carry) & (k <= 15))
    mantissa[carry] = 1e11
    return fast, 11 - k + carry, mantissa


def _layout(x: np.ndarray, exponent: np.ndarray, mantissa: np.ndarray,
            slow: np.ndarray, width: int) -> bytes:
    """The text of the cells ``x`` in rows of ``width``, each fast cell
    printed and each ``slow`` one left as a ``%.12g`` spec."""
    code_table, significant_at, fixed, keep_table = _tables()
    mantissa[slow] = 1e11
    high = np.floor(mantissa / 1e8)  # exact: D < 2**53, so no rounding up
    rest = mantissa - high * 1e8
    middle = np.floor(rest / 1e4)
    groups = [g.astype(np.intp) for g in (high, middle, rest - middle * 1e4)]
    significant = np.maximum.reduce(
        [np.take(table, g) for table, g in zip(significant_at, groups)])
    pattern = (np.signbit(x) * 16 + exponent + 4) * 12 + significant - 1
    pattern[slow] = len(keep_table) - 1  # the fallback row
    keep = np.take(keep_table, pattern, axis=0)

    # d0..d5 follow the two fixed bytes of words 0 and 2; d6..d11 precede
    # the two fixed bytes of words 1 and 3.
    code = [np.take(code_table, g) for g in groups]
    head = (code[0] << 16 | code[1] << 48).reshape(-1, width)
    tail = (code[1] >> 16 | code[2] << 16).reshape(-1, width)
    cells = np.empty(head.shape + (4,), _ROW)
    for word, digits in enumerate((head, tail, head, tail)):
        np.bitwise_or(digits, fixed[word], out=cells[:, :, word])
    cells[:, -1, 3] ^= _NEWLINE
    cells = cells.reshape(-1, 4)
    cells[slow, 0] = _SPEC_WORD
    return np.compress(keep.view(np.bool_).ravel(),
                       cells.view(np.uint8).ravel()).tobytes()


def save_csv(ds: Dataset, path: str | os.PathLike) -> None:
    """Write :func:`to_csv` output to a file."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(to_csv(ds))
    except OSError as exc:
        raise IoError(f"cannot write {os.fspath(path)!r}: {exc}") from exc
