"""CSV loading, saving, and 12-digit number formatting."""

import codecs
import csv
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partialreg import (
    Dataset,
    DuplicateHeader,
    IoError,
    MissingValue,
    NonNumericCell,
    ParseError,
    RaggedRow,
    TooFewRows,
    format_number,
    load_csv,
    round_to_printed,
    save_csv,
    to_csv,
)
from partialreg.errors import PartialRegError
from partialreg.io import (
    _PLAIN_BYTES,
    _WRITE_BLOCK_ROWS,
    _read_plain,
    _read_strict,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestFormatNumber:
    def test_twelve_significant_digits(self):
        assert format_number(1 / 3) == "0.333333333333"
        assert format_number(15 / 11) == "1.36363636364"

    def test_integers_stay_short(self):
        assert format_number(2.0) == "2"
        assert format_number(-10.0) == "-10"

    def test_printing_is_a_fixpoint(self):
        # Re-printing the parsed value must reproduce the same text.
        rng = np.random.default_rng(7)
        for value in rng.normal(scale=1e3, size=200):
            text = format_number(value)
            assert format_number(float(text)) == text

    def test_round_to_printed_matches_parse(self):
        value = 1 / 3
        assert round_to_printed(value) == float(format_number(value))

    def test_roundtrip_relative_error_bound(self):
        rng = np.random.default_rng(11)
        for value in rng.normal(scale=1e4, size=500):
            err = abs(round_to_printed(value) - value)
            assert err <= 5e-12 * abs(value)


class TestLoadCsv:
    def test_loads_columns_in_header_order(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n")
        ds = load_csv(path)
        assert ds.names == ("a", "b")
        assert ds.column("a").tolist() == [1.0, 3.0]

    def test_strips_whitespace_around_cells(self, tmp_path):
        path = write(tmp_path, "a, b\n 1 , 2\n3,4\n")
        ds = load_csv(path)
        assert ds.names == ("a", "b")
        assert ds.column("b").tolist() == [2.0, 4.0]

    def test_missing_file_raises_io_error(self, tmp_path):
        with pytest.raises(IoError):
            load_csv(tmp_path / "absent.csv")

    def test_empty_file_raises_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, ""))

    @pytest.mark.parametrize("text", ["\n", "\n1,2\n3,4\n"])
    def test_empty_header_line_raises_parse_error(self, tmp_path, text):
        with pytest.raises(ParseError, match="empty header") as exc:
            load_csv(write(tmp_path, text))
        assert type(exc.value) is ParseError
        assert exc.value.row == 1

    def test_duplicate_header_positions(self, tmp_path):
        with pytest.raises(DuplicateHeader) as exc:
            load_csv(write(tmp_path, "a,a\n1,2\n3,4\n"))
        assert exc.value.row == 1
        assert exc.value.column == 2

    def test_blank_header_cell(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_csv(write(tmp_path, "a,\n1,2\n3,4\n"))
        assert exc.value.row == 1

    def test_ragged_row_reports_line(self, tmp_path):
        with pytest.raises(RaggedRow) as exc:
            load_csv(write(tmp_path, "a,b\n1,2\n3\n"))
        assert exc.value.row == 3

    def test_blank_cell_reports_coordinates(self, tmp_path):
        with pytest.raises(MissingValue) as exc:
            load_csv(write(tmp_path, "a,b\n1,\n3,4\n"))
        assert (exc.value.row, exc.value.column) == (2, 2)

    def test_non_numeric_cell(self, tmp_path):
        with pytest.raises(NonNumericCell) as exc:
            load_csv(write(tmp_path, "a,b\n1,x\n3,4\n"))
        assert (exc.value.row, exc.value.column) == (2, 2)

    def test_non_finite_cell_is_rejected(self, tmp_path):
        with pytest.raises(NonNumericCell):
            load_csv(write(tmp_path, "a,b\n1,inf\n3,4\n"))
        with pytest.raises(NonNumericCell):
            load_csv(write(tmp_path, "a,b\n1,nan\n3,4\n"))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfX1,Y\n1,2\n3,5\n")
        ds = load_csv(path)
        assert ds.names == ("X1", "Y")
        assert ds.column("X1").tolist() == [1.0, 3.0]

    def test_non_utf8_bytes_raise_parse_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"X1,Y\n1,2\n\xff,5\n")
        with pytest.raises(ParseError, match="not UTF-8") as exc:
            load_csv(path)
        assert isinstance(exc.value.__cause__, UnicodeDecodeError)

    def test_oversized_field_raises_parse_error(self, tmp_path):
        # csv.reader refuses fields over csv.field_size_limit() (131072).
        path = write(tmp_path, "a,b\n1,2\n" + "1" * 131073 + ",3\n4,5\n")
        with pytest.raises(ParseError, match="field larger") as exc:
            load_csv(path)
        assert exc.value.row == 3
        assert isinstance(exc.value.__cause__, csv.Error)

    def test_single_data_row_is_too_few(self, tmp_path):
        with pytest.raises(TooFewRows):
            load_csv(write(tmp_path, "a,b\n1,2\n"))

    def test_underscore_digits_load_as_python_floats(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,b\n1_0,2\n3,4\n"))
        assert ds.column("a").tolist() == [10.0, 3.0]

    def test_file_separator_byte_is_not_a_number(self, tmp_path):
        # numpy's parser reads "5\x1c" as 5.0; float() does not.
        with pytest.raises(NonNumericCell) as exc:
            load_csv(write(tmp_path, "a,b\n1,2\n3,5\x1c\n"))
        assert (exc.value.row, exc.value.column) == (3, 2)

    def test_oversized_zero_padded_number_raises_parse_error(self, tmp_path):
        # numpy parses this field as 1.0; csv refuses it for its length.
        path = write(tmp_path, "a,b\n1,2\n" + "0" * 131072 + "1,3\n4,5\n")
        with pytest.raises(ParseError, match="field larger") as exc:
            load_csv(path)
        assert exc.value.row == 3

    def test_blank_line_mid_file_is_ragged(self, tmp_path):
        with pytest.raises(RaggedRow) as exc:
            load_csv(write(tmp_path, "a,b\n1,2\n\n3,4\n"))
        assert exc.value.row == 3

    def test_crlf_file_loads_as_its_lf_twin(self, tmp_path):
        text = "a,b\n1,2.5\n-3e-2,4\n"
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        assert load_csv(crlf) == load_csv(write(tmp_path, text))


# Cell texts on both sides of the plain-body guard: numbers either reader
# takes, numbers only one of them takes, and text neither takes.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
PLAIN_CELL = st.one_of(
    FINITE.map(repr),
    FINITE.map(lambda v: "%.12g" % v),
    st.floats(-2.3e-308, 2.3e-308).map(repr),
    st.tuples(st.sampled_from(["", "-", "+"]), st.text("0123456789", min_size=1,
                                                      max_size=40),
              st.sampled_from(["", ".", ".5", "e-3", "E+300", "e500"]))
    .map("".join),
    st.integers(-10**30, 10**30).map(str),
)
ODD_CELL = st.sampled_from([
    "1e500", "-1e500", "nan", "infinity", "-inf", "1_0", "5\x1c", "\u0661",
    "\uff11", '"1"', '"1,2"', "", " ", "\t", "1e", ".", "+", "0x10", "1 2",
    "0" * 131072 + "1", "1" * 131073])
PAD = st.sampled_from(["", "", "", " ", "  ", "\t"])
CELL = st.one_of(PLAIN_CELL, PLAIN_CELL, PLAIN_CELL, ODD_CELL,
                 st.tuples(PAD, PLAIN_CELL, PAD).map("".join))


@st.composite
def csv_bytes(draw):
    width = draw(st.integers(1, 4))
    odd = draw(st.booleans())
    names = (st.lists(st.sampled_from(["a", "b", " a", ""]), min_size=width,
                      max_size=width).map(",".join) if odd
             else st.just(",".join(f"c{j}" for j in range(width))))
    header = draw(names)
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        cells = draw(st.lists(CELL if odd else PLAIN_CELL,
                              min_size=width, max_size=width))
        if odd:
            cells = draw(st.sampled_from(
                [cells, cells, cells, cells[:-1], cells + [""], []]))
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"])) if odd else "\n"
    last = draw(st.sampled_from([newline, ""])) if lines else ""
    return (header + newline + newline.join(lines) + last).encode()


def _error(exc):
    return (type(exc), str(exc), getattr(exc, "row", None),
            getattr(exc, "column", None))


def _bits(ds):
    return ds.names, [ds.column(name).view(np.int64).tolist()
                      for name in ds.names]


def _result(call):
    """``call()``'s value, or its error as type, message, row and column."""
    try:
        return call()
    except (PartialRegError, ValueError) as exc:
        return _error(exc)


LIMIT = csv.field_size_limit()


def _plain(data):
    """Whether ``data`` passes the plain route's guard as documented: a
    header with no ``"`` or ``\\r`` and no longer than the csv field size
    limit, over a body of only ``_PLAIN_BYTES`` with no blank line and no
    line over that limit."""
    header, _, body = data.removeprefix(codecs.BOM_UTF8).partition(b"\n")
    return (b'"' not in header and b"\r" not in header
            and len(header) <= LIMIT and not body.translate(None, _PLAIN_BYTES)
            and all(0 < len(line) <= LIMIT
                    for line in body.removesuffix(b"\n").split(b"\n")))


def _padded_row(length):
    """``b"1,2\\n"`` widened to ``length`` bytes before its newline, one
    field zero-padded and the other space-padded, each under the limit."""
    left = (length - 1) // 2
    return (b"1".rjust(left, b"0") + b"," + b"2".rjust(length - 1 - left)
            + b"\n")


class TestPlainRoute:
    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(data=csv_bytes())
    @example(data=b"a,b\n1,2\n" + b"0" * 131072 + b"1,3\n4,5\n")
    @example(data=b"a,b\n1,2\n3,5\x1c\n")
    @example(data=b"a,a\n1,2\n" + b"1" * 131073 + b",3\n4,5\n")
    # The guard's edges: a header or line of exactly the limit is taken,
    # one byte more is not, with or without its newline; blank and
    # whitespace-only lines are declined.
    @example(data=b"a" * (LIMIT - 2) + b",b\n1,2\n3,4\n")
    @example(data=b"a" * (LIMIT - 1) + b",b\n1,2\n3,4\n")
    @example(data=b"a\n1\n" + b"1".rjust(LIMIT + 1, b"0") + b"\n")
    @example(data=b"a,b\n" + _padded_row(LIMIT) + b"3,4\n")
    @example(data=b"a,b\n3,4\n" + _padded_row(LIMIT)[:-1])
    @example(data=b"a,b\n" + _padded_row(LIMIT + 1) + b"3,4\n")
    @example(data=b"a,b\n3,4\n" + _padded_row(LIMIT + 1)[:-1])
    @example(data=b"a,b\n\n1,2\n3,4\n")
    @example(data=b"a,b\n1,2\n3,4\n\n")
    @example(data=b"a,b\n\n\n")
    @example(data=b"a,b\n1,2\n \n3,4\n")
    @example(data=b"a\n1\n   \n3\n")
    def test_numpy_route_agrees_with_the_strict_reader(self, data,
                                                      tmp_path_factory):
        """The plain route takes every file its guard admits that the strict
        reader accepts, and gives the strict result on whatever it takes;
        on a file it declines, ``load_csv`` gives the strict result or
        error."""
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_bytes(data)
        strict = _result(lambda: _read_strict(data, path))
        fast = _result(lambda: _read_plain(data))
        if fast is None:
            assert not (isinstance(strict, Dataset) and _plain(data)), data
            fast = _result(lambda: load_csv(path))
        if isinstance(strict, Dataset):
            assert isinstance(fast, Dataset), (data, fast)
            assert _bits(fast) == _bits(strict), data
        else:
            assert fast == strict, data

    def test_plain_file_takes_the_numpy_route(self, d1):
        data = to_csv(d1).encode()
        fast = _read_plain(data)
        assert fast is not None
        assert _bits(fast) == _bits(_read_strict(data, "d1.csv"))

    def test_non_utf8_header_over_a_plain_body_gets_the_strict_error(
            self, tmp_path):
        data = b"X\xff1,Y\n1,2\n3,4\n"
        path = tmp_path / "header.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError) as got:
            load_csv(path)
        with pytest.raises(ParseError) as want:
            _read_strict(data, path)
        assert _error(got.value) == _error(want.value)


class TestWriteCsv:
    def test_to_csv_text(self):
        ds = Dataset({"a": [1.0, 2.5], "b": [1 / 3, 4.0]})
        text = to_csv(ds)
        assert text == "a,b\n1,0.333333333333\n2.5,4\n"

    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None)
    @given(table=st.integers(1, 4).flatmap(lambda k: st.lists(
        st.lists(st.one_of(FINITE, st.sampled_from(
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308])),
            min_size=k, max_size=k), min_size=2, max_size=12)))
    def test_to_csv_matches_per_value_format(self, table):
        ds = Dataset({f"c{j}": column for j, column in enumerate(zip(*table))})
        want = "".join(",".join(format(v, ".12g") for v in row) + "\n"
                       for row in table)
        assert to_csv(ds) == ",".join(ds.names) + "\n" + want

    @pytest.mark.parametrize("header, name", [
        ('"a,b",c,d', "a,b"),
        ('a,"""hi"" there",d', '"hi" there'),
        ('a,"line\nbreak",d', "line\nbreak"),
        ('a,"carriage\rreturn",d', "carriage\rreturn"),
    ], ids=["comma", "quote", "newline", "carriage_return"])
    def test_header_names_that_need_quotes_round_trip(self, tmp_path,
                                                      header, name):
        ds = load_csv(write(tmp_path, f"{header}\n1,2,3\n4.5,5,6\n"))
        assert name in ds
        text = to_csv(ds)
        back = load_csv(write(tmp_path, text, "back.csv"))
        assert back == ds
        assert to_csv(back) == text

    @pytest.mark.parametrize("name", [" a", "b ", "\tc", " "])
    def test_name_load_csv_would_strip_is_rejected(self, name):
        ds = Dataset({name: [1.0, 2.0], "d": [3.0, 4.0]})
        with pytest.raises(IoError, match=re.escape(repr(name))):
            to_csv(ds)

    def test_unwritable_path_raises_io_error(self, tmp_path):
        ds = Dataset({"a": [1.0, 2.0]})
        with pytest.raises(IoError, match="cannot write"):
            save_csv(ds, tmp_path)

    def test_blocks_cover_every_row_once(self, tmp_path):
        bits = np.random.default_rng(5).integers(
            0, 2**64, size=2 * (_WRITE_BLOCK_ROWS + 3), dtype=np.uint64)
        values = bits.view(np.float64)
        values = np.where(np.isfinite(values), values, 1.0)
        ds = Dataset({"a": values[0::2], "b": values[1::2]})
        text = to_csv(ds)
        assert text.splitlines()[1:] == [
            f"{format_number(a)},{format_number(b)}"
            for a, b in zip(ds.column("a"), ds.column("b"))]
        path = write(tmp_path, text)
        assert to_csv(load_csv(path)) == text

    def test_save_then_load_roundtrips_at_print_precision(self, tmp_path, d1):
        path = tmp_path / "out.csv"
        save_csv(d1, path)
        back = load_csv(path)
        assert back.names == d1.names
        for name in d1.names:
            want = [round_to_printed(v) for v in d1.column(name)]
            assert back.column(name).tolist() == want

    def test_roundtrip_is_exact_for_short_decimals(self, tmp_path):
        ds = Dataset({"a": [1.5, -2.25, 1e10], "b": [0.1, 0.2, 0.3]})
        path = tmp_path / "out.csv"
        save_csv(ds, path)
        back = load_csv(path)
        for name in ds.names:
            assert back.column(name).tolist() == ds.column(name).tolist()


def _adversarial_values(rng, size):
    """Doubles that stress a 12-digit printer: every bit pattern, every
    magnitude, ties and near-ties of the 12th digit, powers of ten and
    their neighbours, the decade boundaries of fixed notation, zeros and
    subnormals."""
    bits = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
    sign = rng.choice([-1.0, 1.0], size)
    log_uniform = sign * 10.0 ** rng.uniform(-320, 308, size)
    fixed = sign * 10.0 ** rng.uniform(-6, 13, size)  # mostly %g's fixed
    mantissa = rng.integers(10**11, 10**12, size).astype(np.float64)
    ties = (mantissa + 0.5) * 10.0 ** rng.integers(-15, 20, size)
    powers = np.array([float(f"1e{p}") for p in range(-25, 26)])
    edges = np.array([1e-5, 1e-4, 1e11, 1e12, 999999999999.5,
                      99999999999.95, 0.0, -0.0, 5e-324,
                      2.2250738585072014e-308, 1.7976931348623157e308])
    exact = np.concatenate([log_uniform, fixed, ties, powers, edges])
    with np.errstate(over="ignore"):  # past the largest double
        neighbours = [np.nextafter(exact, np.inf), np.nextafter(exact, 0.0)]
    values = np.concatenate([bits, exact, -exact, mantissa + 0.5, *neighbours])
    return values[np.isfinite(values)]


def _per_value(columns):
    return "".join(",".join(format(v, ".12g") for v in row) + "\n"
                   for row in zip(*columns))


class TestBlockPrinter:
    """``to_csv`` against Python's own ``format(v, ".12g")``, cell by cell."""

    @pytest.mark.parametrize("rows", [
        2, _WRITE_BLOCK_ROWS - 1, _WRITE_BLOCK_ROWS, _WRITE_BLOCK_ROWS + 1])
    def test_adversarial_doubles(self, rows):
        rng = np.random.default_rng(rows)
        values = rng.permutation(_adversarial_values(rng, rows))
        width = 5
        columns = [values[j::width][:rows] for j in range(width)]
        ds = Dataset({f"c{j}": column for j, column in enumerate(columns)})
        assert to_csv(ds) == ",".join(ds.names) + "\n" + _per_value(columns)

    @pytest.mark.parametrize("scale", [1e-7, 1e13], ids=["small", "large"])
    def test_all_cells_in_exponent_notation(self, scale):
        rng = np.random.default_rng(3)
        columns = [scale * rng.uniform(1, 9, _WRITE_BLOCK_ROWS + 1)
                   for _ in range(2)]
        ds = Dataset({"a": columns[0], "b": columns[1]})
        assert to_csv(ds) == "a,b\n" + _per_value(columns)

    def test_fallback_and_fast_cells_mixed_in_one_row(self):
        rng = np.random.default_rng(4)
        fast = rng.normal(scale=1e3, size=_WRITE_BLOCK_ROWS + 1)
        slow = rng.normal(scale=1e-9, size=fast.size)
        mixed = np.where(rng.random(fast.size) < 0.5, fast, slow)
        mixed[::97] = 0.0
        columns = [fast, slow, mixed, -mixed]
        ds = Dataset({f"c{j}": column for j, column in enumerate(columns)})
        assert to_csv(ds) == "c0,c1,c2,c3\n" + _per_value(columns)

    def test_tables_are_built_on_first_use(self):
        # A process that never prints a CSV does not pay for the tables.
        code = ("import partialreg, partialreg.io as io\n"
                "assert io._tables.cache_info().currsize == 0\n"
                "partialreg.to_csv(partialreg.Dataset({'a': [0.5, 2.0]}))\n"
                "assert io._tables.cache_info().currsize == 1\n")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ,
                            "PYTHONPATH": os.pathsep.join(sys.path)})
