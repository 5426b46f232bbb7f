"""CSV loading, saving, and 12-digit number formatting."""

import csv

import numpy as np
import pytest

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


class TestWriteCsv:
    def test_to_csv_text(self):
        ds = Dataset({"a": [1.0, 2.5], "b": [1 / 3, 4.0]})
        text = to_csv(ds)
        assert text == "a,b\n1,0.333333333333\n2.5,4\n"

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
