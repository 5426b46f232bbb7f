"""Dataset construction, immutability, and derivation."""

import numpy as np
import pytest

from partialreg import (
    Dataset,
    DuplicateColumn,
    LengthMismatch,
    PredictorTransform,
    ResidualizedVariable,
    ShapeMismatch,
    TooFewRows,
    UnknownColumn,
)


class TestConstruction:
    def test_columns_come_back_as_float64(self, d1):
        col = d1.column("X1")
        assert col.dtype == np.float64
        assert col.tolist() == [1, 2, 3, 4, 5, 6]

    def test_names_preserve_insertion_order(self, d1):
        assert d1.names == ("X1", "X2", "Y")

    def test_row_count(self, d1):
        assert d1.n == 6
        assert len(d1) == 6

    def test_accepts_any_number_sequence(self):
        ds = Dataset({"a": (1, 2.5), "b": np.array([3, 4])})
        assert ds.column("a").tolist() == [1.0, 2.5]

    def test_rejects_empty_mapping(self):
        with pytest.raises(ValueError):
            Dataset({})

    def test_rejects_single_row(self):
        with pytest.raises(TooFewRows):
            Dataset({"a": [1.0]})

    def test_rejects_unequal_lengths(self):
        with pytest.raises(LengthMismatch):
            Dataset({"a": [1.0, 2.0], "b": [1.0, 2.0, 3.0]})

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            Dataset({"a": [1.0, float("nan")]})
        with pytest.raises(ValueError):
            Dataset({"a": [1.0, float("inf")]})

    def test_rejects_empty_or_nonstring_names(self):
        with pytest.raises(ValueError):
            Dataset({"": [1.0, 2.0]})

    def test_rejects_multidimensional_columns(self):
        with pytest.raises(ValueError):
            Dataset({"a": np.ones((2, 2))})


class TestImmutability:
    def test_columns_are_read_only(self, d1):
        with pytest.raises(ValueError):
            d1.column("X1")[0] = 99.0

    def test_source_mutation_does_not_leak_in(self):
        source = np.array([1.0, 2.0, 3.0])
        ds = Dataset({"a": source})
        source[0] = 42.0
        assert ds.column("a")[0] == 1.0


class TestLookup:
    def test_unknown_column_raises_with_candidates(self, d1):
        with pytest.raises(UnknownColumn, match="X9"):
            d1.column("X9")

    def test_unknown_column_is_a_key_error(self, d1):
        with pytest.raises(KeyError):
            d1.column("X9")

    def test_contains(self, d1):
        assert "X1" in d1
        assert "X9" not in d1

    def test_require_checks_every_name(self, d1):
        d1.require("X1", "X2", "Y")
        with pytest.raises(UnknownColumn):
            d1.require("X1", "missing")

    def test_items_in_order(self, d1):
        assert [name for name, _ in d1.items()] == ["X1", "X2", "Y"]


class TestDerivation:
    def test_with_column_appends(self, d1):
        ds = d1.with_column("Z", [0.0] * 6)
        assert ds.names == ("X1", "X2", "Y", "Z")
        assert d1.names == ("X1", "X2", "Y")  # original untouched

    def test_with_column_rejects_duplicates(self, d1):
        with pytest.raises(DuplicateColumn):
            d1.with_column("X1", [0.0] * 6)

    def test_replace_columns_swaps_values_in_place(self, d1):
        ds = d1.replace_columns({"X1": [9.0] * 6})
        assert ds.names == d1.names
        assert ds.column("X1").tolist() == [9.0] * 6
        assert np.array_equal(ds.column("Y"), d1.column("Y"))

    def test_replace_columns_checks_names(self, d1):
        with pytest.raises(UnknownColumn):
            d1.replace_columns({"nope": [0.0] * 6})

    def test_equality_is_by_names_and_values(self, d1):
        same = Dataset({"X1": d1.column("X1"), "X2": d1.column("X2"),
                        "Y": d1.column("Y")})
        assert d1 == same
        assert d1 != same.with_column("Z", [0.0] * 6)

    def test_derived_datasets_share_untouched_columns(self, d1):
        appended = d1.with_column("Z", [0.0] * 6)
        replaced = d1.replace_columns({"X2": [9.0] * 6})
        for name in ("X1", "X2", "Y"):
            assert appended.column(name) is d1.column(name)
        for name in ("X1", "Y"):
            assert replaced.column(name) is d1.column(name)
        for ds, name in ((appended, "Z"), (replaced, "X2")):
            with pytest.raises(ValueError):
                ds.column(name)[0] = 1.0

    @pytest.mark.parametrize("name", ["Z", "X2"])
    def test_new_values_are_still_validated(self, d1, name):
        # "Z" goes through with_column, "X2" through replace_columns.
        def derive(values):
            if name in d1:
                return d1.replace_columns({name: values})
            return d1.with_column(name, values)

        before = {column: d1.column(column).copy() for column in d1.names}
        with pytest.raises(ValueError, match=f"'{name}' contains a non-finite"):
            derive([1.0, 2.0, float("nan"), 4.0, 5.0, 6.0])
        with pytest.raises(LengthMismatch,
                           match=f"'{name}' has 5 rows, expected 6"):
            derive([1.0] * 5)
        source = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        derived = derive(source)
        source[0] = 42.0
        assert derived.column(name).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert d1.names == tuple(before)
        for column, values in before.items():
            assert np.array_equal(d1.column(column), values)


# The ownership rule: every entry point stores a read-only float64 array,
# sharing the caller's array only when nothing can still write to it.
_SIX_ROWS = Dataset({"X1": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                     "X2": [1.0, 3.0, 2.0, 5.0, 4.0, 6.0]})
_ENTRY_POINTS = {
    "Dataset": (_SIX_ROWS.column("X2"),
                lambda v: Dataset({"Z": v}).column("Z")),
    "with_column": (_SIX_ROWS.column("X2"),
                    lambda v: _SIX_ROWS.with_column("Z", v).column("Z")),
    "replace_columns": (_SIX_ROWS.column("X2"), lambda v: _SIX_ROWS
                        .replace_columns({"X1": v}).column("X1")),
    "ResidualizedVariable": (_SIX_ROWS.column("X2"), lambda v:
                             ResidualizedVariable("Z", "X1", ("X2",), (0.5,),
                                                  v).values),
    "PredictorTransform": (PredictorTransform([[2.0, 1.0], [1.0, 3.0]]).gamma,
                           lambda v: PredictorTransform(v).gamma),
}


def _list(base):
    held = base.tolist()
    return held, lambda: held.__setitem__(0, held[-1])


def _generator(base):
    return (row for row in base.tolist()), lambda: None


def _writable(base):
    held = base.copy()
    return held, lambda: held.fill(99.0)


def _read_only_view(base):
    held = base.copy()
    view = held[...]
    view.setflags(write=False)
    return view, lambda: held.fill(99.0)


def _float32(base):
    held = base.astype(np.float32)
    return held, lambda: held.fill(99.0)


def _strided_slice(base):
    held = np.repeat(base, 2, axis=-1)
    return held[..., ::2], lambda: held.fill(99.0)


class TestOwnership:
    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("make", [_list, _generator, _writable,
                                      _read_only_view, _float32,
                                      _strided_slice])
    def test_the_callers_writes_never_reach_stored_values(self, entry, make):
        base, store = _ENTRY_POINTS[entry]
        values, write = make(base)
        stored = store(values)
        write()
        assert stored.dtype == np.float64
        assert not stored.flags.writeable
        assert np.array_equal(stored, base)
        with pytest.raises(ValueError):
            stored[0] = 1.0

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_frozen_owned_array_is_stored_as_is(self, entry):
        base, store = _ENTRY_POINTS[entry]
        assert store(base) is base

    def test_bad_transform_keeps_its_error(self):
        with pytest.raises(ShapeMismatch, match=r"square, got \(\)"):
            PredictorTransform(5)
