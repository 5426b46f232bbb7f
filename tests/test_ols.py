"""Least-squares fitting against an exact rational reference."""

from fractions import Fraction

import numpy as np
import pytest

import oracle
import partialreg.ols
from helpers import (
    TILE_EDGES,
    design_matrix,
    predictor_names,
    random_dataset,
    random_integer_dataset,
)
from partialreg import (
    Dataset,
    MissingPredictorValue,
    SingularDesign,
    TooFewRows,
    UnknownColumn,
    ZeroVariance,
    fit,
    fit_simple,
    predict,
    residualize,
    residuals,
)
from partialreg.ols import (
    _LEAF_ROWS,
    _TILE_ROWS,
    CONDITION_LIMIT,
    _factor,
    _solve,
)

D1_COEFFICIENTS = (Fraction(4, 33), Fraction(15, 11), Fraction(4, 11))
D1_SIMPLE_X1 = (Fraction(4, 15), Fraction(59, 35))
D1_RESIDUALS_ON_X1 = (
    Fraction(1, 21), Fraction(38, 105), Fraction(-34, 105),
    Fraction(-1, 105), Fraction(-73, 105), Fraction(13, 21),
)


def assert_close_to_fractions(values, fractions, rel=1e-12):
    for got, want in zip(values, fractions):
        assert got == pytest.approx(float(want), rel=rel, abs=1e-15)


OVERFLOWING_ROWS = {"X1": [1e308, 1e308, 3, 4], "X2": [1e308, -1e308, 1, 6],
                    "X3": [1, 2, 3, 2], "Y": [2, 3, 4, 1]}


class TestFit:
    def test_overflow_is_a_singular_design(self):
        ds = Dataset(OVERFLOWING_ROWS)
        for predictors in (["X1", "X2"], ["X2", "X3"], ["X1", "X2", "X3"]):
            with pytest.raises(SingularDesign, match="overflows the double"):
                fit(ds, "Y", predictors)

    def test_overflowing_rss_is_a_singular_design(self):
        # R is finite, but the residual norm (about 1e200) squared is not.
        rng = np.random.default_rng(5)
        ds = Dataset({"X1": rng.normal(size=40),
                      "Y": 1e200 * rng.normal(size=40)})
        with pytest.raises(SingularDesign, match="overflows the double"):
            fit(ds, "Y", ["X1"])

    def test_d1_two_predictors_exact(self, d1):
        fitted = fit(d1, "Y", ["X1", "X2"])
        assert_close_to_fractions(fitted.coefficients(), D1_COEFFICIENTS)
        assert fitted.response == "Y"
        assert fitted.predictors == ("X1", "X2")

    def test_d1_three_predictors_exact(self, d1_extended):
        fitted = fit(d1_extended, "Y", ["X1", "X2", "X3"])
        want = (Fraction(11, 12), Fraction(11, 4),
                Fraction(-1, 2), Fraction(-3, 4))
        assert_close_to_fractions(fitted.coefficients(), want, rel=1e-10)

    def test_slope_lookup_by_name(self, d1):
        fitted = fit(d1, "Y", ["X1", "X2"])
        assert fitted.slope("X2") == fitted.slopes[1]
        with pytest.raises(MissingPredictorValue):
            fitted.slope("X3")

    def test_rss_matches_residual_norm(self, d1):
        fitted = fit(d1, "Y", ["X1", "X2"])
        r = residuals(fitted, d1)
        assert fitted.rss == pytest.approx(float(r @ r), rel=1e-12)
        assert fitted.rss >= 0.0

    def test_mean_only_fit(self, d1):
        fitted = fit(d1, "Y", [])
        assert fitted.slopes == ()
        assert fitted.intercept == pytest.approx(37 / 6, rel=1e-15)

    def test_deterministic_across_calls(self, d1_extended):
        a = fit(d1_extended, "Y", ["X1", "X2", "X3"])
        b = fit(d1_extended, "Y", ["X1", "X2", "X3"])
        assert a.coefficients() == b.coefficients()
        assert a.rss == b.rss

    def test_unknown_column_checked_before_row_count(self):
        ds = Dataset({"a": [1.0, 2.0], "y": [1.0, 2.0]})
        with pytest.raises(UnknownColumn):
            fit(ds, "y", ["a", "b", "c"])

    def test_too_few_rows(self):
        ds = Dataset({"a": [1.0, 2.0], "b": [2.0, 1.0], "y": [1.0, 2.0]})
        with pytest.raises(TooFewRows):
            fit(ds, "y", ["a", "b"])

    def test_collinear_predictors_rejected(self):
        ds = Dataset({
            "a": [1.0, 2.0, 3.0, 4.0],
            "b": [2.0, 4.0, 6.0, 8.0],
            "y": [1.0, 3.0, 2.0, 5.0],
        })
        with pytest.raises(SingularDesign):
            fit(ds, "y", ["a", "b"])

    def test_constant_predictor_rejected(self):
        ds = Dataset({"a": [5.0, 5.0, 5.0], "y": [1.0, 2.0, 3.0]})
        with pytest.raises(SingularDesign):
            fit(ds, "y", ["a"])

    def test_condition_estimate_below_limit(self, d1):
        fitted = fit(d1, "Y", ["X1", "X2"])
        assert 1.0 <= fitted.condition_estimate < CONDITION_LIMIT

    def test_matches_oracle_on_random_real_data(self):
        # lstsq agrees with exact normal-equation elimination to well
        # inside 1e-8 on well-conditioned designs.
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(5, 51))
            k = int(rng.integers(1, 5))
            ds = random_dataset(rng, n=n, k=k)
            names = predictor_names(k)
            fitted = fit(ds, "Y", names)
            cols = [[Fraction(v) for v in ds.column(p)] for p in names]
            want = oracle.fit_coefficients(
                [Fraction(v) for v in ds.column("Y")], cols)
            for got, ref in zip(fitted.coefficients(), want):
                assert abs(got - float(ref)) <= 1e-8 * max(1.0, abs(float(ref)))

    def test_matches_oracle_exactly_on_integer_data(self):
        rng = np.random.default_rng(90)
        for _ in range(50):
            ds, exact = random_integer_dataset(rng, n=int(rng.integers(6, 16)),
                                               k=int(rng.integers(1, 4)))
            names = [n for n in ds.names if n != "Y"]
            fitted = fit(ds, "Y", names)
            want = oracle.fit_coefficients(exact["Y"],
                                           [exact[n] for n in names])
            for got, ref in zip(fitted.coefficients(), want):
                assert abs(got - float(ref)) <= 1e-10 * max(1.0, abs(float(ref)))

    def test_scale_equivariance(self):
        # Multiplying one predictor by alpha divides its slope by alpha
        # and leaves the others alone.
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, n=25, k=3)
        base = fit(ds, "Y", ["X1", "X2", "X3"])
        alpha = 12.5
        scaled = ds.replace_columns({"X2": alpha * ds.column("X2")})
        after = fit(scaled, "Y", ["X1", "X2", "X3"])
        assert after.slopes[1] == pytest.approx(base.slopes[1] / alpha, rel=1e-9)
        assert after.slopes[0] == pytest.approx(base.slopes[0], rel=1e-9)
        assert after.slopes[2] == pytest.approx(base.slopes[2], rel=1e-9)
        assert after.intercept == pytest.approx(base.intercept, rel=1e-9)


class TestFitSimple:
    def test_d1_exact(self, d1):
        fitted = fit_simple(d1, "Y", "X1")
        assert_close_to_fractions(fitted.coefficients(), D1_SIMPLE_X1)

    def test_x1_on_x2_slope(self, d1):
        fitted = fit_simple(d1, "X1", "X2")
        assert fitted.slopes[0] == pytest.approx(31 / 35, rel=1e-14)
        assert fitted.intercept == pytest.approx(2 / 5, rel=1e-13)

    def test_agrees_with_matrix_path(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            ds = random_dataset(rng, n=int(rng.integers(3, 40)), k=1)
            closed = fit_simple(ds, "Y", "X1")
            matrix = fit(ds, "Y", ["X1"])
            assert closed.slopes[0] == pytest.approx(matrix.slopes[0], rel=1e-9)
            assert closed.intercept == pytest.approx(
                matrix.intercept, rel=1e-9, abs=1e-12)

    def test_condition_matches_design_svd(self):
        # Plain, offset and rescaled columns; the SVD's own error grows
        # like eps * cond, hence the scale on the tolerance.
        rng = np.random.default_rng(61)
        for i in range(300):
            x = rng.normal(size=int(rng.integers(3, 200)))
            if i % 3 == 1:
                x = x + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 6)
            elif i % 3 == 2:
                x = x * 10.0 ** rng.uniform(-6, 6)
            ds = Dataset({"X1": x, "Y": rng.normal(size=x.size)})
            want = np.linalg.cond(design_matrix(ds, ("X1",)))
            got = fit_simple(ds, "Y", "X1").condition_estimate
            assert abs(got - want) <= 1e-13 * max(1.0, want) * want

    def test_rss_is_the_residual_expression(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            ds = random_dataset(rng, n=int(rng.integers(3, 3000)), k=1)
            fitted = fit_simple(ds, "Y", "X1")
            x, y = ds.column("X1"), ds.column("Y")
            resid = y - (fitted.intercept + fitted.slopes[0] * x)
            assert fitted.rss == float(resid @ resid)

    def test_constant_predictor_raises_zero_variance(self):
        ds = Dataset({"a": [5.0, 5.0, 5.0], "y": [1.0, 2.0, 3.0]})
        with pytest.raises(ZeroVariance):
            fit_simple(ds, "y", "a")

    def test_slope_matches_oracle(self, d1):
        want = oracle.simple_slope(
            [Fraction(v) for v in d1.column("Y")],
            [Fraction(v) for v in d1.column("X2")])
        assert fit_simple(d1, "Y", "X2").slopes[0] == pytest.approx(
            float(want), rel=1e-14)
        assert want == Fraction(11, 7)


class TestRowTiles:
    @pytest.mark.parametrize("n", TILE_EDGES)
    def test_matches_lstsq_condition_and_residual_norm(self, n):
        rng = np.random.default_rng(n)
        for k in range(6):
            ds = random_dataset(rng, n=n, k=k)
            names = predictor_names(k)
            x = design_matrix(ds, names)
            fitted = fit(ds, "Y", names)
            want, _, _, _ = np.linalg.lstsq(x, ds.column("Y"), rcond=None)
            for got, ref in zip(fitted.coefficients(), want):
                assert abs(got - ref) <= 1e-10 * abs(ref)
            assert fitted.condition_estimate == pytest.approx(
                np.linalg.cond(x), rel=1e-10)
            r = residuals(fitted, ds)
            assert fitted.rss == pytest.approx(float(r @ r), rel=1e-12)

    @pytest.mark.parametrize("n", TILE_EDGES)
    def test_matches_oracle_on_integer_data(self, n):
        # The exact Gram matrix of small integers fits in int64, so the
        # oracle's rational solve sees the same numbers as the fit.
        rng = np.random.default_rng(n + 1)
        for k in range(6):
            ds, exact = random_integer_dataset(rng, n=n, k=k)
            names = predictor_names(k)
            x = np.array([[1] * n] + [exact[p] for p in names]).T
            gram = [[Fraction(int(v)) for v in row] for row in x.T @ x]
            moment = [Fraction(int(v)) for v in x.T @ np.array(exact["Y"])]
            want = oracle.solve(gram, moment)
            fitted = fit(ds, "Y", names)
            for got, ref in zip(fitted.coefficients(), want):
                assert abs(got - float(ref)) <= 1e-12 * abs(float(ref))

    @pytest.mark.parametrize("n", [_TILE_ROWS + 1, 3 * _TILE_ROWS + 5])
    def test_singular_designs_across_tiles_rejected(self, n):
        rng = np.random.default_rng(7)
        x1 = rng.normal(size=n)
        ds = Dataset({"X1": x1, "X2": 2.0 * x1, "C": np.full(n, 3.0),
                      "Y": rng.normal(size=n)})
        for predictors in (["X1", "X2"], ["C"], ["X1", "C"]):
            with pytest.raises(SingularDesign):
                fit(ds, "Y", predictors)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7])
    def test_exactly_determined_fit_has_zero_rss(self, k):
        ds = random_dataset(np.random.default_rng(k), n=k + 1, k=k)
        fitted = fit(ds, "Y", predictor_names(k))
        assert fitted.rss == 0.0
        assert np.max(np.abs(residuals(fitted, ds))) <= 1e-9

    def test_one_tile_per_qr_and_no_design_svd(self, monkeypatch):
        k, width = 3, 5
        cases = [(random_dataset(np.random.default_rng(11), n=n, k=k),
                  leaf_stacks, ragged) for n, leaf_stacks, ragged in [
                      (3 * _TILE_ROWS + 5, [8, 8, 8], [5]),
                      (_TILE_ROWS + _LEAF_ROWS + 1, [8, 1], [1])]]
        linalg = partialreg.ols.np.linalg
        qr_shapes, svd_shapes = [], []

        def forbidden(*args, **kwargs):
            raise AssertionError("fit ran a decomposition of the design")

        def recorded(real, shapes):
            def call(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return real(a, *args, **kwargs)
            return call

        monkeypatch.setattr(linalg, "lstsq", forbidden)
        monkeypatch.setattr(linalg, "cond", forbidden)
        monkeypatch.setattr(linalg, "qr", recorded(linalg.qr, qr_shapes))
        monkeypatch.setattr(linalg, "svd", recorded(linalg.svd, svd_shapes))
        for ds, leaf_stacks, ragged in cases:
            qr_shapes[:], svd_shapes[:] = [], []
            fit(ds, "Y", predictor_names(k))
            # Each tile's full leaves in one stacked QR, then the ragged rest.
            assert qr_shapes[:-1] == [
                *((leaves, _LEAF_ROWS, width) for leaves in leaf_stacks),
                *((rows, width) for rows in ragged)]
            r_rows = (width * sum(leaf_stacks)
                      + sum(min(rows, width) for rows in ragged))
            assert qr_shapes[-1] == (r_rows, width)
            assert all(np.prod(shape[:-1]) <= _TILE_ROWS
                       for shape in qr_shapes)
            assert svd_shapes == [(k + 1, k + 1)]

    @pytest.mark.parametrize("n", [3, 40, _LEAF_ROWS - 1])
    def test_under_one_leaf_is_one_qr_of_the_rows(self, n):
        # Fewer rows than a leaf: the R of the R of the whole design, the
        # arithmetic of every fit this small since the pass was tiled.
        ds = random_dataset(np.random.default_rng(n), n=n, k=3)
        names = [*predictor_names(3), "Y"]
        design = np.column_stack([np.ones(n), *map(ds.column, names)])
        want = np.linalg.qr(np.linalg.qr(design, mode="r"), mode="r")
        assert np.array_equal(_factor(ds, names), want)

    @pytest.mark.parametrize("n", [2, 3, 4, *TILE_EDGES])
    def test_factor_bits_match_the_leaf_reference(self, n):
        # The reference arithmetic: a mode="r" QR of each 1024-row leaf in
        # row order, then of the ragged rest, and a final QR of their Rs
        # stacked.  The R keeps min(n, k + 2) rows, which TooFewRows reads.
        rng = np.random.default_rng(n + 2)
        for k in range(5):
            names = [*predictor_names(k), "Y"]
            ds = Dataset({name: rng.normal(size=n) for name in names})
            design = design_matrix(ds, names)
            leaf_rs = [np.linalg.qr(design[start:start + _LEAF_ROWS],
                                    mode="r")
                       for start in range(0, n, _LEAF_ROWS)]
            want = np.linalg.qr(np.vstack(leaf_rs), mode="r")
            got = _factor(ds, names)
            assert got.shape == want.shape == (min(n, k + 2), k + 2)
            assert got.tobytes() == want.tobytes()


def assert_matches_oracle(fitted, response, predictors):
    want = oracle.fit_coefficients(response, predictors)
    for got, ref in zip(fitted.coefficients(), want, strict=True):
        assert abs(got - float(ref)) <= 1e-10 * max(1.0, abs(float(ref)))


class TestSharedFactor:
    """Fits solved from the R of one pass over a union of columns."""

    UNION = ["X1", "X2", "X3", "Y"]

    @pytest.mark.parametrize("n", [5, 60, _TILE_ROWS + 3])
    def test_full_selection_is_fit(self, n):
        rng = np.random.default_rng(n)
        for k in range(4):
            ds = random_dataset(rng, n=n, k=k)
            names = [*predictor_names(k), "Y"]
            got = _solve(_factor(ds, names), names, k, range(k))
            assert got == fit(ds, "Y", predictor_names(k))

    def test_subsets_match_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            ds, exact = random_integer_dataset(rng, n=int(rng.integers(6, 16)),
                                               k=3)
            subset = _solve(_factor(ds, self.UNION), self.UNION, 3, (1, 2))
            assert subset.predictors == ("X2", "X3")
            assert_matches_oracle(subset, exact["Y"],
                                  [exact["X2"], exact["X3"]])
            star = residualize(ds, "X1", ["X2", "X3"])
            union = [star.name, "X2", "X3", "Y"]
            on_x2 = _solve(_factor(star.merged_into(ds), union), union, 1,
                           (0, 2))
            assert (on_x2.response, on_x2.predictors) == ("X2",
                                                          ("X1*", "X3"))
            assert_matches_oracle(on_x2, ds.column("X2"),
                                  [star.values, ds.column("X3")])

    def test_fewer_rows_than_union_columns(self):
        ds = Dataset({"X1": [1, 4, 2], "X2": [3, -1, 2], "X3": [0, 2, 5],
                      "Y": [2, 7, -3]})
        r = _factor(ds, self.UNION)
        assert r.shape == (3, 5)
        exact = _solve(r, self.UNION, 3, (1, 2))
        assert exact.rss == 0.0
        assert_matches_oracle(exact, [2, 7, -3], [[3, -1, 2], [0, 2, 5]])
        with pytest.raises(TooFewRows, match="3 rows cannot determine 4"):
            _solve(r, self.UNION, 3, range(3))
        two = Dataset({name: ds.column(name)[:2] for name in self.UNION})
        line = _solve(_factor(two, self.UNION), self.UNION, 3, (1,))
        assert line.rss == 0.0
        assert_matches_oracle(line, [2, 7], [[3, -1]])

    def test_exactly_determined_union(self):
        ds = random_dataset(np.random.default_rng(3), n=4, k=3)
        r = _factor(ds, self.UNION)
        assert _solve(r, self.UNION, 3, range(3)).rss == 0.0
        assert_matches_oracle(_solve(r, self.UNION, 3, (0, 2)),
                              ds.column("Y"),
                              [ds.column("X1"), ds.column("X3")])

    def test_rank_deficient_union(self):
        ds, exact = random_integer_dataset(np.random.default_rng(4), n=12,
                                           k=2)
        ds = ds.with_column("X2b", 2.0 * ds.column("X2"))
        union = ["X1", "X2", "X2b", "Y"]
        r = _factor(ds, union)
        assert_matches_oracle(_solve(r, union, 3, (0, 1)), exact["Y"],
                              [exact["X1"], exact["X2"]])
        with pytest.raises(SingularDesign,
                           match=r"'Y' ~ \['X2', 'X2b'\] has condition"):
            _solve(r, union, 3, (1, 2))

    def test_unknown_column_before_any_pass(self, monkeypatch, d1):
        def forbidden(*args, **kwargs):
            raise AssertionError("a pass began before the columns resolved")

        monkeypatch.setattr(partialreg.ols.np.linalg, "qr", forbidden)
        with pytest.raises(UnknownColumn):
            _factor(d1, ["X1", "nope", "Y"])
        with pytest.raises(UnknownColumn):
            fit(d1, "Y", ["X1", "nope"])


class TestPredictAndResiduals:
    def test_first_row_fitted_value(self, d1):
        fitted = fit(d1, "Y", ["X1", "X2"])
        got = predict(fitted, {"X1": 1.0, "X2": 1.0})
        assert got == pytest.approx(float(Fraction(61, 33)), rel=1e-12)

    def test_extra_keys_ignored_missing_keys_named(self, d1):
        fitted = fit(d1, "Y", ["X1", "X2"])
        predict(fitted, {"X1": 0.0, "X2": 0.0, "junk": 9.0})
        with pytest.raises(MissingPredictorValue, match="X2"):
            predict(fitted, {"X1": 0.0})

    def test_residuals_exact_values(self, d1):
        fitted = fit_simple(d1, "Y", "X1")
        got = residuals(fitted, d1)
        assert_close_to_fractions(got, D1_RESIDUALS_ON_X1, rel=1e-11)

    def test_residuals_sum_to_zero(self, d1):
        fitted = fit(d1, "Y", ["X1", "X2"])
        assert abs(residuals(fitted, d1).sum()) <= 1e-10

    def test_residuals_match_oracle(self, d1):
        fitted = fit_simple(d1, "Y", "X1")
        want = oracle.residual_vector(
            [Fraction(v) for v in d1.column("Y")],
            [[Fraction(v) for v in d1.column("X1")]])
        got = residuals(fitted, d1)
        for g, w in zip(got, want):
            assert g == pytest.approx(float(w), rel=1e-10, abs=1e-13)

    def test_residuals_require_columns(self, d1):
        fitted = fit(d1, "Y", ["X1", "X2"])
        small = Dataset({"X1": [1.0, 2.0], "Y": [1.0, 2.0]})
        with pytest.raises(UnknownColumn):
            residuals(fitted, small)


class TestOrthogonalDesigns:
    def test_hadamard_columns_make_multiple_equal_simple(self):
        # Sign-balanced +-1 columns have exactly zero pairwise covariance,
        # so every multiple-regression slope collapses to its simple slope.
        x1 = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        x2 = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        x3 = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
        y = 2.0 * x1 - 3.0 * x2 + 0.5 * x3 + np.array(
            [0.3, -0.1, 0.2, 0.0, -0.4, 0.1, -0.2, 0.1])
        ds = Dataset({"X1": x1, "X2": x2, "X3": x3, "Y": y})
        multi = fit(ds, "Y", ["X1", "X2", "X3"])
        for name, slope in zip(multi.predictors, multi.slopes):
            simple = fit_simple(ds, "Y", name).slopes[0]
            assert abs(slope - simple) <= 1e-10
