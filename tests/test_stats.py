"""Moments, correlations, and the multiple correlation coefficient."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracle
from helpers import columns, random_dataset
from partialreg import (
    Dataset,
    DegenerateCofactor,
    NumericalOvershoot,
    ZeroVariance,
    column_stats,
    correlation_matrix,
    covariance,
    fit,
    fit_simple,
    multiple_correlation,
    pearson_r,
    predict,
    residualize,
)
from partialreg.stats import _central_moments, _clamp

# Exact moments of the six-row worked dataset, computed by hand.
D1_MEAN_X = Fraction(7, 2)
D1_MEAN_Y = Fraction(37, 6)
D1_VAR_X = Fraction(35, 12)
D1_VAR_Y = Fraction(305, 36)
D1_COV_X1_X2 = Fraction(31, 12)
D1_COV_X1_Y = Fraction(59, 12)
D1_COV_X2_Y = Fraction(55, 12)
D1_R_X1_X2 = Fraction(31, 35)


class TestColumnStats:
    def test_d1_exact_moments(self, d1):
        s = column_stats(d1, "X1")
        assert s.mean == pytest.approx(float(D1_MEAN_X), rel=1e-15)
        assert s.variance == pytest.approx(float(D1_VAR_X), rel=1e-15)
        assert s.sd == pytest.approx(float(D1_VAR_X) ** 0.5, rel=1e-15)
        sy = column_stats(d1, "Y")
        assert sy.mean == pytest.approx(float(D1_MEAN_Y), rel=1e-15)
        assert sy.variance == pytest.approx(float(D1_VAR_Y), rel=1e-15)

    def test_population_convention(self):
        # Divide by n, not n - 1.
        ds = Dataset({"a": [0.0, 2.0]})
        assert column_stats(ds, "a").variance == 1.0

    def test_constant_column_has_exactly_zero_variance(self):
        ds = Dataset({"a": [3.7] * 5})
        s = column_stats(ds, "a")
        assert s.variance == 0.0
        assert s.sd == 0.0

    def test_variance_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            ds = random_dataset(rng, n=int(rng.integers(3, 30)), k=1)
            got = column_stats(ds, "Y").variance
            want = float(oracle.variance([Fraction(v) for v in ds.column("Y")]))
            assert got == pytest.approx(want, rel=1e-12)


class TestCovariance:
    def test_d1_exact_values(self, d1):
        assert covariance(d1, "X1", "X2") == pytest.approx(float(D1_COV_X1_X2), rel=1e-15)
        assert covariance(d1, "X1", "Y") == pytest.approx(float(D1_COV_X1_Y), rel=1e-15)
        assert covariance(d1, "X2", "Y") == pytest.approx(float(D1_COV_X2_Y), rel=1e-15)

    def test_symmetry_is_exact(self, d1):
        assert covariance(d1, "X1", "Y") == covariance(d1, "Y", "X1")

    def test_self_covariance_equals_variance_bitwise(self, d1):
        for name in d1.names:
            assert covariance(d1, name, name) == column_stats(d1, name).variance


def two_pass(a, b):
    """Center each column, then one dot product of the deviations over n."""
    return float(np.dot(a - a.mean(), b - b.mean()) / a.size)


def scaled_and_offset_datasets(seed, count=40):
    """Correlated columns with each column's scale and offset drawn apart."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 300))
        x = rng.normal(size=(n, 3)) @ (np.eye(3) + 0.5 * rng.normal(size=(3, 3)))
        x = (x * 10.0 ** rng.uniform(-6, 6, 3)
             + rng.choice([0.0, 1.0], 3) * 10.0 ** rng.uniform(0, 6, 3))
        yield Dataset({"A": x[:, 0], "B": x[:, 1], "C": x[:, 2]})


class TestMomentsAreTwoPass:
    """Every moment route equals the two-pass formula bit for bit."""

    def test_column_stats_and_covariance(self):
        for ds in scaled_and_offset_datasets(202):
            for a in ds.names:
                x = ds.column(a)
                stats = column_stats(ds, a)
                assert stats.mean == float(x.mean())
                assert stats.variance == two_pass(x, x)
                assert stats.sd == math.sqrt(two_pass(x, x))
                for b in ds.names:
                    assert covariance(ds, a, b) == two_pass(x, ds.column(b))

    def test_correlation_matrix_entries(self):
        for ds in scaled_and_offset_datasets(203):
            names = list(ds.names)
            m = correlation_matrix(ds, names)
            for i, a in enumerate(names):
                for j, b in enumerate(names):
                    x, y = ds.column(a), ds.column(b)
                    r = two_pass(x, y) / (math.sqrt(two_pass(x, x))
                                          * math.sqrt(two_pass(y, y)))
                    want = 1.0 if i == j else min(1.0, max(-1.0, r))
                    assert m[i, j] == want

    def test_fit_simple_slope_is_cov_over_var(self):
        for ds in scaled_and_offset_datasets(204):
            x, y = ds.column("A"), ds.column("B")
            fitted = fit_simple(ds, "B", "A")
            slope = two_pass(x, y) / two_pass(x, x)
            assert fitted.slopes == (slope,)
            assert fitted.intercept == float(y.mean()) - slope * float(x.mean())


# Long enough that BLAS splits each dot product across its threads.
THREADED_N = 200_003


class TestMomentsAtThreadedSize:
    """The bit contracts hold where each pair's dot product is threaded."""

    @pytest.fixture(scope="class")
    def big(self):
        return random_dataset(np.random.default_rng(211), n=THREADED_N, k=3)

    def test_diagonal_is_the_variance(self, big):
        cross = _central_moments(columns(big, big.names), big.names)[1]
        for i, name in enumerate(big.names):
            variance = column_stats(big, name).variance
            assert cross[i][i] == variance
            assert covariance(big, name, name) == variance
            x = big.column(name)
            assert variance == two_pass(x, x)

    def test_pairs_are_symmetric(self, big):
        for a in big.names:
            for b in big.names:
                assert covariance(big, a, b) == covariance(big, b, a) \
                    == two_pass(big.column(a), big.column(b))

    def test_subset_matches_superset(self, big):
        names = list(big.names)
        means, cross = _central_moments(columns(big, names), names)
        for subset in (["Y", "X1", "X2"], ["X3", "X1"], ["X2"]):
            sub_means, sub_cross = _central_moments(columns(big, subset),
                                                    subset)
            index = [names.index(name) for name in subset]
            assert sub_means == [means[i] for i in index]
            assert sub_cross == [[cross[i][j] for j in index] for i in index]

    def test_no_per_pair_temporary(self):
        # Centering makes one n-row array per column; a pair must not add
        # another (np.mean(dev_i * dev_j) would).
        n, names = 100_000, ["X1", "X2", "X3", "Y"]
        ds = random_dataset(np.random.default_rng(5), n=n, k=3)
        tracemalloc.start()
        try:
            _central_moments(columns(ds, names), names)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (len(names) + 0.5) * 8 * n


class TestPearson:
    def test_d1_exact_value(self, d1):
        assert pearson_r(d1, "X1", "X2") == pytest.approx(float(D1_R_X1_X2), rel=1e-14)

    def test_perfect_line_clamps_to_one(self):
        ds = Dataset({"a": [1.0, 2.0, 3.0], "b": [2.0, 4.0, 6.0]})
        assert pearson_r(ds, "a", "b") == 1.0
        neg = Dataset({"a": [1.0, 2.0, 3.0], "b": [-2.0, -4.0, -6.0]})
        assert pearson_r(neg, "a", "b") == -1.0

    def test_constant_column_raises(self):
        ds = Dataset({"a": [1.0, 2.0, 3.0], "b": [5.0, 5.0, 5.0]})
        with pytest.raises(ZeroVariance):
            pearson_r(ds, "a", "b")

    def test_invariant_under_affine_rescaling(self):
        rng = np.random.default_rng(33)
        ds = random_dataset(rng, n=40, k=2)
        r = pearson_r(ds, "X1", "X2")
        scaled = ds.replace_columns({"X1": 7.5 * ds.column("X1") - 3.0})
        assert pearson_r(scaled, "X1", "X2") == pytest.approx(r, rel=1e-12)

    def test_squared_matches_oracle(self, d1):
        cols = {n: [Fraction(v) for v in d1.column(n)] for n in d1.names}
        want = float(oracle.pearson_squared(cols["X1"], cols["Y"]))
        assert pearson_r(d1, "X1", "Y") ** 2 == pytest.approx(want, rel=1e-13)


class TestClamp:
    """A value past [-1, 1] by at most CLAMP_TOLERANCE is rounding and is
    clamped; one further past is a numerical failure."""

    @pytest.mark.parametrize("bound, side", [(-1.0, "below"),
                                             (1.0, "above")])
    def test_clamps_rounding_and_raises_beyond_it(self, bound, side):
        assert _clamp(bound * (1 + 5e-10), -1.0, 1.0, "r") == bound
        with pytest.raises(NumericalOvershoot, match=side):
            _clamp(bound * (1 + 2e-9), -1.0, 1.0, "r")


class TestCorrelationMatrix:
    def test_unit_diagonal_and_mirror_symmetry(self, d1):
        m = correlation_matrix(d1, ["X1", "X2", "Y"])
        assert np.array_equal(np.diag(m), np.ones(3))
        assert np.array_equal(m, m.T)

    def test_entries_match_pairwise_pearson(self, d1):
        # pearson_r reads this matrix, so the entries are checked against
        # covariance over the product of standard deviations instead.
        names = ["X1", "X2", "Y"]
        m = correlation_matrix(d1, names)
        for i, a in enumerate(names):
            for j, b in enumerate(names[i + 1:], start=i + 1):
                want = covariance(d1, a, b) / (column_stats(d1, a).sd
                                               * column_stats(d1, b).sd)
                assert m[i, j] == m[j, i] == want

    def test_orthogonalized_pair_gives_identity(self, d1):
        # Residualizing X1 on X2 makes the pair exactly uncorrelated
        # up to rounding; the matrix should be I within 1e-12.
        res = residualize(d1, "X1", ["X2"])
        ds = res.merged_into(d1)
        m = correlation_matrix(ds, [res.name, "X2"])
        assert abs(m - np.eye(2)).max() <= 1e-12

    def test_constant_column_raises(self):
        ds = Dataset({"a": [1.0, 2.0, 3.0], "b": [5.0, 5.0, 5.0]})
        with pytest.raises(ZeroVariance):
            correlation_matrix(ds, ["a", "b"])


class TestMultipleCorrelation:
    def test_d1_value_from_exact_determinants(self, d1):
        # 1 - rho^2 = det(corr) / cofactor gives rho^2 = 663/671 here.
        got = multiple_correlation(d1, "Y", ["X1", "X2"])
        assert got == pytest.approx(float(Fraction(663, 671)) ** 0.5, rel=1e-12)
        assert got == pytest.approx(0.9940208731582137, abs=1e-14)

    def test_single_predictor_reduces_to_absolute_pearson(self, d1):
        got = multiple_correlation(d1, "Y", ["X1"])
        assert got == pytest.approx(abs(pearson_r(d1, "X1", "Y")), abs=1e-10)
        flipped = d1.replace_columns({"X1": -d1.column("X1")})
        got = multiple_correlation(flipped, "Y", ["X1"])
        assert got == pytest.approx(abs(pearson_r(flipped, "X1", "Y")), abs=1e-10)

    def test_equals_correlation_with_fitted_values(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            ds = random_dataset(rng, n=30, k=3)
            fitted = fit(ds, "Y", ["X1", "X2", "X3"])
            predictions = np.array([
                predict(fitted, {n: ds.column(n)[i] for n in ("X1", "X2", "X3")})
                for i in range(ds.n)
            ])
            with_fit = ds.with_column("fitted", predictions)
            lhs = multiple_correlation(ds, "Y", ["X1", "X2", "X3"])
            rhs = pearson_r(with_fit, "Y", "fitted")
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_matches_oracle_rational_form(self, d1_extended):
        cols = {n: [Fraction(v) for v in d1_extended.column(n)]
                for n in d1_extended.names}
        want = float(oracle.multiple_correlation_squared(
            cols["Y"], [cols["X1"], cols["X2"], cols["X3"]])) ** 0.5
        got = multiple_correlation(d1_extended, "Y", ["X1", "X2", "X3"])
        assert got == pytest.approx(want, rel=1e-10)

    def test_perfectly_correlated_predictors_degenerate(self):
        ds = Dataset({
            "a": [1.0, 2.0, 3.0, 4.0],
            "b": [2.0, 4.0, 6.0, 8.0],
            "y": [1.0, 3.0, 2.0, 5.0],
        })
        with pytest.raises(DegenerateCofactor):
            multiple_correlation(ds, "y", ["a", "b"])

    def test_empty_predictor_list_rejected(self, d1):
        with pytest.raises(ValueError):
            multiple_correlation(d1, "Y", [])

    def test_result_clamped_to_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ds = random_dataset(rng, n=12, k=2)
            value = multiple_correlation(ds, "Y", ["X1", "X2"])
            assert 0.0 <= value <= 1.0
