"""Residualization and linear predictor transforms."""

from fractions import Fraction

import numpy as np
import pytest

import oracle
from helpers import (
    patch_library,
    predictor_names,
    random_dataset,
    rescaled_x1_dataset,
)
import partialreg.dataset
import partialreg.transform
from partialreg import (
    CollinearPredictors,
    Dataset,
    DuplicateColumn,
    IndexOutOfRange,
    LengthMismatch,
    PredictorTransform,
    ResidualizedVariable,
    ShapeMismatch,
    SingularDesign,
    SingularTransform,
    UnknownColumn,
    apply_transform,
    build_transform,
    combined_slope,
    fit,
    fit_simple,
    gamma_roots,
    gamma_surface,
    gamma_sweep,
    map_coefficients,
    pearson_r,
    residualize,
    residualize_with,
    run_verification_suite,
    slope_on_gamma,
    verify_residualized_slope,
)

# Exact residualized X1-on-X2 values for the worked dataset.
D1_X1_STAR = (
    Fraction(4, 35), Fraction(-23, 35), Fraction(43, 35),
    Fraction(-3, 7), Fraction(51, 35), Fraction(24, 35),
)


class TestPredictorTransform:
    def test_freezes_and_copies_input(self):
        g = np.array([[1.0, 0.0], [0.5, 1.0]])
        t = PredictorTransform(g)
        g[0, 0] = 99.0
        assert t.gamma[0, 0] == 1.0
        with pytest.raises(ValueError):
            t.gamma[0, 0] = 5.0

    def test_k_and_determinant(self):
        t = PredictorTransform([[2.0, 0.0], [0.0, 3.0]])
        assert t.k == 2
        assert t.determinant == pytest.approx(6.0, rel=1e-15)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatch):
            PredictorTransform(np.ones((2, 3)))
        with pytest.raises(ShapeMismatch):
            PredictorTransform(np.ones((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PredictorTransform([[1.0, 0.0], [0.0, float("nan")]])

    def test_rejects_singular(self):
        with pytest.raises(SingularTransform):
            PredictorTransform([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularTransform):
            PredictorTransform([[1.0, 1.0], [1.0, 1.0 + 5e-13]])

    @pytest.mark.parametrize("c", [1e7, 1e9, 1e11, 1e-11])
    def test_residualizing_gamma_passes_the_gate_in_any_units(self, c):
        # Rescaling one predictor turns c into c times the scale; the
        # singular-value ratio of [[1, 0], [-c, 1]] is about 1/c**2, but
        # the transform stays exactly invertible.
        t = PredictorTransform([[1.0, 0.0], [-c, 1.0]])
        assert np.array_equal(t.inverse_gamma(), [[1.0, 0.0], [c, 1.0]])
        build_transform(3, 1, [c, -1.0 / c])

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e9])
    def test_gate_still_rejects_singular_gammas_in_any_units(self, scale):
        units = np.diag([1.0, scale])
        for g in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-15]]):
            with pytest.raises(SingularTransform):
                PredictorTransform(np.linalg.inv(units) @ g @ units)

    def test_inverse_residual_gate(self):
        t = PredictorTransform([[1.0, 0.5], [0.25, 1.0]])
        inv = t.inverse_gamma()
        assert abs(t.gamma @ inv - np.eye(2)).max() <= 1e-12

    def test_inverse_keeps_unit_rows_exact(self):
        # Rows that leave a predictor untouched must stay exactly
        # untouched in the inverse, not just to rounding.
        t = PredictorTransform([[1.0, 0.0, 0.0],
                                [-0.3137, 1.0, 0.0],
                                [0.7211, 0.0, 1.0]])
        inv = t.inverse_gamma()
        assert np.array_equal(inv[1, 1], 1.0)
        assert np.array_equal(inv[0, :], np.array([1.0, 0.0, 0.0]))

    def test_inverse_matches_numpy_on_random_matrices(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            g = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
            t = PredictorTransform(g)
            assert abs(t.inverse_gamma() - np.linalg.inv(g)).max() <= 1e-10


class TestResidualize:
    def test_d1_exact_values(self, d1):
        res = residualize(d1, "X1", ["X2"])
        assert res.name == "X1*"
        assert res.target == "X1"
        assert res.controls == ("X2",)
        assert res.control_coefficients[0] == pytest.approx(31 / 35, rel=1e-14)
        for got, want in zip(res.values, D1_X1_STAR):
            assert got == pytest.approx(float(want), rel=1e-12)

    def test_intercept_is_not_subtracted(self, d1):
        # Only slope multiples are removed, so the mean survives:
        # mean(X1*) = mean(X1) - c12 * mean(X2) != 0 here.
        res = residualize(d1, "X1", ["X2"])
        want_mean = 3.5 - (31 / 35) * 3.5
        assert res.values.mean() == pytest.approx(want_mean, rel=1e-12)
        assert abs(res.values.mean()) > 0.1

    def test_result_uncorrelated_with_every_control(self):
        rng = np.random.default_rng(14)
        for k in (2, 3, 4):
            ds = random_dataset(rng, n=40, k=k)
            controls = predictor_names(k)[1:]
            res = residualize(ds, "X1", controls)
            merged = res.merged_into(ds)
            for control in controls:
                assert abs(pearson_r(merged, res.name, control)) <= 1e-8

    def test_custom_name(self, d1):
        res = residualize(d1, "X1", ["X2"], name="adj")
        assert res.name == "adj"
        assert "adj" in res.merged_into(d1)

    def test_default_name_is_the_first_free_one(self, d1):
        merged = residualize(d1, "X1", ["X2"]).merged_into(d1)
        again = residualize(merged, "X1", ["X2"])
        assert again.name == "X1**"
        assert again.merged_into(merged).names[-2:] == ("X1*", "X1**")
        assert residualize_with(merged, "X1", ["X2"], [0.5]).name == "X1**"
        # An explicit name is kept as given, and collides at the merge.
        res = residualize(merged, "X1", ["X2"], name="X1*")
        assert res.name == "X1*"
        with pytest.raises(DuplicateColumn):
            res.merged_into(merged)

    def test_values_match_oracle_residuals_plus_intercept(self, d1):
        # X1* differs from the auxiliary fit's residuals by exactly that
        # fit's intercept.
        res = residualize(d1, "X1", ["X2"])
        exact_coef = oracle.fit_coefficients(
            [Fraction(v) for v in d1.column("X1")],
            [[Fraction(v) for v in d1.column("X2")]])
        exact_resid = oracle.residual_vector(
            [Fraction(v) for v in d1.column("X1")],
            [[Fraction(v) for v in d1.column("X2")]])
        for got, resid in zip(res.values, exact_resid):
            assert got == pytest.approx(float(resid + exact_coef[0]), rel=1e-12)

    def test_empty_controls_rejected(self, d1):
        with pytest.raises(ValueError):
            residualize(d1, "X1", [])

    def test_merged_into_shares_the_frozen_values(self, d1):
        res = residualize(d1, "X1", ["X2"])
        merged = res.merged_into(d1)
        assert np.shares_memory(merged.column(res.name), res.values)
        with pytest.raises(ValueError):
            merged.column(res.name)[0] = 1.0

    def test_residualize_keeps_the_array_it_built(self, d1, monkeypatch):
        built = []
        combination = partialreg.transform._combination

        def spy(*args):
            built.append(combination(*args))
            return built[-1]

        monkeypatch.setattr(partialreg.transform, "_combination", spy)
        res = residualize(d1, "X1", ["X2"])
        assert res.values is built[0]

    def test_merged_into_is_immune_to_the_callers_array(self, d1):
        source = np.arange(6.0)
        res = ResidualizedVariable("Z", "X1", ("X2",), (0.5,), source)
        merged = res.merged_into(d1)
        source[0] = 42.0
        assert merged.column("Z").tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert not np.shares_memory(merged.column("Z"), source)

    def test_construction_rejects_non_finite_values(self):
        frozen = np.array([1.0, -np.inf])
        frozen.setflags(write=False)  # kept as is, and still scanned
        for values in ([1.0, float("nan")], [0.0, 1.0, float("inf"), 3.0],
                       frozen):
            with pytest.raises(ValueError, match="'Z' contains a non-finite"):
                ResidualizedVariable("Z", "X1", ("X2",), (0.5,), values)

    def test_construction_rejects_a_scalar(self):
        with pytest.raises(ValueError, match="'Z' must be one-dimensional"):
            ResidualizedVariable("Z", "X1", ("X2",), (0.5,), 5)

    def test_collinear_controls_rejected(self, d1):
        doubled = d1.with_column("X2b", 2.0 * d1.column("X2"))
        with pytest.raises(SingularDesign):
            residualize(doubled, "X1", ["X2", "X2b"])


    @pytest.mark.parametrize("controls", [["X1"], ["X2", "X1"]])
    def test_target_among_controls_rejected_before_fitting(
            self, d1, monkeypatch, controls):
        def no_fit(*args):
            raise AssertionError("fit was called")

        monkeypatch.setattr(partialreg.transform, "fit", no_fit)
        with pytest.raises(CollinearPredictors, match="among its own"):
            residualize(d1, "X1", controls)

    def test_residualize_with_still_takes_the_target(self, d1):
        res = residualize_with(d1, "X1", ["X1"], [1.0])
        assert np.array_equal(res.values, np.zeros(d1.n))


class TestResidualizeWith:
    def test_subtracts_given_multiples(self, d1):
        res = residualize_with(d1, "X1", ["X2"], [0.5])
        want = d1.column("X1") - 0.5 * d1.column("X2")
        assert np.allclose(res.values, want, rtol=0, atol=0)

    def test_zero_coefficient_is_identity(self, d1):
        res = residualize_with(d1, "X1", ["X2"], [0.0])
        assert np.array_equal(res.values, d1.column("X1"))

    def test_length_mismatch(self, d1):
        with pytest.raises(LengthMismatch):
            residualize_with(d1, "X1", ["X2"], [0.5, 0.25])

    def test_fitted_coefficients_reproduce_residualize(self, d1):
        fitted = residualize(d1, "X1", ["X2"])
        manual = residualize_with(
            d1, "X1", ["X2"], fitted.control_coefficients)
        assert np.array_equal(manual.values, fitted.values)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_coefficient_is_an_argument_error(self, d1, bad):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            residualize_with(d1, "X1", ["X2"], [bad])


class TestBuildTransform:
    def test_unit_determinant(self):
        t = build_transform(3, 1, [0.7, -1.2])
        assert t.determinant == pytest.approx(1.0, abs=1e-12)

    def test_layout_k3_target_first(self):
        t = build_transform(3, 1, [0.5, 0.25])
        want = np.array([
            [1.0, 0.0, 0.0],
            [-0.5, 1.0, 0.0],
            [-0.25, 0.0, 1.0],
        ])
        assert np.array_equal(t.gamma, want)

    def test_layout_k3_target_middle(self):
        t = build_transform(3, 2, [0.5, 0.25])
        want = np.array([
            [1.0, -0.5, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -0.25, 1.0],
        ])
        assert np.array_equal(t.gamma, want)

    def test_applying_matches_residualize_with(self, d1_extended):
        coefficients = [0.3, -0.8]
        t = build_transform(3, 1, coefficients)
        names = ["X1", "X2", "X3"]
        transformed = apply_transform(d1_extended, names, t)
        manual = residualize_with(
            d1_extended, "X1", ["X2", "X3"], coefficients)
        assert np.array_equal(transformed.column("X1"), manual.values)
        assert np.array_equal(transformed.column("X2"),
                              d1_extended.column("X2"))

    def test_bad_target_index(self):
        with pytest.raises(IndexOutOfRange):
            build_transform(3, 0, [0.1, 0.2])
        with pytest.raises(IndexOutOfRange):
            build_transform(3, 4, [0.1, 0.2])

    def test_coefficient_count_checked(self):
        with pytest.raises(LengthMismatch):
            build_transform(3, 1, [0.1])


class TestApplyTransform:
    def test_rescaling_one_predictor(self, d1):
        t = PredictorTransform([[2.0, 0.0], [0.0, 1.0]])
        out = apply_transform(d1, ["X1", "X2"], t)
        assert np.array_equal(out.column("X1"), 2.0 * d1.column("X1"))
        assert np.array_equal(out.column("X2"), d1.column("X2"))

    def test_column_mixing_follows_columns_of_gamma(self, d1):
        t = PredictorTransform([[1.0, 1.0], [0.0, 1.0]])
        out = apply_transform(d1, ["X1", "X2"], t)
        # new X2 = 1*X1 + 1*X2 (weights read down column 2)
        assert np.allclose(out.column("X2"),
                           d1.column("X1") + d1.column("X2"),
                           rtol=0, atol=0)
        assert np.array_equal(out.column("X1"), d1.column("X1"))

    def test_other_columns_and_order_preserved(self, d1):
        t = PredictorTransform([[1.0, 0.0], [-0.5, 1.0]])
        out = apply_transform(d1, ["X1", "X2"], t)
        assert out.names == d1.names
        assert np.array_equal(out.column("Y"), d1.column("Y"))

    def test_predictor_count_must_match(self, d1):
        t = PredictorTransform([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(LengthMismatch):
            apply_transform(d1, ["X1"], t)

    def test_unit_columns_are_the_source_arrays(self, d1_extended):
        t = build_transform(3, 2, [0.3, -0.8])
        out = apply_transform(d1_extended, ["X1", "X2", "X3"], t)
        for name in ("X1", "X3", "Y"):
            assert out.column(name) is d1_extended.column(name)
        assert out.column("X2") is not d1_extended.column("X2")

    def test_unknown_predictor_rejected_even_if_untouched(self, d1):
        t = PredictorTransform(np.eye(2))
        with pytest.raises(UnknownColumn):
            apply_transform(d1, ["X1", "nope"], t)

    def test_changed_columns_exact_on_integers_with_dyadic_weights(self):
        rng = np.random.default_rng(12)
        raw = rng.integers(-1000, 1001, size=(64, 3))
        names = ["A", "B", "C"]
        ds = Dataset({name: raw[:, i] for i, name in enumerate(names)})
        gamma = [[0.5, -0.25, 0.0], [1.75, 1.0, 0.0], [-3.0, 0.125, 1.0]]
        out = apply_transform(ds, names, PredictorTransform(gamma))
        for j, name in enumerate(names[:2]):
            want = [float(sum(Fraction(gamma[i][j]) * int(row[i])
                              for i in range(3))) for row in raw]
            assert np.array_equal(out.column(name), want)
        assert out.column("C") is ds.column("C")


class TestOneCombinedColumn:
    def test_every_route_rounds_as_the_direct_arithmetic(self):
        # x1 - c2*x2 - c3*x3, left to right, is the rounding the combined
        # column has always had; no route that forms it may drift from it.
        rng = np.random.default_rng(31)
        for _ in range(60):
            k = int(rng.integers(2, 5))
            names = predictor_names(k)
            ds = random_dataset(rng, n=int(rng.integers(8, 40)), k=k)
            ds = ds.replace_columns({
                name: ds.column(name) * 10.0 ** rng.uniform(-5, 6)
                for name in names})
            coefficients = rng.normal(size=k - 1) * 10.0 ** rng.uniform(-3, 3)
            want = ds.column("X1")
            for name, c in zip(names[1:], coefficients):
                want = want - c * ds.column(name)
            residual = residualize_with(ds, "X1", names[1:], coefficients)
            transformed = apply_transform(
                ds, names, build_transform(k, 1, coefficients))
            assert np.array_equal(residual.values, want)
            assert np.array_equal(transformed.column("X1"), want)
            deviations = want - want.mean()
            y = ds.column("Y")
            slope = ((np.dot(deviations, y - y.mean()) / ds.n)
                     / (np.dot(deviations, deviations) / ds.n))
            assert combined_slope(ds, "Y", "X1", names[1:],
                                  coefficients) == slope


    # The suite runs with filterwarnings = ["error"], so a numpy overflow
    # warning on the way would fail these before the typed error.
    @pytest.mark.parametrize("build", [
        lambda ds: combined_slope(ds, "Y", "X1", ["X2", "X3"],
                                  [1e308, -1e308]),
        lambda ds: residualize_with(ds, "X1", ["X2", "X3"], [1e308, -1e308]),
        lambda ds: apply_transform(ds, ["X1", "X2"], PredictorTransform(
            [[1e308, 0.0], [0.0, 1.0]])),
    ], ids=["combined_slope", "residualize_with", "apply_transform"])
    def test_overflow_is_a_singular_design(self, d1_extended, build):
        with pytest.raises(SingularDesign, match="overflows the double range"):
            build(d1_extended)

    @pytest.mark.parametrize("coefficient", [-1e308, -2e307],
                             ids=["product", "sum"])
    def test_unit_first_weight_overflow_is_a_singular_design(self,
                                                              coefficient):
        # x1* is built as x1 + (-c*x2): at -1e308 the product overflows,
        # at -2e307 it is finite and the sum overflows.
        ds = Dataset({"X1": np.full(4, 1e308), "X2": [1.0, 2.0, 3.0, 4.0]})
        with pytest.raises(SingularDesign, match="overflows the double range"):
            residualize_with(ds, "X1", ["X2"], [coefficient])


class TestOneFinitenessScan:
    """The library's own routes never scan x1* for non-finite values: the
    overflow flags of its build stand in, and it reaches the moment
    routine as that array.  Every public record scans what it is handed
    once."""

    @pytest.fixture()
    def scans(self, monkeypatch):
        names = []
        freeze = partialreg.dataset._freeze

        def spy(values, name, n):
            names.append(name)
            return freeze(values, name, n)

        patch_library(monkeypatch, "_freeze", spy)
        return names

    @pytest.mark.parametrize("call", [
        lambda ds: run_verification_suite(ds, "Y", "X1", ["X2", "X3"]),
        lambda ds: verify_residualized_slope(ds, "Y", "X1", ["X2", "X3"]),
        lambda ds: gamma_surface(ds, "Y", "X1", ["X2", "X3"], [0.0, 1.0],
                                 [0.0, 1.0]),
    ], ids=["suite", "verify_residualized_slope", "gamma_surface"])
    def test_x1_star_is_never_scanned(self, scans, d1_extended, call):
        call(d1_extended)
        assert "X1*" not in scans

    def test_public_entry_points_still_scan(self, scans, d1):
        before = len(scans)
        residual = ResidualizedVariable("Z", "X1", ("X2",), (0.5,),
                                        np.arange(6.0))
        d1.with_column("W", residual.values)
        d1.replace_columns({"X2": residual.values})
        Dataset({"V": residual.values, "U": residual.values})
        residualize(d1, "X1", ["X2"]).merged_into(d1)
        assert scans[before:] == ["Z", "W", "X2", "V", "U", "X1*", "X1*"]


class TestNoWrapping:
    """The library's own routes hand x1* to the moment routine as the array
    its build returned: no dataset is built or derived and no
    ResidualizedVariable is made around it."""

    @pytest.mark.parametrize("call", [
        lambda ds: run_verification_suite(ds, "Y", "X1", ["X2"]),
        lambda ds: run_verification_suite(ds, "Y", "X1", ["X2", "X3"]),
        lambda ds: verify_residualized_slope(ds, "Y", "X1", ["X2"]),
        lambda ds: verify_residualized_slope(ds, "Y", "X1", ["X2", "X3"]),
        lambda ds: combined_slope(ds, "Y", "X1", ["X2"], [0.5]),
        lambda ds: combined_slope(ds, "Y", "X1", ["X2", "X3"], [0.5, -0.25]),
        lambda ds: gamma_sweep(ds, "Y", "X1", "X2", [-1.0, 0.0, 1.0]),
        lambda ds: slope_on_gamma(ds, "Y", "X1", "X2", 0.5),
        lambda ds: gamma_roots(ds, "Y", "X1", "X2"),
        lambda ds: gamma_surface(ds, "Y", "X1", ["X2", "X3"], [0.0, 1.0],
                                 [0.0, 1.0]),
    ], ids=["suite_one_control", "suite_two_controls",
            "verify_residualized_slope_one_control",
            "verify_residualized_slope_two_controls",
            "combined_slope_one_control", "combined_slope_two_controls",
            "gamma_sweep", "slope_on_gamma", "gamma_roots", "gamma_surface"])
    def test_routes_wrap_nothing(self, monkeypatch, d1_extended, call):
        wraps = []

        def counting(method):
            def wrapper(self, *args):
                wraps.append(type(self).__name__)
                return method(self, *args)
            return wrapper

        monkeypatch.setattr(Dataset, "__init__", counting(Dataset.__init__))
        monkeypatch.setattr(Dataset, "_derive", counting(Dataset._derive))
        monkeypatch.setattr(ResidualizedVariable, "__post_init__",
                            counting(ResidualizedVariable.__post_init__))
        call(d1_extended)
        assert wraps == []


class TestMapCoefficients:
    def test_overflowing_slope_is_a_singular_design(self):
        t = build_transform(2, 1, [1e200])
        with pytest.raises(SingularDesign, match="overflow the double"):
            map_coefficients((0.0, 1e200, 1.0), t)

    def test_identity_transform_is_noop(self, d1):
        fitted = fit(d1, "Y", ["X1", "X2"])
        t = PredictorTransform(np.eye(2))
        assert map_coefficients(fitted.coefficients(), t) == \
            fitted.coefficients()

    def test_intercept_always_passes_through(self):
        t = PredictorTransform([[3.0, 1.0], [2.0, -1.0]])
        mapped = map_coefficients((7.25, 1.0, 2.0), t)
        assert mapped[0] == 7.25

    def test_rescaling_scales_slope(self, d1):
        fitted = fit(d1, "Y", ["X1", "X2"])
        t = PredictorTransform([[4.0, 0.0], [0.0, 1.0]])
        mapped = map_coefficients(fitted.coefficients(), t)
        assert mapped[1] == pytest.approx(fitted.slopes[0] / 4.0, rel=1e-14)
        assert mapped[2] == fitted.slopes[1]

    def test_residualizing_transform_on_worked_dataset(self, d1):
        # Replacing X1 by X1 - c12*X2 keeps b1 exactly and moves b2 to
        # b2 + c12*b1; both come out of the same inverse multiply.
        full = fit(d1, "Y", ["X1", "X2"])
        c12 = fit_simple(d1, "X1", "X2").slopes[0]
        t = build_transform(2, 1, [c12])
        mapped = map_coefficients(full.coefficients(), t)
        assert mapped[1] == full.slopes[0]
        assert mapped[2] == pytest.approx(
            full.slopes[1] + c12 * full.slopes[0], rel=1e-12)

    def test_mapped_equals_refit_on_transformed_columns(self):
        rng = np.random.default_rng(23)
        for k in (2, 3):
            for _ in range(30):
                ds = random_dataset(rng, n=30, k=k)
                names = predictor_names(k)
                g = rng.normal(size=(k, k)) + 2.5 * np.eye(k)
                t = PredictorTransform(g)
                original = fit(ds, "Y", names)
                refit = fit(apply_transform(ds, names, t), "Y", names)
                mapped = map_coefficients(original.coefficients(), t)
                for got, want in zip(mapped, refit.coefficients()):
                    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    @pytest.mark.parametrize("scale", [1e-6, 1e-9])
    def test_maps_in_any_units(self, scale):
        # X1 recorded in units `scale` times smaller: gamma's first row
        # carries 1/scale and the transformed columns do not depend on it.
        ds = rescaled_x1_dataset(scale)
        names = ["X1", "X2"]
        t = PredictorTransform([[1.0 / scale, 0.5 / scale], [0.25, 1.0]])
        mapped = map_coefficients(fit(ds, "Y", names).coefficients(), t)
        refit = fit(apply_transform(ds, names, t), "Y", names)
        for got, want in zip(mapped, refit.coefficients()):
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_maps_row_and_column_scaled_transforms(self):
        # Power-of-two scalings D1 @ g @ D2 are exact, so the slopes of the
        # scaled map, rescaled by D2, are those of g on D1-rescaled input,
        # as accurate as g's own condition allows.
        rng = np.random.default_rng(61)
        for _ in range(2000):
            g = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
            rows, columns = rng.integers(-20, 21, size=(2, 3))
            slopes = rng.normal(size=3)
            t = PredictorTransform(np.ldexp(g, rows[:, None] + columns))
            mapped = map_coefficients((0.0, *np.ldexp(slopes, rows)), t)
            got = np.ldexp(mapped[1:], columns)
            want = np.linalg.solve(g, slopes)
            assert abs(got - want).max() \
                <= 100 * 2.0 ** -52 * np.linalg.cond(g) * abs(want).max()

    @pytest.mark.parametrize("condition", [1e5, 1e6, 1e7, 1e8])
    def test_maps_every_transform_construction_accepts(self, condition):
        # Forward error of a backward-stable inverse: a small multiple of
        # the rounding unit times the condition number, against the exact
        # rational solve.
        rng = np.random.default_rng(int(np.log10(condition)))
        for _ in range(500):
            u, v = (np.linalg.qr(rng.normal(size=(3, 3)))[0]
                    for _ in range(2))
            g = u @ np.diag([1.0, condition ** -0.5, 1.0 / condition]) @ v.T
            slopes = rng.normal(size=3)
            mapped = map_coefficients((0.0, *slopes), PredictorTransform(g))
            exact = oracle.solve(
                [[Fraction(x) for x in row] for row in g.tolist()],
                [Fraction(b) for b in slopes.tolist()])
            want = np.array([float(x) for x in exact])
            assert abs(mapped[1:] - want).max() \
                <= 100 * 2.0 ** -52 * condition * abs(want).max()

    def test_coefficient_length_checked(self):
        t = PredictorTransform(np.eye(2))
        with pytest.raises(ShapeMismatch):
            map_coefficients((1.0, 2.0), t)

    def test_round_trip_through_inverse(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
        t = PredictorTransform(g)
        back = PredictorTransform(t.inverse_gamma())
        coefficients = (0.5, 1.0, -2.0, 3.0)
        mapped = map_coefficients(coefficients, t)
        restored = map_coefficients(mapped, back)
        for got, want in zip(restored, coefficients):
            assert got == pytest.approx(want, rel=1e-10)
