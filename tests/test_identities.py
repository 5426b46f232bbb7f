"""The slope identities and the verification suite built on them."""

import dataclasses
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracle
import partialreg.identities
import partialreg.ols
import partialreg.stats
import partialreg.transform
from helpers import (
    TILE_EDGES,
    patch_library,
    predictor_names,
    random_dataset,
    random_integer_dataset,
    rescaled_x1_dataset,
    spy_moment_calls,
    spy_passes,
)
from partialreg import (
    CollinearPredictors,
    Dataset,
    NonCanonicalSubsetRows,
    ParseError,
    PredictorTransform,
    ShapeMismatch,
    SingularDesign,
    TooFewRows,
    VerificationReport,
    aggregate_coefficients,
    correlation_matrix,
    decompose_coefficients,
    fit,
    fit_simple,
    multiple_correlation,
    pearson_r,
    residualize,
    residualize_with,
    run_verification_suite,
    verify_residualized_slope,
)
from partialreg.identities import _predictor_correlations, _residualized_r
from partialreg.ols import _LEAF_ROWS, _TILE_ROWS, _factor, _solve

#: Unit roundoff: a value with no promised bits is held to 10 u kappa of
#: its exact value, kappa being ``fit``'s ``condition_estimate``.
U = 2.0 ** -53

SUITE_CLAIMS_ONE_CONTROL = [
    "residualized_slope_one_control",
    "residual_uncorrelated_with_controls",
    "mapped_coefficients_match_refit",
    "two_predictor_slope_relations",
    "aggregation_recovers_subset_slopes",
]
SUITE_CLAIMS_TWO_CONTROLS = [
    "residualized_slope_two_controls",
    "residual_uncorrelated_with_controls",
    "controls_have_zero_slope_on_residual",
    "mapped_coefficients_match_refit",
    "aggregation_recovers_subset_slopes",
]


def without_last_tile(ds: Dataset, names) -> Dataset:
    """The columns ``names`` of ``ds`` cut to whole tiles of the pass."""
    keep = ds.n - ds.n % _TILE_ROWS
    return Dataset({name: ds.column(name)[:keep] for name in names})


def proportional_dataset() -> Dataset:
    return Dataset({
        "X1": [1.0, 2.0, 3.0, 4.0],
        "X2": [2.0, 4.0, 6.0, 8.0],
        "Y": [1.0, 3.0, 2.0, 5.0],
    })


class TestVerifyResidualizedSlope:
    def test_worked_dataset_passes(self, d1):
        report = verify_residualized_slope(d1, "Y", "X1", ["X2"])
        assert isinstance(report, VerificationReport)
        assert report.claim == "residualized_slope_one_control"
        assert report.passed
        assert report.abs_diff <= report.tolerance
        assert report.lhs[0] == pytest.approx(15 / 11, rel=1e-12)
        assert report.rhs[0] == pytest.approx(15 / 11, rel=1e-10)

    def test_claim_name_tracks_control_count(self, d1_extended):
        two = verify_residualized_slope(d1_extended, "Y", "X1", ["X2", "X3"])
        assert two.claim == "residualized_slope_two_controls"
        assert two.passed

    def test_many_controls(self):
        rng = np.random.default_rng(71)
        ds = random_dataset(rng, n=60, k=5)
        report = verify_residualized_slope(ds, "Y", "X1", predictor_names(5)[1:])
        assert report.claim == "residualized_slope_many_controls"
        assert report.passed

    def test_tolerance_is_relative_to_lhs_scale(self, d1):
        report = verify_residualized_slope(d1, "Y", "X1", ["X2"], tolerance=1e-3)
        assert report.tolerance == pytest.approx(
            1e-3 * max(1.0, abs(report.lhs[0])))

    def test_absurd_tolerance_fails_the_claim(self, d1):
        # A tolerance below rounding noise shows `passed` really reflects
        # the comparison rather than always being true.
        report = verify_residualized_slope(d1, "Y", "X1", ["X2"],
                                           tolerance=1e-18)
        assert not report.passed
        assert report.abs_diff > report.tolerance

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan"),
                                           float("inf")])
    def test_rejects_tolerance_not_finite_and_positive(self, d1, tolerance):
        with pytest.raises(ValueError, match="finite and positive"):
            verify_residualized_slope(d1, "Y", "X1", ["X2"], tolerance)

    def test_empty_controls_rejected(self, d1):
        with pytest.raises(ValueError, match="at least one control"):
            verify_residualized_slope(d1, "Y", "X1", [])

    def test_holds_across_random_datasets(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            k = int(rng.integers(2, 5))
            ds = random_dataset(rng, n=int(rng.integers(k + 3, 50)), k=k)
            report = verify_residualized_slope(
                ds, "Y", "X1", predictor_names(k)[1:])
            assert report.passed, report


class TestAggregateCoefficients:
    def test_two_predictor_contraction(self, d1):
        # Dropping X1 from the model moves its slope onto X2 through the
        # slope of X1 on X2.
        full = fit(d1, "Y", ["X1", "X2"])
        c12 = fit_simple(d1, "X1", "X2").slopes[0]
        got = aggregate_coefficients(full.slopes, [[c12], [1.0]])
        want = fit_simple(d1, "Y", "X2").slopes[0]
        assert got[0] == pytest.approx(want, rel=1e-10)

    def test_keeping_everything_is_identity(self, d1):
        full = fit(d1, "Y", ["X1", "X2"])
        got = aggregate_coefficients(full.slopes, np.eye(2))
        assert got == full.slopes

    def test_three_to_two_contraction(self, d1_extended):
        full = fit(d1_extended, "Y", ["X1", "X2", "X3"])
        aux = fit(d1_extended, "X1", ["X2", "X3"])
        matrix = np.vstack([np.array(aux.slopes), np.eye(2)])
        got = aggregate_coefficients(full.slopes, matrix)
        want = fit(d1_extended, "Y", ["X2", "X3"]).slopes
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-10)

    def test_pure_arithmetic_no_dataset_needed(self):
        got = aggregate_coefficients((390.0, 191.0), [[0.576], [1.0]])
        assert got[0] == pytest.approx(390.0 * 0.576 + 191.0, rel=1e-15)

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ShapeMismatch):
            aggregate_coefficients((1.0, 2.0), [[0.5], [1.0], [0.0]])

    def test_rejects_wide_matrix(self):
        with pytest.raises(ShapeMismatch):
            aggregate_coefficients((1.0, 2.0), np.ones((2, 3)))

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeMismatch):
            aggregate_coefficients((1.0, 2.0), [0.5, 1.0])

    def test_requires_unit_row_per_kept_predictor(self):
        with pytest.raises(NonCanonicalSubsetRows):
            aggregate_coefficients((1.0, 2.0), [[0.5], [0.9]])
        with pytest.raises(NonCanonicalSubsetRows):
            aggregate_coefficients(
                (1.0, 2.0, 3.0), [[0.5, 0.1], [1.0, 0.0], [0.2, 0.3]])

    def test_unit_rows_may_appear_in_any_order(self):
        got = aggregate_coefficients(
            (2.0, 3.0, 5.0), [[0.0, 1.0], [0.25, -0.5], [1.0, 0.0]])
        assert got == (5.0 + 0.25 * 3.0, 2.0 - 0.5 * 3.0)


class TestDecomposeCoefficients:
    def test_worked_values(self, d1):
        a1 = fit_simple(d1, "Y", "X1").slopes[0]
        a2 = fit_simple(d1, "Y", "X2").slopes[0]
        c12 = fit_simple(d1, "X1", "X2").slopes[0]
        c21 = fit_simple(d1, "X2", "X1").slopes[0]
        b1, b2 = decompose_coefficients(a1, a2, c12, c21)
        full = fit(d1, "Y", ["X1", "X2"])
        assert b1 == pytest.approx(full.slopes[0], rel=1e-10)
        assert b2 == pytest.approx(full.slopes[1], rel=1e-10)

    def test_inverts_aggregation(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            ds = random_dataset(rng, n=25, k=2)
            c12 = fit_simple(ds, "X1", "X2").slopes[0]
            c21 = fit_simple(ds, "X2", "X1").slopes[0]
            if abs(1.0 - c12 * c21) <= 1e-6:
                continue
            full = fit(ds, "Y", ["X1", "X2"])
            a1 = aggregate_coefficients(full.slopes, [[1.0], [c21]])[0]
            a2 = aggregate_coefficients(full.slopes, [[c12], [1.0]])[0]
            b1, b2 = decompose_coefficients(a1, a2, c12, c21)
            assert b1 == pytest.approx(full.slopes[0], rel=1e-10, abs=1e-12)
            assert b2 == pytest.approx(full.slopes[1], rel=1e-10, abs=1e-12)

    def test_cross_slope_product_is_r_squared(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            ds = random_dataset(rng, n=20, k=2)
            c12 = fit_simple(ds, "X1", "X2").slopes[0]
            c21 = fit_simple(ds, "X2", "X1").slopes[0]
            r = pearson_r(ds, "X1", "X2")
            assert c12 * c21 == pytest.approx(r * r, abs=1e-10)

    def test_proportional_predictors_rejected(self):
        with pytest.raises(CollinearPredictors):
            decompose_coefficients(1.0, 2.0, 2.0, 0.5)


class TestRunVerificationSuite:
    def test_one_control_claim_list_and_verdicts(self, d1):
        reports = run_verification_suite(d1, "Y", "X1", ["X2"])
        assert [r.claim for r in reports] == SUITE_CLAIMS_ONE_CONTROL
        assert all(r.passed for r in reports)

    def test_two_control_claim_list_and_verdicts(self, d1_extended):
        reports = run_verification_suite(d1_extended, "Y", "X1", ["X2", "X3"])
        assert [r.claim for r in reports] == SUITE_CLAIMS_TWO_CONTROLS
        assert all(r.passed for r in reports)

    def test_two_predictor_relations_values(self, d1):
        reports = {r.claim: r for r in run_verification_suite(
            d1, "Y", "X1", ["X2"])}
        relations = reports["two_predictor_slope_relations"]
        # b1*c12 = a2 - b2, b2*c21 = a1 - b1, c12*c21 = r^2
        assert relations.lhs[0] == pytest.approx(relations.rhs[0], abs=1e-10)
        assert relations.lhs[1] == pytest.approx(relations.rhs[1], abs=1e-10)
        assert relations.lhs[2] == pytest.approx((31 / 35) ** 2, rel=1e-12)

    def test_empty_controls_rejected(self, d1):
        with pytest.raises(ValueError):
            run_verification_suite(d1, "Y", "X1", [])

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan"),
                                           float("inf")])
    def test_rejects_tolerance_not_finite_and_positive(self, d1, tolerance):
        with pytest.raises(ValueError, match="finite and positive"):
            run_verification_suite(d1, "Y", "X1", ["X2"], tolerance)

    def test_proportional_predictors_rejected_up_front(self):
        with pytest.raises(CollinearPredictors):
            run_verification_suite(proportional_dataset(), "Y", "X1", ["X2"])

    def test_response_equal_to_x1_rejected_up_front(self, d1_extended):
        # The transform claim rewrites x1's column, the response with it.
        with pytest.raises(CollinearPredictors, match="'X1' is also x1"):
            run_verification_suite(d1_extended, "X1", "X1", ["X2", "X3"])

    @pytest.mark.parametrize("controls", [["X2"], ["X2", "X3"]])
    def test_response_equal_to_a_control_passes(self, d1_extended,
                                                controls):
        reports = run_verification_suite(d1_extended, "X2", "X1", controls)
        assert all(r.passed for r in reports)

    def test_inner_errors_name_the_claim(self):
        # X3 = X1 + X2 passes every pairwise proportionality gate but makes
        # the three-column design singular, so the first claim's fit blows
        # up; the error must say which claim it arose in.
        x1 = [1.0, 2.0, 3.0, 4.0, 5.0]
        x2 = [1.0, 3.0, 2.0, 5.0, 4.0]
        ds = Dataset({
            "X1": x1,
            "X2": x2,
            "X3": [a + b for a, b in zip(x1, x2)],
            "Y": [2.0, 4.0, 5.0, 7.0, 8.0],
        })
        with pytest.raises(SingularDesign, match="while checking"):
            run_verification_suite(ds, "Y", "X1", ["X2", "X3"])

    def test_paradox_fixture_amplified_slope(self, amplified_slope_data):
        ds = amplified_slope_data
        a1 = fit_simple(ds, "Y", "X1").slopes[0]
        b1 = fit(ds, "Y", ["X1", "X2"]).slopes[0]
        assert b1 > a1 > 0
        reports = run_verification_suite(ds, "Y", "X1", ["X2"])
        assert all(r.passed for r in reports)

    def test_paradox_fixture_sign_flip(self, sign_flip_data):
        ds = sign_flip_data
        a2 = fit_simple(ds, "Y", "X2").slopes[0]
        b2 = fit(ds, "Y", ["X1", "X2"]).slopes[1]
        assert a2 > 0 > b2
        reports = run_verification_suite(ds, "Y", "X2", ["X1"])
        assert all(r.passed for r in reports)

    def test_random_datasets_all_pass(self):
        rng = np.random.default_rng(97)
        for _ in range(30):
            k = int(rng.integers(2, 5))
            ds = random_dataset(rng, n=int(rng.integers(k + 4, 40)), k=k)
            reports = run_verification_suite(
                ds, "Y", "X1", predictor_names(k)[1:])
            assert all(r.passed for r in reports), [
                (r.claim, r.abs_diff) for r in reports if not r.passed]

    def test_orthogonal_design_passes_with_equal_slopes(self):
        # On an orthogonal design the suite passes and, additionally,
        # every multiple slope coincides with its simple slope.
        x1 = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        x2 = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        y = 1.5 * x1 - 2.0 * x2 + np.array(
            [0.2, -0.3, 0.1, 0.4, -0.2, 0.3, -0.1, -0.4])
        ds = Dataset({"X1": x1, "X2": x2, "Y": y})
        reports = run_verification_suite(ds, "Y", "X1", ["X2"])
        assert all(r.passed for r in reports)
        full = fit(ds, "Y", ["X1", "X2"])
        for name, slope in zip(full.predictors, full.slopes):
            simple = fit_simple(ds, "Y", name).slopes[0]
            assert abs(slope - simple) <= 1e-10

    def test_report_tolerance_bookkeeping(self, d1):
        for report in run_verification_suite(d1, "Y", "X1", ["X2"]):
            assert report.passed == (report.abs_diff <= report.tolerance)
            assert len(report.lhs) == len(report.rhs)

    def test_tag_claim_annotates_the_same_error(self):
        original = ParseError("bad", row=3, column=2)
        with pytest.raises(ParseError) as exc:
            with partialreg.identities._tag_claim("c"):
                raise original
        assert exc.value is original
        assert (exc.value.row, exc.value.column) == (3, 2)
        assert str(exc.value) == "while checking c: bad"

    @pytest.mark.parametrize("controls", [["X2"], ["X2", "X3"]],
                             ids=["one_control", "two_controls"])
    def test_one_row_pass_per_suite_call(self, monkeypatch, d1_extended,
                                         controls):
        # x1*'s R comes from the first pass's R by the transform law, so
        # the rows are factored once; x1* is still built once, as data,
        # and x1's moments follow from x1*'s, so one moment call serves.
        builds = []
        combination = partialreg.transform._combination

        def counting_build(ds, names, weights):
            builds.append(list(names))
            return combination(ds, names, weights)

        passes = spy_passes(monkeypatch)
        moments = spy_moment_calls(monkeypatch)
        patch_library(monkeypatch, "_combination", counting_build)
        for calls in (1, 2):
            run_verification_suite(d1_extended, "Y", "X1", controls)
            assert [names for names, _ in passes] \
                == [["X1", *controls, "Y"]] * calls
            assert all(ds.column("X1") is d1_extended.column("X1")
                       for _, ds in passes)
            assert len(moments) == calls
            assert builds == [["X1", *controls]] * calls

    def test_moment_route_reads_the_residual_array_itself(
            self, monkeypatch, d1_extended):
        # The claims on x1*'s data read the array _combination built, not
        # the derived R, so a fault in that array stays visible.
        built, moments = [], []

        def spy_combination(*args):
            built.append(combination(*args))
            return built[-1]

        def recording_moments(columns, names, pairs=None):
            moments.append((list(names), list(columns)))
            return central_moments(columns, names, pairs)

        combination = partialreg.transform._combination
        central_moments = partialreg.stats._central_moments
        patch_library(monkeypatch, "_combination", spy_combination)
        patch_library(monkeypatch, "_central_moments", recording_moments)
        run_verification_suite(d1_extended, "Y", "X1", ["X2", "X3"])
        (x1_star,) = built
        ((names, columns),) = moments
        assert names == ["Y", "X1*", "X2", "X3"]
        assert columns[1] is x1_star

    def test_verify_residualized_slope_reads_the_rows_once(
            self, monkeypatch, d1_extended):
        passes = spy_passes(monkeypatch)
        verify_residualized_slope(d1_extended, "Y", "X1", ["X2", "X3"])
        assert [names for names, _ in passes] == [["X1", "X2", "X3", "Y"]]

    @pytest.mark.parametrize("controls", [["X2"], ["X2", "X3"]],
                             ids=["one_control", "two_controls"])
    def test_moment_route_catches_a_fault_in_the_shared_pass(
            self, monkeypatch, controls):
        # The first claim compares a shared pass with fit_simple's moments,
        # so it must notice a pass that drops the final partial tile.
        factor = partialreg.ols._factor

        def short_pass(ds, names):
            return factor(without_last_tile(ds, names), names)

        ds = random_dataset(np.random.default_rng(41), n=_TILE_ROWS + 600,
                            k=3)
        assert all(r.passed for r in run_verification_suite(
            ds, "Y", "X1", controls))
        patch_library(monkeypatch, "_factor", short_pass)
        first = run_verification_suite(ds, "Y", "X1", controls)[0]
        assert first.claim.startswith("residualized_slope_")
        assert not first.passed

    @pytest.mark.parametrize("scale", [1e7, 1e9])
    @pytest.mark.parametrize("controls", [["X2"], ["X2", "X3"]],
                             ids=["one_control", "two_controls"])
    def test_passes_after_a_unit_change(self, scale, controls):
        # The residualizing transform's singular values spread as 1/c**2
        # while c grows with the units of X1; the gate must not follow.
        reports = run_verification_suite(rescaled_x1_dataset(scale), "Y",
                                         "X1", controls)
        assert all(r.passed for r in reports), [
            (r.claim, r.abs_diff) for r in reports if not r.passed]

    @pytest.mark.parametrize("controls", [["X2"], ["X2", "X3"]],
                             ids=["one_control", "two_controls"])
    def test_data_already_holding_x1_star(self, d1_extended, controls):
        # residualize's own CSV output holds X1*: the suite's residual
        # takes the next free name and every report keeps its bits.
        rng = np.random.default_rng(37)
        for ds in [d1_extended, *(random_dataset(rng, n=30, k=3)
                                  for _ in range(4))]:
            merged = residualize(ds, "X1", controls).merged_into(ds)
            twice = residualize(ds, "X1", controls, "X1**").merged_into(
                merged)
            for held in (merged, twice):
                assert run_verification_suite(held, "Y", "X1", controls) \
                    == run_verification_suite(ds, "Y", "X1", controls)
                assert verify_residualized_slope(held, "Y", "X1", controls) \
                    == verify_residualized_slope(ds, "Y", "X1", controls)

    @pytest.mark.parametrize("controls", [["X2"], ["X2", "X3"]],
                             ids=["one_control", "two_controls"])
    def test_reports_equal_the_public_calls(self, controls):
        rng = np.random.default_rng(29)
        for _ in range(10):
            ds = random_dataset(rng, n=int(rng.integers(8, 60)), k=3)
            reports = run_verification_suite(ds, "Y", "X1", controls)
            assert reports[0] == verify_residualized_slope(
                ds, "Y", "X1", controls)
            full = fit(ds, "Y", ["X1", *controls])
            union = ["X1", *controls, "Y"]
            aux = _solve(_factor(ds, union), union, 0,
                         range(1, len(controls) + 1))
            matrix = np.vstack([aux.slopes, np.eye(len(controls))])
            aggregation = reports[-1]
            assert aggregation.claim == "aggregation_recovers_subset_slopes"
            assert aggregation.lhs == aggregate_coefficients(
                full.slopes, matrix)
            # The moment claims read one call over [Y, X1*, *controls]; a
            # subset's moments are the superset's bits.
            augmented = residualize_with(
                ds, "X1", controls, aux.slopes, "X1*").merged_into(ds)
            assert reports[0].rhs == fit_simple(augmented, "Y", "X1*").slopes
            assert reports[1].lhs == (multiple_correlation(
                augmented, "X1*", controls),)


class TestMomentPasses:
    """One moment call per column set, and which sets those are."""

    @pytest.mark.parametrize("controls", [["X2"], ["X2", "X3"]],
                             ids=["one_control", "two_controls"])
    def test_suite(self, monkeypatch, d1_extended, controls):
        calls = spy_moment_calls(monkeypatch)
        run_verification_suite(d1_extended, "Y", "X1", controls)
        assert calls == [["Y", "X1*", *controls]]

    def test_verify_residualized_slope(self, monkeypatch, d1_extended):
        calls = spy_moment_calls(monkeypatch)
        verify_residualized_slope(d1_extended, "Y", "X1", ["X2", "X3"])
        assert calls == [["Y", "X1*", "X2", "X3"]]

    def test_constant_response_with_one_control(self):
        # The gate shares its moment call with the response but looks only
        # at the predictors, so a constant response is no gate error.  The
        # relations hold within 10 u kappa of the exact values, kappa being
        # fit's condition estimate: no contract promises their bits.
        rng = np.random.default_rng(43)
        for n in (6, 40):
            ds = random_dataset(rng, n=n, k=2)
            ds = ds.replace_columns({"Y": np.full(n, 2.5)})
            reports = run_verification_suite(ds, "Y", "X1", ["X2"])
            assert [r.claim for r in reports] == SUITE_CLAIMS_ONE_CONTROL
            assert all(r.passed for r in reports)
            assert reports[0] == verify_residualized_slope(
                ds, "Y", "X1", ["X2"])
            x1, x2 = ds.column("X1").tolist(), ds.column("X2").tolist()
            # A constant response has a1 = a2 = b1 = b2 = 0 exactly, and
            # r**2 = c12*c21.
            exact = (0, 0, oracle.simple_slope(x1, x2)
                     * oracle.simple_slope(x2, x1))
            bound = 10 * U * fit(ds, "Y", ["X1", "X2"]).condition_estimate
            relations = reports[3]
            assert relations.claim == "two_predictor_slope_relations"
            for side in (relations.lhs, relations.rhs):
                for got, want in zip(side, exact, strict=True):
                    assert abs(got - want) <= bound * max(1, abs(want))


class TestGateReadsTheFirstPass:
    """The collinearity gate takes its correlations from the R of
    ``[x1, *controls, y]`` and agrees with the moment route."""

    @pytest.mark.parametrize("n", [50, _TILE_ROWS - 1, _TILE_ROWS + 1,
                                   _TILE_ROWS + _LEAF_ROWS + 1])
    def test_correlations_match_the_moment_route(self, n):
        rng = np.random.default_rng(n)
        names = ["X1", "X2", "X3"]
        for _ in range(3):
            ds = random_dataset(rng, n=n, k=3)
            from_r = _predictor_correlations(
                _factor(ds, [*names, "Y"]), "Y", names)
            assert np.max(np.abs(from_r - correlation_matrix(ds, names))) \
                <= 1e-12

    @pytest.mark.parametrize("n", [50, _TILE_ROWS + _LEAF_ROWS + 1])
    def test_verdict_matches_the_moment_route(self, n):
        # x3 = 2*x2 + delta*noise walks |r(x2, x3)| across 1 - 1e-12.
        rng = np.random.default_rng(53)
        x1, x2, noise, y = rng.normal(size=(4, n))
        verdicts = set()
        for delta in np.geomspace(1e-3, 1e-9, 25):
            ds = Dataset({"X1": x1, "X2": x2, "X3": 2.0 * x2 + delta * noise,
                          "Y": y})
            r = abs(float(correlation_matrix(ds, ["X2", "X3"])[0, 1]))
            try:
                run_verification_suite(ds, "Y", "X1", ["X2", "X3"])
                rejected = False
            except CollinearPredictors:
                rejected = True
            if abs(r - (1.0 - 1e-12)) > 1e-13:
                assert rejected == (r >= 1.0 - 1e-12), (delta, r)
                verdicts.add(rejected)
        assert verdicts == {False, True}

    @pytest.mark.parametrize("value", [3.0, 0.1])
    @pytest.mark.parametrize("column, controls", [
        ("X1", ["X2"]), ("X2", ["X2"]), ("X1", ["X2", "X3"]),
        ("X3", ["X2", "X3"]),
    ])
    def test_constant_predictor_is_a_singular_design(self, d1_extended,
                                                     column, controls,
                                                     value):
        ds = d1_extended.replace_columns({column: np.full(6, value)})
        with pytest.raises(SingularDesign,
                           match=f"column '{column}' is constant"):
            run_verification_suite(ds, "Y", "X1", controls)

    @pytest.mark.parametrize("controls", [["X2"], ["X2", "X3"]],
                             ids=["one_control", "two_controls"])
    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_overflow_is_a_singular_design(self, controls, scale):
        # Largest entries at 1e200 leave R finite and overflow its Gram
        # matrix; at 1e308 R itself overflows.  No numpy warning escapes.
        ds = random_dataset(np.random.default_rng(59), n=40, k=3)
        ds = ds.replace_columns({
            name: ds.column(name) / np.abs(ds.column(name)).max() * scale
            for name in ("X1", "X2", "X3")})
        finite = np.all(np.isfinite(_factor(ds, ["X1", *controls, "Y"])))
        assert finite == (scale == 1e200)
        with pytest.raises(SingularDesign,
                           match="overflows the double range"):
            run_verification_suite(ds, "Y", "X1", controls)

    def test_response_variance_overflow_is_a_singular_design(self):
        # R is finite here and only var(y) overflows; the suite reads no
        # cov(y, x_j) with two controls but still computes var(y), whose
        # gate is what rejects these data.
        x1, x2, x3, noise = np.random.default_rng(1).normal(size=(4, 200))
        ds = Dataset({"X1": x1, "X2": x2, "X3": x3,
                      "Y": 1e153 * (x1 + 0.5 * x2) + 1e150 * noise})
        with pytest.raises(SingularDesign, match=r"moments of \['Y', 'X1\*'"
                           r".*overflows the double range"):
            run_verification_suite(ds, "Y", "X1", ["X2", "X3"])


def suite_faults() -> dict:
    """Fault -> ``[(owner, attribute, faulty stand-in)]``, patched at the
    names the suite calls through; each stand-in wraps the real code."""
    identities, transform = partialreg.identities, partialreg.transform
    factor, moments = identities._factor, transform._central_moments
    combination, solve = transform._combination, partialreg.ols._solve
    inverse_gamma = PredictorTransform.inverse_gamma
    build_transform = identities.build_transform

    def y_column_scaled(ds, names):
        r = factor(ds, names).copy()
        r[:, -1] *= 1.01
        return r

    def x1_star_shifted(ds, names, weights):
        column = combination(ds, names, weights).copy()
        column[:100] += 0.3
        column.setflags(write=False)
        return column

    def slopes_scaled(*args):
        fitted = solve(*args)
        return dataclasses.replace(fitted, slopes=tuple(
            s * (1.0 + 1e-6) for s in fitted.slopes))

    def inverse_nudged(self):
        inverse = inverse_gamma(self)
        inverse[0, -1] += 1e-6
        return inverse

    def coefficients_scaled(k, target_index, coefficients):
        return build_transform(k, target_index,
                               [c * (1.0 + 1e-6) for c in coefficients])

    return {
        "a: _factor drops the last partial tile": [(
            identities, "_factor",
            lambda ds, names: factor(without_last_tile(ds, names), names))],
        "b: _factor scales R's y column by 1.01": [
            (identities, "_factor", y_column_scaled)],
        "c: _central_moments drops the last partial tile": [(
            transform, "_central_moments",
            lambda columns, names, pairs=None: moments(
                [x[:x.size - x.size % _TILE_ROWS] for x in columns], names,
                pairs))],
        "d: _combination adds 0.3 to x1*'s first 100 rows": [
            (transform, "_combination", x1_star_shifted)],
        "e: _solve scales its slopes by 1 + 1e-6": [
            (identities, "_solve", slopes_scaled),
            (transform, "_solve", slopes_scaled)],
        "f: inverse_gamma adds 1e-6 to one entry": [
            (PredictorTransform, "inverse_gamma", inverse_nudged)],
        "g: build_transform scales its coefficients by 1 + 1e-6": [
            (identities, "build_transform", coefficients_scaled)],
    }


def failed_by_fault() -> dict:
    """Fault letter of suite_faults -> the claims it fails, as measured,
    with one control and with two; the README's table lists the same map
    per claim, and a test holds the two together."""
    one, uncorrelated, mapped, relations, aggregation = \
        SUITE_CLAIMS_ONE_CONTROL
    two, _, zero_slope, _, _ = SUITE_CLAIMS_TWO_CONTROLS
    return {
        "one_control": {
            "a": {one, uncorrelated, relations},
            "b": {one, relations},
            "c": {one, uncorrelated, relations},
            "d": {one, uncorrelated, relations},
            "e": {one, uncorrelated, relations, aggregation},
            "f": {mapped},
            "g": {mapped},
        },
        "two_controls": {
            "a": {two, uncorrelated, zero_slope},
            "b": {two},
            "c": {two, uncorrelated, zero_slope},
            "d": {two, uncorrelated, zero_slope},
            "e": {two, uncorrelated, zero_slope, aggregation},
            "f": {mapped},
            "g": {mapped},
        },
    }


class TestFaultMatrix:
    """Every claim compares two routes that do not share the primitive
    under test: each injected fault fails some claim, and each claim fails
    under some fault."""

    @pytest.mark.parametrize("controls", [["X2"], ["X2", "X3"]],
                             ids=["one_control", "two_controls"])
    def test_every_fault_fails_a_claim_and_every_claim_a_fault(
            self, request, controls):
        ds = random_dataset(np.random.default_rng(41), n=_TILE_ROWS + 600,
                            k=3)
        reports = run_verification_suite(ds, "Y", "X1", controls)
        assert all(r.passed for r in reports)
        claims = [r.claim for r in reports]
        failing = {}
        for fault, patches in suite_faults().items():
            with pytest.MonkeyPatch.context() as patch:
                for owner, name, faulty in patches:
                    patch.setattr(owner, name, faulty)
                reports = run_verification_suite(ds, "Y", "X1", controls)
            assert [r.claim for r in reports] == claims
            failing[fault[0]] = {r.claim for r in reports if not r.passed}
        assert all(failing.values()), failing
        assert set().union(*failing.values()) == set(claims), failing
        assert failing == failed_by_fault()[request.node.callspec.id]


def readme_fault_map() -> dict:
    """The README's claim x (one control, two controls) fault table, read
    back in :func:`failed_by_fault`'s form; ``(a)–(e)`` is a range."""
    text = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    rows = re.findall(r"^\| `([\w*]+)` \|([^|]*)\|([^|]*)\|$", text,
                      re.MULTILINE)
    assert rows, "no fault table in README.md"
    table = {"one_control": {}, "two_controls": {}}
    for claim, *cells in rows:
        for (controls, failing), cell in zip(table.items(), cells):
            for first, last in re.findall(r"\(([a-z])\)(?:–\(([a-z])\))?",
                                          cell):
                for code in range(ord(first), ord(last or first) + 1):
                    failing.setdefault(chr(code), set()).add(
                        claim.replace("*", controls))
    return table


def test_readme_fault_table_is_the_pinned_matrix():
    assert readme_fault_map() == failed_by_fault()


class TestDerivedR:
    """The R of ``[1, x1*, *controls, y]`` derived from the first pass's R
    by the transform law agrees with a real pass over x1*'s rows."""

    @staticmethod
    def both_routes(ds: Dataset, controls, coefficients=None):
        """The merged data, x1*'s column names and its R by each route:
        derived, then a pass; ``coefficients`` default to the auxiliary
        fit's slopes."""
        union = ["X1", *controls, "Y"]
        r = _factor(ds, union)
        if coefficients is None:
            coefficients = _solve(r, union, 0,
                                  range(1, len(controls) + 1)).slopes
        residual = residualize_with(ds, "X1", controls, coefficients)
        merged = residual.merged_into(ds)
        star = [residual.name, *controls, "Y"]
        return merged, star, _residualized_r(
            r, residual.control_coefficients), _factor(merged, star)

    @staticmethod
    def fits(r: np.ndarray, ds: Dataset, star) -> list:
        """The refit's coefficients, then each control's slope on x1*
        beside the other controls, or TooFewRows for a short fit.  A zero
        slope is standardized by sd(x1*)/sd(control): its rounding carries
        the units 1/sd(x1*), which grow as x1 nears the controls' span."""
        controls = range(1, len(star) - 1)
        designs = [(len(star) - 1, range(len(star) - 1)), *(
            (j, [0, *(i for i in controls if i != j)]) for j in controls)]
        out = []
        for response, predictors in designs:
            try:
                fitted = _solve(r, star, response, predictors)
            except TooFewRows:
                out.append(TooFewRows)
                continue
            if response == len(star) - 1:
                out.append(fitted.coefficients())
            else:
                scale = (np.std(ds.column(star[0]))
                         / np.std(ds.column(star[response])))
                out.append((fitted.slopes[0] * scale,))
        return out

    @staticmethod
    def assert_close(got, want, rel):
        """Each group agrees to ``rel`` of max(1, its largest |value|)."""
        for g, w in zip(got, want, strict=True):
            bound = rel * max(1.0, max(abs(float(v)) for v in w))
            assert max(abs(a - float(b)) for a, b in zip(g, w)) <= bound, (
                got, want)

    @pytest.mark.parametrize("n", TILE_EDGES)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_a_pass_at_the_tile_edges(self, n, m):
        ds = random_dataset(np.random.default_rng(n + m), n=n, k=4)
        merged, star, derived, passed = self.both_routes(
            ds, predictor_names(4)[1:m + 1])
        assert derived.shape == passed.shape
        self.assert_close(self.fits(derived, merged, star),
                          self.fits(passed, merged, star), 1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_short_r_raises_too_few_rows_at_the_same_n(self, m):
        # At n <= k + 2 rows R is short; any weights obey the law.
        rng = np.random.default_rng(61 + m)
        controls = predictor_names(4)[1:m + 1]
        for n in range(2, m + 5):
            ds = Dataset(dict(zip(["X1", *controls, "Y"],
                                  rng.normal(size=(m + 2, n)))))
            merged, star, derived, passed = self.both_routes(
                ds, controls, rng.uniform(-2.0, 2.0, size=m))
            assert derived.shape == passed.shape == (min(n, m + 3), m + 3)
            got = self.fits(derived, merged, star)
            want = self.fits(passed, merged, star)
            short = [w is TooFewRows for w in want]
            assert [g is TooFewRows for g in got] == short
            assert short[0] == (n < m + 2)
            self.assert_close(
                [g for g, s in zip(got, short) if not s],
                [w for w, s in zip(want, short) if not s], 1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_both_routes_match_the_oracle_on_integer_data(self, m):
        rng = np.random.default_rng(67 + m)
        controls = predictor_names(m + 1)[1:]
        for n in (m + 4, 12, 40):
            ds, raw = random_integer_dataset(rng, n=n, k=m + 1)
            merged, star, derived, passed = self.both_routes(ds, controls)
            x1_star = [Fraction(v) for v in merged.column(star[0])]
            want = [oracle.fit_coefficients(
                raw["Y"], [x1_star, *(raw[c] for c in controls)])]
            for control in controls:
                slope = oracle.fit_coefficients(raw[control], [
                    x1_star, *(raw[c] for c in controls if c != control)])[1]
                want.append((slope * Fraction(np.std(merged.column(star[0])))
                             / Fraction(np.std(raw[control])),))
            for r in (derived, passed):
                self.assert_close(self.fits(r, merged, star), want, 1e-10)
