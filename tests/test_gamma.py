"""The combined-predictor slope as a function of gamma."""

from fractions import Fraction

import numpy as np
import pytest

import oracle
from helpers import (
    crossing_points,
    gamma_scan_values,
    overshooting_sweep_dataset,
    random_dataset,
    sign_change_count,
    spy_moment_calls,
)
import partialreg.gamma
import partialreg.ols
import partialreg.transform
from partialreg import (
    Dataset,
    DegenerateDirection,
    GammaSweep,
    GridTooLarge,
    LengthMismatch,
    NumericalOvershoot,
    PartialRegError,
    SingularDesign,
    ZeroLeadSlope,
    column_stats,
    combined_slope,
    fit,
    fit_simple,
    gamma_roots,
    gamma_surface,
    gamma_sweep,
    grid_points,
    residualize,
    residualize_with,
    slope_on_gamma,
    verify_residualized_slope,
)
from partialreg.ols import _factor, _solve

D1_B1 = float(Fraction(15, 11))
D1_ROOTS = (float(Fraction(-4, 15)), float(Fraction(31, 35)))

# a1*(gamma2, gamma3) on the 3x3 grid {0, 0.5, 1}^2, gamma3 fastest.
D1_SURFACE_3X3 = (
    Fraction(59, 35), Fraction(146, 59), Fraction(7, 6),
    Fraction(42, 17), Fraction(9), Fraction(-2),
    Fraction(1, 2), Fraction(-74, 19), Fraction(-41, 19),
)


def zero_lead_slope_dataset() -> Dataset:
    # y depends on x2 alone, so the multiple slope on x1 is rounding-level
    # zero and -b2/b1 does not exist.
    x1 = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    x2 = [1.0, 3.0, 2.0, 5.0, 4.0, 6.0]
    return Dataset({"X1": x1, "X2": x2, "Y": [2.0 * v for v in x2]})


def near_collinear_dataset() -> Dataset:
    rng = np.random.default_rng(40)
    x1 = np.arange(1.0, 9.0)
    noise = rng.normal(size=8)
    return Dataset({
        "X1": x1,
        "X2": x1 + 1e-7 * noise,
        "Y": 2.0 * x1 + rng.normal(size=8),
    })


def near_collinear_root_dataset() -> Dataset:
    # X3 = X2 + 1e-7 * noise: the root (c12, c13) is near (-9e5, 9e5),
    # where the variance scale var(x1) + g2**2 var(x2) + g3**2 var(x3) is
    # about 1e12 times the variance of x1*.
    x1, x2, noise, y = np.random.default_rng(0).normal(size=(4, 20))
    return Dataset({"X1": x1, "X2": x2, "X3": x2 + 1e-7 * noise,
                    "Y": y + x1})


def near_collinear_controls_dataset(rng: np.random.Generator,
                                    n: int) -> Dataset:
    # X3 = X2 + 1e-7 * e, with e orthogonal to the intercept, X1, X2 and
    # Y: the fits stay well posed and the root (c12, c13) stays modest,
    # but X1 - g*X2 + g*X3 is constant relative to its scale for large g.
    x1 = rng.normal(size=n)
    x2 = 0.5 * x1 + rng.normal(size=n)
    y = x1 - x2 + rng.normal(size=n)
    basis = np.column_stack([np.ones(n), x1, x2, y])
    e = rng.normal(size=n)
    e -= basis @ np.linalg.lstsq(basis, e, rcond=None)[0]
    return Dataset({"X1": x1, "X2": x2, "X3": x2 + 1e-7 * e / e.std(),
                    "Y": y})


class TestGridPoints:
    def test_inclusive_endpoints(self):
        grid = grid_points(-2.0, 2.0, 0.01)
        assert grid.size == 401
        assert grid[0] == -2.0
        assert abs(grid[-1] - 2.0) <= 1e-12

    def test_single_point_range(self):
        grid = grid_points(0.5, 0.5, 1.0)
        assert grid.tolist() == [0.5]

    def test_step_survives_binary_rounding(self):
        grid = grid_points(0.0, 1.0, 0.1)
        assert grid.size == 11
        assert abs(grid[-1] - 1.0) <= 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            grid_points(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            grid_points(0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            grid_points(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            grid_points(0.0, float("inf"), 0.1)

    def test_size_gate_counts_before_allocating(self, monkeypatch):
        monkeypatch.setattr(partialreg.gamma, "MAX_GRID_POINTS", 11)
        assert grid_points(0.0, 1.0, 0.1).size == 11
        with pytest.raises(GridTooLarge):
            grid_points(0.0, 1.0, 0.05)

    def test_range_too_wide_for_a_float_count(self):
        # (hi - lo) / step overflows to inf; no array is ever built.
        with pytest.raises(GridTooLarge) as exc:
            grid_points(-1e308, 1e308, 1.0)
        assert isinstance(exc.value, PartialRegError)
        assert isinstance(exc.value, ValueError)


class TestSlopeOnGamma:
    def test_worked_value_at_half(self, d1):
        got = slope_on_gamma(d1, "Y", "X1", "X2", 0.5)
        assert got == pytest.approx(float(Fraction(42, 17)), rel=1e-13)

    def test_gamma_zero_is_bitwise_simple_slope(self, d1):
        assert slope_on_gamma(d1, "Y", "X1", "X2", 0.0) == \
            fit_simple(d1, "Y", "X1").slopes[0]

    def test_equals_multiple_slope_at_both_roots(self, d1):
        b1 = fit(d1, "Y", ["X1", "X2"]).slopes[0]
        for root in gamma_roots(d1, "Y", "X1", "X2"):
            got = slope_on_gamma(d1, "Y", "X1", "X2", root)
            assert abs(got - b1) <= 1e-8 * max(1.0, abs(b1))

    def test_matches_oracle_across_gammas(self, d1):
        cols = {n: [Fraction(v) for v in d1.column(n)] for n in d1.names}
        for gamma in (Fraction(-2), Fraction(-1, 3), Fraction(1, 4),
                      Fraction(1), Fraction(7, 2)):
            want = oracle.slope_on_gamma(
                cols["Y"], cols["X1"], cols["X2"], gamma)
            got = slope_on_gamma(d1, "Y", "X1", "X2", float(gamma))
            assert got == pytest.approx(float(want), rel=1e-12)

    def test_agrees_with_explicit_combined_column(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            ds = random_dataset(rng, n=30, k=2)
            gamma = float(rng.uniform(-3.0, 3.0))
            direct = slope_on_gamma(ds, "Y", "X1", "X2", gamma)
            combined = residualize_with(ds, "X1", ["X2"], [gamma])
            refit = fit_simple(combined.merged_into(ds), "Y", combined.name)
            assert abs(direct - refit.slopes[0]) <= \
                1e-10 * max(1.0, abs(direct))

    def test_constant_combination_raises(self):
        ds = near_collinear_dataset()
        with pytest.raises(DegenerateDirection):
            slope_on_gamma(ds, "Y", "X1", "X2", 1.0)
        # Away from the collapse the function is perfectly usable.
        slope_on_gamma(ds, "Y", "X1", "X2", 0.0)

    def test_far_gammas_approach_zero(self, d1):
        # The horizontal axis is an asymptote on both sides.
        at_zero = slope_on_gamma(d1, "Y", "X1", "X2", 0.0)
        assert abs(at_zero) > 0.05
        ratio = (column_stats(d1, "X1").sd / column_stats(d1, "X2").sd)
        for sign in (-1.0, 1.0):
            far = slope_on_gamma(d1, "Y", "X1", "X2", sign * 1e6 * ratio)
            assert abs(far) <= 1e-4 * abs(at_zero)


class TestOverflowingGammas:
    """Beyond about |gamma| = 1e154 the squared gamma overflows; every
    evaluator then raises SingularDesign instead of calling the predictor
    constant (and the suite's filterwarnings = error rules out a numpy
    warning on the way)."""

    @pytest.fixture()
    def unit_data(self):
        return random_dataset(np.random.default_rng(3), 30, 3)

    @pytest.mark.parametrize("evaluate", [
        lambda ds, g: slope_on_gamma(ds, "Y", "X1", "X2", g),
        lambda ds, g: gamma_sweep(ds, "Y", "X1", "X2", [-g, 0.0, g]),
        lambda ds, g: gamma_surface(ds, "Y", "X1", ["X2", "X3"], [0.0],
                                    [-g, g]),
        lambda ds, g: combined_slope(ds, "Y", "X1", ["X2"], [g]),
    ], ids=["scalar", "sweep", "surface", "combined"])
    def test_overflow_is_singular_design(self, unit_data, evaluate):
        with pytest.raises(SingularDesign, match="overflows the double"):
            evaluate(unit_data, 1e200)

    def test_constant_control_at_an_overflowing_gamma(self, unit_data):
        # X1 - 2**996 * X2 is exactly -2**996, so its moments are finite;
        # gamma**2 * var(X2) is inf * 0, no number to set a floor by.
        ds = unit_data.replace_columns({"X2": np.ones(unit_data.n)})
        with pytest.raises(SingularDesign, match="overflows the double"):
            combined_slope(ds, "Y", "X1", ["X2"], [2.0 ** 996])

    def test_large_finite_gammas_still_evaluate(self, unit_data):
        sweep = gamma_sweep(unit_data, "Y", "X1", "X2", [-1e150, 1e150])
        assert sweep.undefined_points == ()
        assert all(abs(v) < 1e-140 for v in sweep.values)
        assert slope_on_gamma(unit_data, "Y", "X1", "X2", 1e150) == \
            sweep.values[1]


class TestCombinedSlope:
    def test_one_control_matches_scalar_path(self, d1):
        for gamma in (-1.5, 0.0, 0.3, 2.0):
            a = slope_on_gamma(d1, "Y", "X1", "X2", gamma)
            b = combined_slope(d1, "Y", "X1", ["X2"], [gamma])
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_two_controls_at_fitted_gammas_equals_b1(self, d1_extended):
        aux = fit(d1_extended, "X1", ["X2", "X3"])
        got = combined_slope(d1_extended, "Y", "X1", ["X2", "X3"],
                             aux.slopes)
        b1 = fit(d1_extended, "Y", ["X1", "X2", "X3"]).slopes[0]
        assert got == pytest.approx(b1, rel=1e-10)

    def test_length_mismatch(self, d1_extended):
        with pytest.raises(LengthMismatch):
            combined_slope(d1_extended, "Y", "X1", ["X2", "X3"], [0.5])

    def test_exactly_cancelled_column_raises(self):
        x2 = np.array([1.0, 2.0, 0.0, 3.0, 1.0])
        x3 = np.array([2.0, 0.0, 1.0, 1.0, 3.0])
        ds = Dataset({
            "X1": x2 + x3,
            "X2": x2,
            "X3": x3,
            "Y": [1.0, 2.0, 3.0, 4.0, 5.0],
        })
        with pytest.raises(DegenerateDirection):
            combined_slope(ds, "Y", "X1", ["X2", "X3"], [1.0, 1.0])

    def test_scale_and_slope_moment_calls(self, monkeypatch, d1_extended):
        calls = spy_moment_calls(monkeypatch)
        combined_slope(d1_extended, "Y", "X1", ["X2", "X3"], [0.5, -0.25])
        assert calls == [["X1", "X2", "X3"], ["X1*", "Y"]]

    def test_surface_grid_and_root_check_moment_calls(self, monkeypatch,
                                                      d1_extended):
        calls = spy_moment_calls(monkeypatch)
        gamma_surface(d1_extended, "Y", "X1", ["X2", "X3"], [0.0, 1.0],
                      [-1.0, 0.5])
        assert calls == [["Y", "X1", "X2", "X3"], ["X1*", "Y"]]


class TestGammaRoots:
    def test_worked_closed_forms(self, d1):
        roots = gamma_roots(d1, "Y", "X1", "X2")
        assert len(roots) == 2
        assert roots[0] == pytest.approx(D1_ROOTS[0], rel=1e-12)
        assert roots[1] == pytest.approx(D1_ROOTS[1], rel=1e-12)
        assert roots == tuple(sorted(roots))

    def test_roots_are_c12_and_minus_b2_over_b1(self, d1):
        full = fit(d1, "Y", ["X1", "X2"])
        c12 = fit_simple(d1, "X1", "X2").slopes[0]
        want = sorted((c12, -full.slopes[1] / full.slopes[0]))
        got = gamma_roots(d1, "Y", "X1", "X2")
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        assert got[1] == pytest.approx(want[1], rel=1e-12)

    def test_double_root_collapses_to_one(self):
        # y = x1 - x2 exactly makes -b2/b1 coincide with c12 = 1.
        x2 = [1.0, -1.0, 1.0, -1.0]
        y = [1.0, 2.0, 4.0, 3.0]
        x1 = [a + b for a, b in zip(y, x2)]
        ds = Dataset({"X1": x1, "X2": x2, "Y": y})
        roots = gamma_roots(ds, "Y", "X1", "X2")
        assert roots == (pytest.approx(1.0, abs=1e-12),)

    def test_zero_lead_slope_raises(self):
        with pytest.raises(ZeroLeadSlope):
            gamma_roots(zero_lead_slope_dataset(), "Y", "X1", "X2")

    def test_random_data_roots_reproduce_b1(self):
        rng = np.random.default_rng(300)
        checked = 0
        while checked < 40:
            ds = random_dataset(rng, n=int(rng.integers(5, 40)), k=2)
            full = fit(ds, "Y", ["X1", "X2"])
            if abs(full.slopes[0]) <= 1e-6:
                continue
            checked += 1
            for root in gamma_roots(ds, "Y", "X1", "X2"):
                got = slope_on_gamma(ds, "Y", "X1", "X2", root)
                assert abs(got - full.slopes[0]) <= \
                    1e-8 * max(1.0, abs(full.slopes[0]))


class TestGammaSweep:
    def test_grid_values_bit_identical_to_scalar_path(self, d1):
        sweep = gamma_sweep(d1, "Y", "X1", "X2", grid_points(-2.0, 2.0, 0.01))
        assert len(sweep.values) == 401
        assert sweep.undefined_points == ()
        for (gamma,), value in zip(sweep.points, sweep.values):
            assert value == slope_on_gamma(d1, "Y", "X1", "X2", gamma)

    def test_reference_slope_and_roots(self, d1):
        sweep = gamma_sweep(d1, "Y", "X1", "X2", [0.0, 0.5])
        assert sweep.reference_slope == pytest.approx(D1_B1, rel=1e-12)
        assert sweep.axis_names == ("gamma",)
        flat_roots = tuple(r for (r,) in sweep.roots)
        want = gamma_roots(d1, "Y", "X1", "X2")
        assert flat_roots == want

    def test_matches_independent_vectorized_scan(self, d1):
        grid = grid_points(-5.0, 5.0, 0.05)
        sweep = gamma_sweep(d1, "Y", "X1", "X2", grid)
        independent = gamma_scan_values(d1, "Y", "X1", "X2", grid)
        got = np.array(sweep.values)
        assert np.allclose(got, independent, rtol=1e-10, atol=1e-12)

    def test_dense_scan_has_no_stray_crossings(self, d1):
        # Everywhere a1*(gamma) - b1 changes sign must be within one grid
        # step of a closed-form root.
        grid = grid_points(-10.0, 10.0, 1e-4)
        values = gamma_scan_values(d1, "Y", "X1", "X2", grid)
        crossings = crossing_points(grid, values, D1_B1)
        assert crossings.size > 0
        roots = np.array(gamma_roots(d1, "Y", "X1", "X2"))
        for crossing in crossings:
            assert np.min(np.abs(roots - crossing)) <= 2e-4

    def test_exactly_two_extrema(self, d1):
        grid = grid_points(-50.0, 50.0, 0.01)
        sweep = gamma_sweep(d1, "Y", "X1", "X2", grid)
        values = np.array(sweep.values)
        floor = 1e-14 * np.abs(values).max()
        assert sign_change_count(values, zero_floor=floor) == 2

    def test_zero_lead_slope_keeps_remaining_root(self):
        ds = zero_lead_slope_dataset()
        sweep = gamma_sweep(ds, "Y", "X1", "X2", [0.0, 1.0])
        c12 = fit_simple(ds, "X1", "X2").slopes[0]
        assert sweep.roots == ((pytest.approx(c12, rel=1e-12),),)
        assert abs(sweep.reference_slope) <= 1e-10

    def test_ill_conditioned_root_is_a_numerical_overshoot(self):
        with pytest.raises(NumericalOvershoot, match="slope at root"):
            gamma_sweep(overshooting_sweep_dataset(), "Y", "X1", "X2", [0.0])

    def test_rejects_bad_grid(self, d1):
        with pytest.raises(ValueError):
            gamma_sweep(d1, "Y", "X1", "X2", [])
        with pytest.raises(ValueError):
            gamma_sweep(d1, "Y", "X1", "X2", [0.0, float("nan")])


class TestGammaSweepValidation:
    def test_partition_must_cover_grid(self):
        with pytest.raises(LengthMismatch):
            GammaSweep(
                axis_names=("gamma",),
                grids=((0.0, 1.0),),
                points=((0.0,),),
                values=(1.0,),
                reference_slope=1.0,
                roots=(),
                undefined_points=(),
            )

    def test_points_and_values_parallel(self):
        with pytest.raises(LengthMismatch):
            GammaSweep(
                axis_names=("gamma",),
                grids=((0.0, 1.0),),
                points=((0.0,), (1.0,)),
                values=(1.0,),
                reference_slope=1.0,
                roots=(),
                undefined_points=(),
            )

    def test_point_width_must_match_axes(self):
        with pytest.raises(LengthMismatch):
            GammaSweep(
                axis_names=("gamma",),
                grids=((0.0,),),
                points=((0.0, 1.0),),
                values=(1.0,),
                reference_slope=1.0,
                roots=(),
                undefined_points=(),
            )

    def test_axis_names_match_grids(self):
        with pytest.raises(LengthMismatch):
            GammaSweep(
                axis_names=("gamma", "gamma3"),
                grids=((0.0,),),
                points=((0.0,),),
                values=(1.0,),
                reference_slope=1.0,
                roots=(),
                undefined_points=(),
            )

    def test_partition_with_undefined_points_accepted(self):
        sweep = GammaSweep(
            axis_names=("gamma",),
            grids=((0.0, 1.0),),
            points=((0.0,),),
            values=(2.5,),
            reference_slope=1.0,
            roots=(),
            undefined_points=((1.0,),),
        )
        assert sweep.undefined_points == ((1.0,),)


class TestGammaSurface:
    def test_three_by_three_worked_grid(self, d1_extended):
        grid = [0.0, 0.5, 1.0]
        surface = gamma_surface(d1_extended, "Y", "X1", ["X2", "X3"],
                                grid, grid)
        assert surface.axis_names == ("gamma", "gamma3")
        assert surface.undefined_points == ()
        assert len(surface.values) == 9
        for got, want in zip(surface.values, D1_SURFACE_3X3):
            assert got == pytest.approx(float(want), rel=1e-12)

    def test_points_are_row_major_gamma3_fastest(self, d1_extended):
        surface = gamma_surface(d1_extended, "Y", "X1", ["X2", "X3"],
                                [0.0, 1.0], [0.0, 0.5])
        assert surface.points == (
            (0.0, 0.0), (0.0, 0.5), (1.0, 0.0), (1.0, 0.5))

    def test_root_is_the_fitted_control_pair(self, d1_extended):
        surface = gamma_surface(d1_extended, "Y", "X1", ["X2", "X3"],
                                [0.0], [0.0])
        names = ["X1", "X2", "X3", "Y"]
        aux = _solve(_factor(d1_extended, names), names, 0, (1, 2))
        assert surface.roots == ((aux.slopes[0], aux.slopes[1]),)
        assert surface.roots[0][0] == pytest.approx(74 / 117, rel=1e-10)
        assert surface.roots[0][1] == pytest.approx(61 / 117, rel=1e-10)

    def test_reference_slope_is_three_predictor_b1(self, d1_extended):
        surface = gamma_surface(d1_extended, "Y", "X1", ["X2", "X3"],
                                [0.0], [0.0])
        b1 = fit(d1_extended, "Y", ["X1", "X2", "X3"]).slopes[0]
        assert surface.reference_slope == b1
        assert b1 == pytest.approx(11 / 4, rel=1e-10)

    def test_gamma3_zero_line_reduces_to_one_control_sweep(self, d1_extended):
        surface = gamma_surface(d1_extended, "Y", "X1", ["X2", "X3"],
                                [-1.0, 0.25, 2.0], [0.0])
        for (g2, _), value in zip(surface.points, surface.values):
            assert value == slope_on_gamma(d1_extended, "Y", "X1", "X2", g2)

    def test_gamma3_zero_line_matches_where_blas_threads(self):
        # At 200_003 rows BLAS splits each moment's dot product across
        # threads; surface, sweep and scalar must still agree bit for bit.
        ds = random_dataset(np.random.default_rng(7), n=200_003, k=3)
        gammas = [-1.0, 0.25, 2.0]
        surface = gamma_surface(ds, "Y", "X1", ["X2", "X3"], gammas, [0.0])
        sweep = gamma_sweep(ds, "Y", "X1", "X2", gammas)
        assert len(surface.values) == len(sweep.values) == len(gammas)
        for (g2, _), value, swept in zip(surface.points, surface.values,
                                         sweep.values):
            assert value == swept == slope_on_gamma(ds, "Y", "X1", "X2", g2)

    def test_reads_the_rows_once(self, monkeypatch, d1_extended):
        passes = []
        factor = partialreg.ols._factor

        def counting_factor(ds, names):
            passes.append(list(names))
            return factor(ds, names)

        monkeypatch.setattr(partialreg.ols, "_factor", counting_factor)
        monkeypatch.setattr(partialreg.transform, "_factor", counting_factor)
        gamma_surface(d1_extended, "Y", "X1", ["X2", "X3"], [0.0], [0.0])
        assert passes == [["X1", "X2", "X3", "Y"]]

    def test_root_check_is_the_residualized_slope_claim(self, d1_extended):
        # One construction of x1*: at the surface root, combined_slope, the
        # residualized-slope claim and fit_simple on the merged column read
        # the same column and the same moments.
        rng = np.random.default_rng(43)
        controls = ["X2", "X3"]
        for ds in [d1_extended, *(random_dataset(rng, n=int(rng.integers(
                8, 300)), k=3) for _ in range(20))]:
            (root,) = gamma_surface(ds, "Y", "X1", controls, [0.0],
                                    [0.0]).roots
            residual = residualize_with(ds, "X1", controls, root)
            slopes = {
                combined_slope(ds, "Y", "X1", controls, root),
                verify_residualized_slope(ds, "Y", "X1", controls).rhs[0],
                fit_simple(residual.merged_into(ds), "Y",
                           residual.name).slopes[0]}
            assert len(slopes) == 1, slopes

    def test_data_already_holding_x1_star(self, d1_extended):
        rng = np.random.default_rng(47)
        controls = ["X2", "X3"]
        grid = [-1.0, 0.0, 0.75]
        for ds in [d1_extended, *(random_dataset(rng, n=30, k=3)
                                  for _ in range(4))]:
            held = residualize(ds, "X1", controls).merged_into(ds)
            assert gamma_surface(held, "Y", "X1", controls, grid, grid) \
                == gamma_surface(ds, "Y", "X1", controls, grid, grid)
            for gammas in ([0.5, -0.25], [0.0, 1.5]):
                assert combined_slope(held, "Y", "X1", controls, gammas) \
                    == combined_slope(ds, "Y", "X1", controls, gammas)

    def test_closed_form_matches_data_route(self):
        # Offsets and unit changes must cost the moment closed form no
        # accuracy.  The offset column is widened first because `fit`
        # gates on the raw design, which a 1e6 offset on a unit-spread
        # column pushes past CONDITION_LIMIT.
        rng = np.random.default_rng(1205)
        grid = grid_points(-2.0, 2.0, 0.5)
        cases = []
        for _ in range(8):
            ds = random_dataset(rng, n=int(rng.integers(8, 60)), k=3)
            cols = {name: ds.column(name) for name in ds.names}
            cases.append((ds, grid))
            cases.append((Dataset({**cols, "X3": 100.0 * cols["X3"] + 1e6,
                                   "Y": cols["Y"] + 1e6}), grid))
            cases.append((Dataset({**cols, **{
                name: 1e-4 * cols[name] for name in ("X1", "X2", "X3")}}),
                grid))
        far = [-1e7, 0.0, 1e7]
        cases.append((near_collinear_controls_dataset(rng, 30), far))
        undefined = 0
        for ds, axis in cases:
            surface = gamma_surface(ds, "Y", "X1", ["X2", "X3"], axis, axis)
            for point, value in zip(surface.points, surface.values):
                want = combined_slope(ds, "Y", "X1", ["X2", "X3"], point)
                assert abs(value - want) <= 1e-10 * abs(want)
            for point in surface.undefined_points:
                with pytest.raises(DegenerateDirection):
                    combined_slope(ds, "Y", "X1", ["X2", "X3"], point)
            undefined += len(surface.undefined_points)
        assert undefined == 2

    def test_root_check_has_no_floor_on_the_variance_scale(self):
        # The root check is the residualized-slope claim's arithmetic, so
        # the surface returns the root wherever that claim passes.
        ds = near_collinear_root_dataset()
        controls = ["X2", "X3"]
        surface = gamma_surface(ds, "Y", "X1", controls, [0.0], [0.0])
        assert surface.roots == (pytest.approx((-892260.82, 892260.86),
                                               rel=1e-6),)
        claim = verify_residualized_slope(ds, "Y", "X1", controls)
        assert claim.passed
        assert surface.reference_slope == claim.lhs[0]

    @pytest.mark.parametrize("scaled", [("X1", "X2"), ("X3",)])
    def test_root_check_survives_a_change_of_units(self, scaled):
        # The root check compares the combined slope at the aux-fit root
        # with b1, so both fits must keep their accuracy when units change.
        failed = []
        for seed in range(300):
            rng = np.random.default_rng(seed)
            ds = random_dataset(rng, n=int(rng.integers(8, 60)), k=3)
            ds = ds.replace_columns(
                {name: 1e-4 * ds.column(name) for name in scaled})
            try:
                gamma_surface(ds, "Y", "X1", ["X2", "X3"], [0.0], [0.0])
            except PartialRegError as exc:
                failed.append((seed, type(exc).__name__))
        assert failed == []

    def test_size_gate(self, d1_extended, monkeypatch):
        monkeypatch.setattr(partialreg.gamma, "MAX_GRID_POINTS", 4)
        gamma_surface(d1_extended, "Y", "X1", ["X2", "X3"],
                      [0.0, 1.0], [0.0, 1.0])
        gamma_sweep(d1_extended, "Y", "X1", "X2", [0.0, 0.5, 1.0, 1.5])
        with pytest.raises(GridTooLarge):
            gamma_surface(d1_extended, "Y", "X1", ["X2", "X3"],
                          [0.0, 1.0], [0.0, 0.5, 1.0])
        with pytest.raises(GridTooLarge):
            gamma_sweep(d1_extended, "Y", "X1", "X2",
                        np.linspace(-1.0, 1.0, 9))

    def test_surface_value_matches_oracle(self, d1_extended):
        cols = {n: [Fraction(v) for v in d1_extended.column(n)]
                for n in d1_extended.names}
        want = oracle.combined_slope(
            cols["Y"], cols["X1"], [cols["X2"], cols["X3"]],
            [Fraction(1, 2), Fraction(1, 2)])
        surface = gamma_surface(d1_extended, "Y", "X1", ["X2", "X3"],
                                [0.5], [0.5])
        assert surface.values[0] == pytest.approx(float(want), rel=1e-12)
        assert want == Fraction(9)

    def test_requires_exactly_two_controls(self, d1_extended):
        with pytest.raises(LengthMismatch):
            gamma_surface(d1_extended, "Y", "X1", ["X2"], [0.0], [0.0])
        with pytest.raises(LengthMismatch):
            gamma_surface(d1_extended, "Y", "X1", ["X2", "X3", "Y"],
                          [0.0], [0.0])

    def test_rejects_bad_grids(self, d1_extended):
        with pytest.raises(ValueError):
            gamma_surface(d1_extended, "Y", "X1", ["X2", "X3"], [], [0.0])
        with pytest.raises(ValueError):
            gamma_surface(d1_extended, "Y", "X1", ["X2", "X3"],
                          [0.0], [float("inf")])
