"""End-to-end behavior of the command line front end."""

import json
import re
import tracemalloc

import numpy as np
import pytest

import partialreg.cli
from helpers import (
    columns,
    near_collinear_controls_dataset,
    overshooting_sweep_dataset,
    random_dataset,
    rescaled_x1_dataset,
    spy_moment_calls,
    spy_moment_products,
    spy_passes,
)
from partialreg import (
    Dataset,
    ZeroLeadSlope,
    fit,
    fit_simple,
    format_number,
    gamma_roots,
    gamma_surface,
    gamma_sweep,
    grid_points,
    load_csv,
    residualize,
    round_to_printed,
    save_csv,
    slope_on_gamma,
    verify_residualized_slope,
)
from partialreg.cli import EXIT_FAILED_VERIFICATION, EXIT_OK, EXIT_USAGE, main
from partialreg.stats import _central_moments
from partialreg.transform import _family


@pytest.fixture()
def d1_csv(tmp_path, d1):
    path = tmp_path / "d1.csv"
    save_csv(d1, path)
    return str(path)


@pytest.fixture()
def d1_extended_csv(tmp_path, d1_extended):
    path = tmp_path / "d1x.csv"
    save_csv(d1_extended, path)
    return str(path)


@pytest.fixture()
def proportional_csv(tmp_path):
    path = tmp_path / "prop.csv"
    path.write_text("X1,X2,Y\n1,2,1\n2,4,3\n3,6,2\n4,8,5\n")
    return str(path)


SWEEP = ["sweep", "--response", "Y", "--x1", "X1", "--x2", "X2"]
SURFACE = ["surface", "--response", "Y", "--x1", "X1", "--x2", "X2",
           "--x3", "X3"]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestFitCommand:
    def test_json_envelope(self, capsys, d1_csv, d1):
        code, doc = run_json(capsys, [
            "fit", "--input", d1_csv, "--response", "Y",
            "--predictors", "X1,X2"])
        assert code == EXIT_OK
        assert set(doc) == {"command", "inputs", "results", "diagnostics"}
        assert doc["command"] == "fit"
        assert doc["inputs"]["response"] == "Y"
        assert doc["inputs"]["predictors"] == ["X1", "X2"]
        assert doc["diagnostics"] == {}
        results = doc["results"]
        fitted = fit(d1, "Y", ["X1", "X2"])
        assert results["intercept"] == round_to_printed(fitted.intercept)
        assert results["slopes"] == [round_to_printed(s)
                                     for s in fitted.slopes]
        assert results["rss"] == round_to_printed(fitted.rss)
        assert results["condition_estimate"] == round_to_printed(
            fitted.condition_estimate)

    def test_csv_format(self, capsys, d1_csv, d1):
        code = main(["fit", "--input", d1_csv, "--response", "Y",
                     "--predictors", "X1,X2", "--format", "csv"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "term,estimate"
        terms = [line.split(",")[0] for line in lines[1:]]
        assert terms == ["intercept", "X1", "X2", "condition_estimate", "rss"]
        fitted = fit(d1, "Y", ["X1", "X2"])
        slope_x1 = float(lines[2].split(",")[1])
        assert slope_x1 == round_to_printed(fitted.slopes[0])

    def test_output_file(self, capsys, tmp_path, d1_csv):
        out_path = tmp_path / "fit.json"
        code = main(["fit", "--input", d1_csv, "--response", "Y",
                     "--predictors", "X1,X2", "--output", str(out_path)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        doc = json.loads(out_path.read_text())
        assert doc["command"] == "fit"

    def test_unknown_column_is_a_usage_error(self, capsys, d1_csv):
        code = main(["fit", "--input", d1_csv, "--response", "Y",
                     "--predictors", "X1,NOPE"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        doc = json.loads(captured.out)
        assert doc["results"] is None
        assert doc["diagnostics"]["error"] == "UnknownColumn"
        assert "NOPE" in captured.err


class TestResidualizeCommand:
    def test_json_results(self, capsys, d1_csv, d1):
        code, doc = run_json(capsys, [
            "residualize", "--input", d1_csv, "--target", "X1",
            "--controls", "X2"])
        assert code == EXIT_OK
        results = doc["results"]
        residual = residualize(d1, "X1", ["X2"])
        assert results["name"] == "X1*"
        assert results["target"] == "X1"
        assert results["controls"] == ["X2"]
        assert results["control_coefficients"] == [
            round_to_printed(residual.control_coefficients[0])]
        assert results["values"] == [round_to_printed(v)
                                     for v in residual.values]

    def test_csv_appends_residual_column(self, capsys, tmp_path, d1_csv, d1):
        out_path = tmp_path / "res.csv"
        code = main(["residualize", "--input", d1_csv, "--target", "X1",
                     "--controls", "X2", "--format", "csv",
                     "--output", str(out_path)])
        assert code == EXIT_OK
        merged = load_csv(out_path)
        assert merged.names == ("X1", "X2", "Y", "X1*")
        residual = residualize(d1, "X1", ["X2"])
        got = merged.column("X1*").tolist()
        assert got == [round_to_printed(v) for v in residual.values]

    def test_builds_only_the_requested_format(self, capsys, monkeypatch,
                                              tmp_path, d1_csv, d1):
        calls = []

        def counting(value):
            calls.append(value)
            return round_to_printed(value)

        monkeypatch.setattr(partialreg.cli, "round_to_printed", counting)
        argv = ["residualize", "--input", d1_csv, "--target", "X1",
                "--controls", "X2"]
        assert main([*argv, "--format", "csv",
                     "--output", str(tmp_path / "res.csv")]) == EXIT_OK
        assert calls == []
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert len(calls) == d1.n + 1

    def test_runs_on_its_own_csv_output(self, capsys, tmp_path, d1_csv):
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        argv = ["--target", "X1", "--controls", "X2"]
        assert main(["residualize", "--input", d1_csv, *argv, "--format",
                     "csv", "--output", str(once)]) == EXIT_OK
        assert main(["residualize", "--input", str(once), *argv, "--format",
                     "csv", "--output", str(twice)]) == EXIT_OK
        assert twice.read_text().splitlines()[0].endswith("X1*,X1**")
        merged = load_csv(twice)
        assert np.array_equal(merged.column("X1**"), merged.column("X1*"))
        code, doc = run_json(capsys, ["residualize", "--input", str(once),
                                      *argv])
        assert code == EXIT_OK
        assert doc["results"]["name"] == "X1**"

    @pytest.fixture()
    def mixed_csv(self, tmp_path):
        # Cells on both sides of %g's switch to exponent notation (1e-4),
        # zeros and integers.
        rng = np.random.default_rng(23)
        n = 700
        x2 = rng.normal(scale=1e3, size=n)
        x3 = rng.integers(-5, 6, size=n).astype(float)
        x1 = 1e-3 * rng.normal(size=n) + 1e-7 * x2 - 1e-4 * x3
        y = x1 + x2 + rng.normal(scale=1e-9, size=n)
        x1[::50] = 0.0
        path = tmp_path / "mixed.csv"
        save_csv(Dataset({"X1": x1, "X2": x2, "X3": x3, "Y": y}), path)
        return path

    def test_json_values_are_the_csv_cells(self, capsys, tmp_path,
                                            mixed_csv):
        argv = ["residualize", "--input", str(mixed_csv), "--target", "X1",
                "--controls", "X2,X3"]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_OK
        out_path = tmp_path / "res.csv"
        assert main([*argv, "--format", "csv",
                     "--output", str(out_path)]) == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "X1,X2,X3,Y,X1*"
        cells = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert doc["results"]["values"] == cells

    def test_own_output_reproduces_the_input_bytes(self, tmp_path,
                                                   mixed_csv):
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        argv = ["--target", "X1", "--controls", "X2,X3", "--format", "csv"]
        assert main(["residualize", "--input", str(mixed_csv), *argv,
                     "--output", str(once)]) == EXIT_OK
        assert main(["residualize", "--input", str(once), *argv,
                     "--output", str(twice)]) == EXIT_OK
        source = mixed_csv.read_text().splitlines()
        first = once.read_text().splitlines()
        second = twice.read_text().splitlines()
        assert [line.rsplit(",", 1)[0] for line in first] == source
        assert [line.rsplit(",", 1)[0] for line in second] == first

    def test_target_among_controls_gets_an_envelope(self, capsys, d1_csv):
        code, doc = run_json(capsys, [
            "residualize", "--input", d1_csv, "--target", "X1",
            "--controls", "X2,X1"])
        assert code == EXIT_USAGE
        assert doc["results"] is None
        assert doc["diagnostics"]["error"] == "CollinearPredictors"


class TestSweepCommand:
    def test_csv_is_default_format(self, capsys, d1_csv, d1):
        code = main(["sweep", "--input", d1_csv, "--response", "Y",
                     "--x1", "X1", "--x2", "X2", "--gamma-min", "-2",
                     "--gamma-max", "2", "--gamma-step", "0.01"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "gamma,a1_star"
        assert len(lines) == 402
        gamma, value = (float(v) for v in lines[51].split(","))
        recomputed = slope_on_gamma(d1, "Y", "X1", "X2", gamma)
        assert value == round_to_printed(recomputed)

    def test_sidecar_metadata(self, tmp_path, d1_csv, d1):
        out_path = tmp_path / "sweep.csv"
        code = main(["sweep", "--input", d1_csv, "--response", "Y",
                     "--x1", "X1", "--x2", "X2", "--gamma-min", "-1",
                     "--gamma-max", "1", "--gamma-step", "0.5",
                     "--output", str(out_path)])
        assert code == EXIT_OK
        sidecar = json.loads(
            out_path.with_suffix(".meta.json").read_text())
        assert sidecar["command"] == "sweep"
        assert sidecar["diagnostics"] == {}
        results = sidecar["results"]
        b1 = fit(d1, "Y", ["X1", "X2"]).slopes[0]
        assert results["reference_b1"] == round_to_printed(b1)
        want_roots = [round_to_printed(r)
                      for r in gamma_roots(d1, "Y", "X1", "X2")]
        assert results["roots"] == want_roots
        assert results["undefined_points"] == []

    def test_no_sidecar_without_output_path(self, capsys, tmp_path, d1_csv):
        code = main(["sweep", "--input", d1_csv, "--response", "Y",
                     "--x1", "X1", "--x2", "X2", "--gamma-min", "0",
                     "--gamma-max", "1", "--gamma-step", "0.5"])
        assert code == EXIT_OK
        capsys.readouterr()
        assert list(tmp_path.glob("*.meta.json")) == []

    def test_json_format_carries_everything(self, capsys, d1_csv):
        code, doc = run_json(capsys, [
            "sweep", "--input", d1_csv, "--response", "Y", "--x1", "X1",
            "--x2", "X2", "--gamma-min", "0", "--gamma-max", "1",
            "--gamma-step", "0.25", "--format", "json"])
        assert code == EXIT_OK
        results = doc["results"]
        assert results["axis_names"] == ["gamma"]
        assert results["gammas"] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert len(results["values"]) == 5
        assert len(results["roots"]) == 2
        assert doc["inputs"]["gamma_step"] == 0.25

    def test_zero_lead_slope_still_sweeps(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text(
            "X1,X2,Y\n1,1,2\n2,3,6\n3,2,4\n4,5,10\n5,4,8\n6,6,12\n")
        code, doc = run_json(capsys, [
            "sweep", "--input", str(path), "--response", "Y", "--x1", "X1",
            "--x2", "X2", "--gamma-min", "0", "--gamma-max", "1",
            "--gamma-step", "0.5", "--format", "json"])
        assert code == EXIT_OK
        ds = load_csv(path)
        c12 = fit_simple(ds, "X1", "X2").slopes[0]
        assert doc["results"]["roots"] == [round_to_printed(c12)]

    def test_ill_conditioned_root_gets_the_envelope(self, capsys, tmp_path):
        path = tmp_path / "overshoot.csv"
        save_csv(overshooting_sweep_dataset(), path)
        code = main(["sweep", "--input", str(path), "--response", "Y",
                     "--x1", "X1", "--x2", "X2", "--gamma-min", "0",
                     "--gamma-max", "1", "--gamma-step", "0.5"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        doc = json.loads(captured.out)
        assert doc["results"] is None
        assert doc["diagnostics"]["error"] == "NumericalOvershoot"
        message = doc["diagnostics"]["message"]
        assert message.startswith("slope at root")
        assert captured.err == f"error: {message}\n"


class TestSurfaceCommand:
    def test_csv_rows(self, capsys, d1_extended_csv, d1_extended):
        code = main(["surface", "--input", d1_extended_csv,
                     "--response", "Y", "--x1", "X1", "--x2", "X2",
                     "--x3", "X3", "--gamma2-range", "0:1:0.5",
                     "--gamma3-range", "0:1:0.5"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "gamma,gamma3,a1_star"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert (float(first[0]), float(first[1])) == (0.0, 0.0)
        a1 = fit_simple(d1_extended, "Y", "X1").slopes[0]
        assert float(first[2]) == round_to_printed(a1)

    def test_sidecar_root_pair(self, tmp_path, d1_extended_csv, d1_extended):
        out_path = tmp_path / "surface.csv"
        code = main(["surface", "--input", d1_extended_csv,
                     "--response", "Y", "--x1", "X1", "--x2", "X2",
                     "--x3", "X3", "--gamma2-range", "0:1:1",
                     "--gamma3-range", "0:1:1", "--output", str(out_path)])
        assert code == EXIT_OK
        sidecar = json.loads(out_path.with_suffix(".meta.json").read_text())
        aux = fit(d1_extended, "X1", ["X2", "X3"])
        assert sidecar["results"]["roots"] == [
            [round_to_printed(aux.slopes[0]), round_to_printed(aux.slopes[1])]]
        b1 = fit(d1_extended, "Y", ["X1", "X2", "X3"]).slopes[0]
        assert sidecar["results"]["reference_b1"] == round_to_printed(b1)


class TestGridCsvBytes:
    """A grid CSV is the library's table as ``format_number`` prints each
    cell, joined by ``,``: on stdout, and in an ``--output`` file next to
    its sidecar."""

    CASES = {
        "one_point_sweep": ("d1", [*SWEEP, "--gamma-min=0.5",
                                   "--gamma-max=0.5", "--gamma-step=1"],
                            [[0.5]]),
        # The one point is undefined: a header-only table.
        "undefined_surface": ("near_collinear", [
            *SURFACE, "--gamma2-range=-1e7:-1e7:1",
            "--gamma3-range=1e7:1e7:1"], [[-1e7], [1e7]]),
        # a1* ~ 1/gamma: every value prints in exponent notation.
        "exponent_tail": ("d1", [*SWEEP, "--gamma-min=1e5",
                                 "--gamma-max=1e7", "--gamma-step=1e5"],
                          [grid_points(1e5, 1e7, 1e5)]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bytes_and_sidecar(self, capsys, tmp_path, d1_extended, case):
        source, argv, grids = self.CASES[case]
        path = tmp_path / "in.csv"
        save_csv(d1_extended if source == "d1" else
                 near_collinear_controls_dataset(
                     np.random.default_rng(1205), 30), path)
        ds = load_csv(path)
        sweep = (gamma_sweep(ds, "Y", "X1", "X2", *grids) if len(grids) == 1
                 else gamma_surface(ds, "Y", "X1", ["X2", "X3"], *grids))
        want = "\n".join([
            ",".join((*sweep.axis_names, "a1_star")),
            *(",".join(map(format_number, (*point, value)))
              for point, value in zip(sweep.points, sweep.values))]) + "\n"
        if case == "undefined_surface":
            assert want == "gamma,gamma3,a1_star\n"
            assert sweep.undefined_points == ((-1e7, 1e7),)
        if case == "exponent_tail":
            assert all("e-" in line.split(",")[1]
                       for line in want.splitlines()[1:])

        assert main([*argv, "--input", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == want
        out = tmp_path / "grid.csv"
        assert main([*argv, "--input", str(path),
                     "--output", str(out)]) == EXIT_OK
        assert out.read_text() == want

        def printed(point):
            rounded = [round_to_printed(g) for g in point]
            return rounded[0] if len(rounded) == 1 else rounded

        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert meta["results"] == {
            "reference_b1": round_to_printed(sweep.reference_slope),
            "roots": [printed(root) for root in sweep.roots],
            "undefined_points": [printed(p) for p in sweep.undefined_points],
        }


class TestGridMemory:
    """Peak traced memory of a CSV grid command, per grid point.  numpy
    reports its buffers to ``tracemalloc``, so the figure does not depend
    on the host.  The table printed in numpy blocks takes about 240 bytes
    a point, most of them ``GammaSweep``'s tuples; a Python list per row
    takes about 360."""

    BYTES_PER_POINT = 300

    def test_csv_sweep(self, tmp_path):
        path, out = tmp_path / "in.csv", tmp_path / "sweep.csv"
        save_csv(random_dataset(np.random.default_rng(11), n=1000, k=2), path)
        args = partialreg.cli.build_parser().parse_args([
            *SWEEP, "--input", str(path), "--output", str(out),
            "--gamma-min=-2.5", "--gamma-max=2.5", "--gamma-step=1e-4"])
        tracemalloc.start()
        try:
            code = partialreg.cli.run(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        points = 50_001
        assert out.read_text().count("\n") == points + 1
        assert peak < self.BYTES_PER_POINT * points


class TestVerifyCommand:
    def test_passing_dataset_exits_zero(self, capsys, d1_csv):
        code, doc = run_json(capsys, [
            "verify", "--input", d1_csv, "--response", "Y", "--x1", "X1",
            "--controls", "X2"])
        assert code == EXIT_OK
        assert doc["results"]["passed"] is True
        claims = [r["claim"] for r in doc["results"]["reports"]]
        assert claims == [
            "residualized_slope_one_control",
            "residual_uncorrelated_with_controls",
            "mapped_coefficients_match_refit",
            "two_predictor_slope_relations",
            "aggregation_recovers_subset_slopes",
        ]
        assert all(r["passed"] for r in doc["results"]["reports"])
        assert doc["diagnostics"] == {}

    def test_two_controls_claims(self, capsys, d1_extended_csv):
        code, doc = run_json(capsys, [
            "verify", "--input", d1_extended_csv, "--response", "Y",
            "--x1", "X1", "--controls", "X2,X3"])
        assert code == EXIT_OK
        claims = [r["claim"] for r in doc["results"]["reports"]]
        assert "controls_have_zero_slope_on_residual" in claims
        assert "two_predictor_slope_relations" not in claims

    @pytest.mark.parametrize("controls", ["X2", "X2,X3"])
    def test_passes_after_a_unit_change(self, capsys, tmp_path, controls):
        path = tmp_path / "rescaled.csv"
        save_csv(rescaled_x1_dataset(1e7), path)
        code, doc = run_json(capsys, [
            "verify", "--input", str(path), "--response", "Y", "--x1", "X1",
            "--controls", controls])
        assert code == EXIT_OK
        assert doc["results"]["passed"] is True

    def test_impossible_tolerance_fails_with_exit_one(self, capsys, d1_csv):
        code, doc = run_json(capsys, [
            "verify", "--input", d1_csv, "--response", "Y", "--x1", "X1",
            "--controls", "X2", "--tolerance", "1e-18"])
        assert code == EXIT_FAILED_VERIFICATION
        assert doc["results"]["passed"] is False
        failed = doc["diagnostics"]["failed_claims"]
        assert failed
        assert set(failed) <= {
            r["claim"] for r in doc["results"]["reports"]}

    def test_proportional_predictors_exit_two(self, capsys, proportional_csv):
        code = main(["verify", "--input", proportional_csv,
                     "--response", "Y", "--x1", "X1", "--controls", "X2"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        doc = json.loads(captured.out)
        assert doc["results"] is None
        assert doc["diagnostics"]["error"] == "CollinearPredictors"
        assert "proportional" in doc["diagnostics"]["message"]
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("value", ["3", "0.1"])
    @pytest.mark.parametrize("controls", ["X2", "X2,X3"])
    def test_constant_control_exits_two(self, capsys, tmp_path, d1_extended,
                                        controls, value):
        path = tmp_path / "constant.csv"
        save_csv(d1_extended.replace_columns(
            {"X2": np.full(d1_extended.n, float(value))}), path)
        code = main(["verify", "--input", str(path), "--response", "Y",
                     "--x1", "X1", "--controls", controls])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        doc = json.loads(captured.out)
        assert doc["results"] is None
        assert doc["diagnostics"]["error"] == "SingularDesign"
        assert "'X2' is constant" in doc["diagnostics"]["message"]
        assert captured.err.startswith("error:")

    def test_csv_format(self, capsys, d1_csv):
        code = main(["verify", "--input", d1_csv, "--response", "Y",
                     "--x1", "X1", "--controls", "X2", "--format", "csv"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "claim,lhs,rhs,abs_diff,tolerance,passed"
        assert len(lines) == 6
        assert all(line.endswith(",true") for line in lines[1:])


@pytest.mark.parametrize("command", ["verify", "report"])
def test_response_equal_to_x1_is_an_input_error(capsys, d1_csv, command):
    code, doc = run_json(capsys, [
        command, "--input", d1_csv, "--response", "X1", "--x1", "X1",
        "--controls", "X2"])
    assert code == EXIT_USAGE
    assert doc["results"] is None
    assert doc["diagnostics"]["error"] == "CollinearPredictors"


class TestReportCommand:
    def test_sections_and_exit_code(self, capsys, d1_csv):
        code = main(["report", "--input", d1_csv, "--response", "Y",
                     "--x1", "X1", "--controls", "X2"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "fit Y ~ X1 + X2" in text
        assert "simple fits" in text
        assert "residualized predictor X1* = X1 -" in text
        assert "verification" in text
        assert "overall: pass" in text

    def test_failing_tolerance_still_exits_zero(self, capsys, d1_csv):
        code = main(["report", "--input", d1_csv, "--response", "Y",
                     "--x1", "X1", "--controls", "X2",
                     "--tolerance", "1e-18"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "overall: FAIL" in text

    def test_output_file(self, capsys, tmp_path, d1_csv):
        out_path = tmp_path / "report.txt"
        code = main(["report", "--input", d1_csv, "--response", "Y",
                     "--x1", "X1", "--controls", "X2",
                     "--output", str(out_path)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        assert "overall: pass" in out_path.read_text()

    @pytest.mark.parametrize("controls", ["X2", "X2,X3"])
    def test_makes_the_passes_verify_makes(self, monkeypatch, capsys,
                                           d1_extended_csv, controls):
        passes = spy_passes(monkeypatch)
        argv = ["--input", d1_extended_csv, "--response", "Y", "--x1", "X1",
                "--controls", controls]
        assert main(["verify", *argv]) == EXIT_OK
        verify_designs = [names for names, _ in passes]
        passes.clear()
        assert main(["report", *argv]) == EXIT_OK
        capsys.readouterr()
        union = ["X1", *controls.split(","), "Y"]
        assert verify_designs == [union]
        assert [names for names, _ in passes] == verify_designs

    @pytest.mark.parametrize("controls", ["X2", "X2,X3"])
    def test_simple_fits_take_one_moment_call(
            self, monkeypatch, capsys, d1_extended_csv, controls):
        # The roots read the suite's x1* moments; only the simple fits,
        # whose intercepts need the raw means, take a call of their own.
        calls = spy_moment_calls(monkeypatch)
        argv = ["--input", d1_extended_csv, "--response", "Y", "--x1", "X1",
                "--controls", controls]
        assert main(["verify", *argv]) == EXIT_OK
        verify_calls, calls[:] = calls[:], []
        assert main(["report", *argv]) == EXIT_OK
        capsys.readouterr()
        names = controls.split(",")
        assert verify_calls == [["Y", "X1*", *names]]
        assert calls == [*verify_calls, ["Y", "X1", *names]]

    def test_roots_read_the_suites_family(self, monkeypatch, capsys,
                                          d1_extended_csv):
        # The roots take var(x1) from the suite's x1* moments, not from the
        # simple fits' raw ones, so they are gamma_roots by construction.
        seen, roots = [], partialreg.cli._roots

        def recording(*args):
            seen.append(args)
            return roots(*args)

        monkeypatch.setattr(partialreg.cli, "_roots", recording)
        assert main(["report", "--input", d1_extended_csv, "--response", "Y",
                     "--x1", "X1", "--controls", "X2"]) == EXIT_OK
        capsys.readouterr()
        full, _, weights, _, cross = _family(load_csv(d1_extended_csv), "Y",
                                             "X1", ["X2"])
        assert seen == [(full, weights, cross)]

    @pytest.mark.parametrize("argv, data", [
        (["--x1", "X1", "--controls", "P"], "columns"),
        (["--x1", "X1", "--controls", "C"], "columns"),
        (["--x1", "X1", "--controls", "X2,S"], "columns"),
        (["--x1", "X1", "--controls", "X2,X2"], "columns"),
        (["--x1", "X1", "--controls", "X1,X2"], "columns"),
        (["--x1", "Y", "--controls", "X2"], "columns"),
        (["--x1", "X1", "--controls", "Z"], "columns"),
        (["--x1", "X1", "--controls", "X2"], "overflowing"),
        (["--x1", "X1", "--controls", "X2,X3"], "overflowing"),
    ], ids=["proportional", "constant", "three_way_collinear",
            "duplicate_controls", "x1_among_controls", "response_is_x1",
            "unknown_column", "overflow_one_control",
            "overflow_two_controls"])
    def test_rejects_bad_input_with_verifys_envelope(self, capsys, tmp_path,
                                                     argv, data):
        path = tmp_path / "bad.csv"
        if data == "columns":  # P = 2*X1, C constant, S = X1 + X2
            path.write_text("X1,X2,P,C,S,Y\n1,1,2,3,2,2\n2,3,4,3,5,4\n"
                            "3,2,6,3,5,5\n4,5,8,3,9,7\n5,4,10,3,9,8\n")
        else:
            path.write_text(OVERFLOWING_CSV)
        envelopes = {}
        for command in ("verify", "report"):
            code = main([command, "--input", str(path), "--response", "Y",
                         *argv])
            captured = capsys.readouterr()
            assert code == EXIT_USAGE
            doc = json.loads(captured.out)
            assert doc.pop("command") == command
            envelopes[command] = (doc, captured.err)
        assert envelopes["report"] == envelopes["verify"]

    @pytest.mark.parametrize("controls", [["X2"], ["X2", "X3"]],
                             ids=["one_control", "two_controls"])
    def test_prints_the_public_results(self, capsys, tmp_path, d1,
                                       d1_extended, controls):
        rng = np.random.default_rng(17)
        datasets = [d1_extended] + [
            random_dataset(rng, n=int(rng.integers(8, 60)), k=3)
            for _ in range(10)]
        if controls == ["X2"]:
            datasets.append(d1)
        path = tmp_path / "data.csv"
        names = ["X1", *controls]
        for ds in datasets:
            save_csv(ds, path)
            ds = load_csv(path)
            assert main(["report", "--input", str(path), "--response", "Y",
                         "--x1", "X1", "--controls", ",".join(controls)]
                        ) == EXIT_OK
            lines = capsys.readouterr().out.splitlines()
            full = fit(ds, "Y", names)
            start = lines.index(f"fit Y ~ {' + '.join(names)}") + 1
            assert [line.split() for line in
                    lines[start:start + len(names) + 2]] == [
                ["intercept", format_number(full.intercept)],
                *([name, format_number(slope)]
                  for name, slope in zip(names, full.slopes)),
                ["condition", "estimate",
                 format_number(full.condition_estimate) + ",", "rss",
                 format_number(full.rss)]]
            residual = residualize(ds, "X1", controls)
            pieces = " - ".join(
                f"{format_number(c)}*{name}"
                for name, c in zip(controls, residual.control_coefficients))
            assert f"residualized predictor X1* = X1 - {pieces}" in lines
            if len(controls) == 1:
                roots = gamma_roots(ds, "Y", "X1", "X2")
                assert ("gammas where the combined-predictor slope equals "
                        "the multiple slope: "
                        + ", ".join(map(format_number, roots))) in lines

    def test_zero_lead_slope_gets_its_own_line(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"  # Y = 2*X2 + 1, so b1 is 0
        path.write_text("X1,X2,Y\n1,1,3\n2,3,7\n3,2,5\n4,5,11\n5,4,9\n")
        with pytest.raises(ZeroLeadSlope):
            gamma_roots(load_csv(path), "Y", "X1", "X2")
        assert main(["report", "--input", str(path), "--response", "Y",
                     "--x1", "X1", "--controls", "X2"]) == EXIT_OK
        assert ("multiple slope on x1 is ~0; only gamma = fitted c12 "
                "reproduces it") in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("controls", ["X2", "X2,X3"])
    def test_runs_on_residualize_csv_output(self, capsys, tmp_path,
                                            d1_extended_csv, controls):
        path = tmp_path / "residualized.csv"
        assert main(["residualize", "--input", d1_extended_csv,
                     "--target", "X1", "--controls", controls,
                     "--format", "csv", "--output", str(path)]) == EXIT_OK
        assert "X1*" in load_csv(path)
        argv = ["--input", str(path), "--response", "Y", "--x1", "X1",
                "--controls", controls]
        code, doc = run_json(capsys, ["verify", *argv])
        assert code == EXIT_OK
        assert doc["results"]["passed"] is True
        assert main(["report", *argv]) == EXIT_OK
        text = capsys.readouterr().out
        assert "residualized predictor X1** = X1 -" in text
        assert "overall: pass" in text


class TestPassBudget:
    """Tiled QR passes over the rows and moment calls per command."""

    @pytest.mark.parametrize("argv, passes, moment_calls", [
        (["fit", "--response", "Y", "--predictors", "X1,X2"], 1, 0),
        (["residualize", "--target", "X1", "--controls", "X2"], 1, 0),
        (["sweep", "--response", "Y", "--x1", "X1", "--x2", "X2",
          "--gamma-min", "-1", "--gamma-max", "1", "--gamma-step", "0.5"],
         1, 1),
        (["surface", "--response", "Y", "--x1", "X1", "--x2", "X2",
          "--x3", "X3", "--gamma2-range", "0:1:0.5",
          "--gamma3-range", "0:1:0.5"], 1, 1),
        (["verify", "--response", "Y", "--x1", "X1", "--controls", "X2"],
         1, 1),
        (["verify", "--response", "Y", "--x1", "X1", "--controls", "X2,X3"],
         1, 1),
        (["report", "--response", "Y", "--x1", "X1", "--controls", "X2"],
         1, 2),
        (["report", "--response", "Y", "--x1", "X1", "--controls", "X2,X3"],
         1, 2),
    ], ids=["fit", "residualize", "sweep", "surface", "verify_one_control",
            "verify_two_controls", "report_one_control",
            "report_two_controls"])
    def test_counts(self, monkeypatch, capsys, d1_extended_csv, argv,
                    passes, moment_calls):
        factored = spy_passes(monkeypatch)
        moments = spy_moment_calls(monkeypatch)
        assert main([*argv, "--input", d1_extended_csv]) == EXIT_OK
        capsys.readouterr()
        assert (len(factored), len(moments)) == (passes, moment_calls)


class TestMomentProducts:
    """Products per moment call: every variance, and only the covariances
    the caller reads.  The two-control suite reads no cov(y, x_j), and
    verify_residualized_slope reads cov(x1*, y) alone."""

    @pytest.mark.parametrize("argv, products", [
        (["sweep", "--response", "Y", "--x1", "X1", "--x2", "X2",
          "--gamma-min", "-1", "--gamma-max", "1", "--gamma-step", "0.5"],
         [6]),
        (["surface", "--response", "Y", "--x1", "X1", "--x2", "X2",
          "--x3", "X3", "--gamma2-range", "0:1:0.5",
          "--gamma3-range", "0:1:0.5"], [10]),
        (["verify", "--response", "Y", "--x1", "X1", "--controls", "X2"],
         [6]),
        (["verify", "--response", "Y", "--x1", "X1", "--controls", "X2,X3"],
         [8]),
        (["report", "--response", "Y", "--x1", "X1", "--controls", "X2"],
         [6, 6]),
        (["report", "--response", "Y", "--x1", "X1", "--controls", "X2,X3"],
         [8, 10]),
    ], ids=["sweep", "surface", "verify_one_control", "verify_two_controls",
            "report_one_control", "report_two_controls"])
    def test_commands(self, monkeypatch, capsys, d1_extended_csv, argv,
                      products):
        computed = spy_moment_products(monkeypatch)
        assert main([*argv, "--input", d1_extended_csv]) == EXIT_OK
        capsys.readouterr()
        assert computed == products

    @pytest.mark.parametrize("controls, products",
                             [(["X2"], [4]), (["X2", "X3"], [5])],
                             ids=["one_control", "two_controls"])
    def test_verify_residualized_slope(self, monkeypatch, d1_extended,
                                       controls, products):
        computed = spy_moment_products(monkeypatch)
        verify_residualized_slope(d1_extended, "Y", "X1", controls)
        assert computed == products

    def test_a_product_not_asked_for_is_none(self, d1_extended):
        names = ["Y", "X1", "X2", "X3"]
        full = _central_moments(columns(d1_extended, names), names)
        means, cross = _central_moments(columns(d1_extended, names), names,
                                        [(0, 1)])
        assert means == full[0]
        for i in range(4):
            for j in range(4):
                asked = i == j or {i, j} == {0, 1}
                assert cross[i][j] == (full[1][i][j] if asked else None)
        with pytest.raises(TypeError):
            cross[0][2] / cross[2][2]


class TestErrorHandling:
    def test_missing_input_file(self, capsys, tmp_path):
        code = main(["fit", "--input", str(tmp_path / "absent.csv"),
                     "--response", "Y", "--predictors", "X1"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        doc = json.loads(captured.out)
        assert doc["diagnostics"]["error"] == "IoError"

    def test_parse_error_reports_coordinates(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X1,Y\n1,2\n3,\n")
        code = main(["fit", "--input", str(path), "--response", "Y",
                     "--predictors", "X1"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        doc = json.loads(captured.out)
        assert doc["diagnostics"]["error"] == "MissingValue"
        assert doc["diagnostics"]["row"] == 3
        assert doc["diagnostics"]["column"] == 2

    def test_empty_header_line_gets_an_envelope(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"\n")
        code = main(["fit", "--input", str(path), "--response", "Y",
                     "--predictors", "X1"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        doc = json.loads(captured.out)
        assert doc["diagnostics"] == {"error": "ParseError",
                                      "message": "empty header", "row": 1}

    def test_byte_order_mark_header_fits(self, capsys, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfX1,Y\n1,2\n2,4\n3,5\n")
        code = main(["fit", "--input", str(path), "--response", "Y",
                     "--predictors", "X1"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["predictors"] == ["X1"]

    def test_non_utf8_input_gets_an_envelope(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"X1,Y\n1,2\n\xff,4\n3,5\n")
        code = main(["fit", "--input", str(path), "--response", "Y",
                     "--predictors", "X1"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        doc = json.loads(captured.out)
        assert doc["results"] is None
        assert doc["diagnostics"]["error"] == "ParseError"
        assert "not UTF-8" in doc["diagnostics"]["message"]

    def test_missing_subcommand_is_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("step", ["0", "nan", "inf"])
    def test_bad_gamma_step_is_usage(self, capsys, d1_csv, step):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--input", d1_csv, "--response", "Y",
                  "--x1", "X1", "--x2", "X2", "--gamma-min", "0",
                  "--gamma-max", "1", "--gamma-step", step])
        assert exc.value.code == EXIT_USAGE

    def test_oversized_grid_is_an_input_error(self, capsys, d1_csv):
        code = main(["sweep", "--input", d1_csv, "--response", "Y",
                     "--x1", "X1", "--x2", "X2", "--gamma-min=-1e308",
                     "--gamma-max=1e308", "--gamma-step=1"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        doc = json.loads(captured.out)
        assert doc["results"] is None
        assert doc["diagnostics"]["error"] == "GridTooLarge"

    def test_reversed_gamma_range_is_usage(self, capsys, d1_csv):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--input", d1_csv, "--response", "Y",
                  "--x1", "X1", "--x2", "X2", "--gamma-min", "2",
                  "--gamma-max", "1", "--gamma-step", "0.5"])
        assert exc.value.code == EXIT_USAGE

    def test_malformed_range_triple_is_usage(self, capsys, d1_extended_csv):
        with pytest.raises(SystemExit) as exc:
            main(["surface", "--input", d1_extended_csv, "--response", "Y",
                  "--x1", "X1", "--x2", "X2", "--x3", "X3",
                  "--gamma2-range", "0:1", "--gamma3-range", "0:1:0.5"])
        assert exc.value.code == EXIT_USAGE

    def test_non_numeric_range_triple_is_usage(self, capsys,
                                               d1_extended_csv):
        with pytest.raises(SystemExit) as exc:
            main(["surface", "--input", d1_extended_csv, "--response", "Y",
                  "--x1", "X1", "--x2", "X2", "--x3", "X3",
                  "--gamma2-range", "a:b:1", "--gamma3-range", "0:1:0.5"])
        assert exc.value.code == EXIT_USAGE
        assert ("argument --gamma2-range: non-numeric range 'a:b:1'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, output", [
        (["fit", "--response", "Y", "--predictors", "X1"], "."),
        (["sweep", "--response", "Y", "--x1", "X1", "--x2", "X2",
          "--gamma-min", "0", "--gamma-max", "1", "--gamma-step", "0.5"],
         "missing/s.csv"),
    ], ids=["directory", "missing_directory"])
    def test_unwritable_output_is_an_error_line(self, capsys, tmp_path,
                                                d1_csv, argv, output):
        code = main([*argv, "--input", d1_csv,
                     "--output", str(tmp_path / output)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert re.fullmatch(r"error: \[Errno \d+\] [^\n]+\n", captured.err)

    def test_empty_name_in_list_is_usage(self, capsys, d1_csv):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", d1_csv, "--response", "Y",
                  "--predictors", "X1,,X2"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("tolerance", ["0", "nan", "inf"])
    def test_nonpositive_tolerance_is_usage(self, capsys, d1_csv, tolerance):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--input", d1_csv, "--response", "Y",
                  "--x1", "X1", "--controls", "X2",
                  "--tolerance", tolerance])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["fit", "verify"])
    def test_oversized_field_gets_a_parse_error_envelope(self, capsys,
                                                         tmp_path, command):
        path = tmp_path / "wide.csv"
        path.write_text("X1,X2,Y\n1,2,3\n" + "1" * 131073 + ",1,2\n2,3,5\n")
        argv = {"fit": ["--response", "Y", "--predictors", "X1,X2"],
                "verify": ["--response", "Y", "--x1", "X1",
                           "--controls", "X2"]}[command]
        code = main([command, "--input", str(path), *argv])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        doc = json.loads(captured.out)
        assert doc["results"] is None
        assert doc["diagnostics"]["error"] == "ParseError"
        assert doc["diagnostics"]["row"] == 3
        assert "field larger" in captured.err


OVERFLOWING_CSV = ("X1,X2,X3,Y\n1e308,1e308,1,2\n1e308,-1e308,2,3\n"
                   "3,1,3,4\n4,6,2,1\n")


class TestOverflowingData:
    """Data near the top of the double range stop before LAPACK runs: one
    envelope and nothing else on file descriptor 1."""

    @pytest.mark.parametrize("argv", [
        ["fit", "--response", "Y", "--predictors", "X1,X2"],
        ["residualize", "--target", "X1", "--controls", "X2,X3"],
        ["sweep", "--response", "Y", "--x1", "X1", "--x2", "X2",
         "--format", "json", "--gamma-min", "0", "--gamma-max", "1",
         "--gamma-step", "0.5"],
        ["surface", "--response", "Y", "--x1", "X1", "--x2", "X2",
         "--x3", "X3", "--format", "json", "--gamma2-range", "0:1:0.5",
         "--gamma3-range", "0:1:0.5"],
        ["report", "--response", "Y", "--x1", "X1", "--controls", "X2,X3"],
    ], ids=lambda argv: argv[0])
    def test_singular_design_envelope_on_stdout(self, capfd, tmp_path,
                                                argv):
        path = tmp_path / "overflow.csv"
        path.write_text(OVERFLOWING_CSV)
        code = main([*argv, "--input", str(path)])
        out = capfd.readouterr().out
        assert code == EXIT_USAGE
        doc = json.loads(out)
        assert doc["command"] == argv[0]
        assert doc["diagnostics"]["error"] == "SingularDesign"
        assert "overflows the double range" in doc["diagnostics"]["message"]

    @pytest.mark.parametrize("controls", ["X2", "X2,X3"])
    def test_verify_stops_at_the_moments_without_warnings(
            self, capfd, tmp_path, controls):
        path = tmp_path / "overflow.csv"
        path.write_text(OVERFLOWING_CSV)
        code = main(["verify", "--response", "Y", "--x1", "X1",
                     "--controls", controls, "--input", str(path)])
        captured = capfd.readouterr()
        assert code == EXIT_USAGE
        doc = json.loads(captured.out)
        assert doc["diagnostics"]["error"] == "SingularDesign"
        message = doc["diagnostics"]["message"]
        assert "overflows the double range" in message
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_gammas_get_the_envelope(self, capfd, d1_csv, fmt):
        code = main([*SWEEP, "--input", d1_csv, "--format", fmt,
                     "--gamma-min=-1e200", "--gamma-max=1e200",
                     "--gamma-step=1e200"])
        captured = capfd.readouterr()
        assert code == EXIT_USAGE
        doc = json.loads(captured.out)
        assert doc["results"] is None
        assert doc["inputs"]["gamma_max"] == 1e200
        assert doc["diagnostics"]["error"] == "SingularDesign"
        message = doc["diagnostics"]["message"]
        assert "overflows the double range" in message
        assert captured.err == f"error: {message}\n"


class TestArgumentsBeforeData:
    """Bad option values are judged before the input file is opened."""

    @pytest.mark.parametrize("argv, names", [
        ([*SWEEP, "--gamma-min=0", "--gamma-max=1", "--gamma-step=0"],
         "bad gamma range"),
        ([*SWEEP, "--gamma-min=2", "--gamma-max=1", "--gamma-step=0.5"],
         "bad gamma range"),
        ([*SURFACE, "--gamma2-range=0:1:0", "--gamma3-range=0:1:0.5"],
         "bad gamma2 range"),
        (["verify", "--response", "Y", "--x1", "X1", "--controls", "X2",
          "--tolerance=nan"], "--tolerance"),
    ], ids=["zero_step", "reversed_range", "gamma2_step", "tolerance_nan"])
    def test_bad_value_is_usage_not_io_error(self, capsys, tmp_path, argv,
                                             names):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", str(tmp_path / "absent.csv")])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert captured.out == ""
        assert names in captured.err

    def test_oversized_grid_gets_the_envelope_first(self, capsys, tmp_path):
        code = main([*SWEEP, "--input", str(tmp_path / "absent.csv"),
                     "--gamma-min=-1e308", "--gamma-max=1e308",
                     "--gamma-step=1"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        doc = json.loads(captured.out)
        assert doc["results"] is None
        assert doc["diagnostics"]["error"] == "GridTooLarge"

    def test_oversized_surface_gets_the_envelope_first(self, capsys,
                                                       tmp_path):
        # Each axis passes alone; their 1001 x 1001 product does not.
        code = main([*SURFACE, "--input", str(tmp_path / "absent.csv"),
                     "--gamma2-range=0:1000:1", "--gamma3-range=0:1000:1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_USAGE
        assert doc["diagnostics"]["error"] == "GridTooLarge"


class TestJsonSchema:
    """The envelope's key lists, in printed order: a field added to a
    library record or a new option must not reach the JSON unnoticed."""

    ENVELOPE = ["command", "inputs", "results", "diagnostics"]
    GRID = ["input", "response", "x1", "x2"]
    GRID_META = ["reference_b1", "roots", "undefined_points"]

    @pytest.mark.parametrize("argv, inputs, results", [
        (["fit", "--response", "Y", "--predictors", "X1,X2"],
         ["input", "response", "predictors"],
         ["response", "predictors", "intercept", "slopes",
          "condition_estimate", "rss"]),
        (["residualize", "--target", "X1", "--controls", "X2,X3"],
         ["input", "target", "controls"],
         ["name", "target", "controls", "control_coefficients", "values"]),
        ([*SWEEP, "--format", "json", "--gamma-min=0", "--gamma-max=1",
          "--gamma-step=0.5"],
         [*GRID, "gamma_min", "gamma_max", "gamma_step"],
         ["axis_names", "gammas", "values", *GRID_META]),
        ([*SURFACE, "--format", "json", "--gamma2-range=0:1:0.5",
          "--gamma3-range=0:1:0.5"],
         [*GRID, "x3", "gamma2_range", "gamma3_range"],
         ["axis_names", "points", "values", *GRID_META]),
        (["verify", "--response", "Y", "--x1", "X1", "--controls", "X2,X3"],
         ["input", "response", "x1", "controls", "tolerance"],
         ["reports", "passed"]),
    ], ids=["fit", "residualize", "sweep", "surface", "verify"])
    def test_results_and_inputs_keys(self, capsys, d1_extended_csv, argv,
                                     inputs, results):
        code, doc = run_json(capsys, [*argv, "--input", d1_extended_csv])
        assert code == EXIT_OK
        assert list(doc) == self.ENVELOPE
        assert list(doc["inputs"]) == inputs
        assert list(doc["results"]) == results
        assert doc["diagnostics"] == {}

    def test_report_keys(self, capsys, d1_csv):
        code, doc = run_json(capsys, [
            "verify", "--input", d1_csv, "--response", "Y", "--x1", "X1",
            "--controls", "X2", "--tolerance", "1e-300"])
        assert code == EXIT_FAILED_VERIFICATION
        for report in doc["results"]["reports"]:
            assert list(report) == ["claim", "lhs", "rhs", "abs_diff",
                                    "tolerance", "passed"]
        assert list(doc["diagnostics"]) == ["failed_claims"]

    def test_sweep_sidecar_keys(self, tmp_path, d1_csv):
        out = tmp_path / "sweep.csv"
        assert main([*SWEEP, "--input", d1_csv, "--output", str(out),
                     "--gamma-min=0", "--gamma-max=1",
                     "--gamma-step=0.5"]) == EXIT_OK
        doc = json.loads(out.with_suffix(".meta.json").read_text())
        assert list(doc) == self.ENVELOPE
        assert list(doc["inputs"]) == [*self.GRID, "gamma_min", "gamma_max",
                                       "gamma_step"]
        assert list(doc["results"]) == self.GRID_META
        assert doc["diagnostics"] == {}

    def test_error_envelope_keys(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X1,X2,Y\n1,2,3\n4,x,6\n")
        code, doc = run_json(capsys, [
            "fit", "--input", str(path), "--response", "Y",
            "--predictors", "X1,X2"])
        assert code == EXIT_USAGE
        assert list(doc) == self.ENVELOPE
        assert list(doc["inputs"]) == ["input", "response", "predictors"]
        assert doc["results"] is None
        assert list(doc["diagnostics"]) == ["error", "message", "row",
                                            "column"]
