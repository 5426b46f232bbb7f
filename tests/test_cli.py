"""End-to-end behavior of the command line front end."""

import json

import pytest

import partialreg.cli
from partialreg import (
    fit,
    fit_simple,
    gamma_roots,
    load_csv,
    residualize,
    round_to_printed,
    save_csv,
    slope_on_gamma,
)
from partialreg.cli import EXIT_FAILED_VERIFICATION, EXIT_OK, EXIT_USAGE, main


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

    def test_csv_format(self, capsys, d1_csv):
        code = main(["verify", "--input", d1_csv, "--response", "Y",
                     "--x1", "X1", "--controls", "X2", "--format", "csv"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "claim,lhs,rhs,abs_diff,tolerance,passed"
        assert len(lines) == 6
        assert all(line.endswith(",true") for line in lines[1:])


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
