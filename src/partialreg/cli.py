"""Command line front end.

Subcommands, all reading one CSV dataset via ``--input``:

``fit``
    Least-squares fit: ``--response Y --predictors X1,X2[,...]``.
``residualize``
    Remove fitted control influence: ``--target X1 --controls X2[,...]``.
``sweep``
    Tabulate the slope of the response on ``x1 - gamma*x2`` over a gamma
    grid (``--gamma-min --gamma-max --gamma-step``), annotated with the
    gammas where it equals the multiple-regression slope.
``surface``
    The two-control version on a ``gamma x gamma3`` grid
    (``--gamma2-range lo:hi:step --gamma3-range lo:hi:step``).
``verify``
    Run every applicable coefficient-identity check; exits 1 if any
    claim fails.
``report``
    Human-readable summary of the fits, roots, and checks.

Output is a single JSON object ``{command, inputs, results, diagnostics}``
or CSV via ``--format``; every number is printed with 12 significant
digits.  Sweep and surface CSVs written with ``--output`` get a metadata
sidecar (same basename, ``.meta.json``) carrying ``reference_b1``, the
roots, and any grid points skipped as degenerate.

Exit codes: 0 success, 1 failed verification, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .dataset import Dataset
from .errors import ParseError, PartialRegError, ZeroLeadSlope
from .gamma import gamma_roots, gamma_surface, gamma_sweep, grid_points
from .identities import (
    DEFAULT_TOLERANCE,
    VerificationReport,
    run_verification_suite,
)
from .io import format_number, load_csv, round_to_printed, to_csv
from .ols import fit, fit_simple
from .transform import residualize

__all__ = ["RunConfig", "run", "main"]

EXIT_OK = 0
EXIT_FAILED_VERIFICATION = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, validated before any data access."""

    command: str
    input_path: str
    output_format: str = "json"
    output_path: str | None = None
    response: str | None = None
    predictors: tuple[str, ...] | None = None
    target: str | None = None
    controls: tuple[str, ...] | None = None
    x1: str | None = None
    x2: str | None = None
    x3: str | None = None
    gamma_min: float | None = None
    gamma_max: float | None = None
    gamma_step: float | None = None
    gamma2_range: tuple[float, float, float] | None = None
    gamma3_range: tuple[float, float, float] | None = None
    tolerance: float = DEFAULT_TOLERANCE

    def validate(self) -> None:
        """Raise ValueError on non-finite or out-of-range numbers."""
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got "
                             f"{self.tolerance}")
        for lo, hi, step, what in (
                (self.gamma_min, self.gamma_max, self.gamma_step, "gamma"),
                (*(self.gamma2_range or (None, None, None)), "gamma2"),
                (*(self.gamma3_range or (None, None, None)), "gamma3")):
            if lo is None:
                continue
            if not (all(map(math.isfinite, (lo, hi, step)))
                    and step > 0 and lo <= hi):
                raise ValueError(
                    f"bad {what} range {lo}:{hi}:{step}: need finite "
                    f"numbers, a positive step and min <= max")


def _name_list(text: str) -> list[str]:
    names = [part.strip() for part in text.split(",")]
    if any(not name for name in names):
        raise argparse.ArgumentTypeError(
            f"bad column list {text!r}: empty name")
    return names


def _range_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"non-numeric range {text!r}") from None
    return (lo, hi, step)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partialreg",
        description="Fit regressions and check the identities relating "
                    "simple, multiple, and residualized slopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_format: str) -> None:
        p.add_argument("--input", required=True, dest="input_path",
                       help="input CSV file")
        p.add_argument("--format", choices=("json", "csv"),
                       default=default_format, dest="output_format",
                       help=f"output format (default {default_format})")
        p.add_argument("--output", dest="output_path",
                       help="write here instead of stdout")

    p = sub.add_parser("fit", help="least-squares fit")
    common(p, "json")
    p.add_argument("--response", required=True)
    p.add_argument("--predictors", required=True, type=_name_list,
                   help="comma-separated predictor columns")

    p = sub.add_parser("residualize",
                       help="subtract fitted control influence")
    common(p, "json")
    p.add_argument("--target", required=True)
    p.add_argument("--controls", required=True, type=_name_list,
                   help="comma-separated control columns")

    p = sub.add_parser("sweep",
                       help="slope of response on x1 - gamma*x2 over a grid")
    common(p, "csv")
    p.add_argument("--response", required=True)
    p.add_argument("--x1", required=True)
    p.add_argument("--x2", required=True)
    p.add_argument("--gamma-min", required=True, type=float)
    p.add_argument("--gamma-max", required=True, type=float)
    p.add_argument("--gamma-step", required=True, type=float)

    p = sub.add_parser("surface",
                       help="two-control slope surface over a grid")
    common(p, "csv")
    p.add_argument("--response", required=True)
    p.add_argument("--x1", required=True)
    p.add_argument("--x2", required=True)
    p.add_argument("--x3", required=True)
    p.add_argument("--gamma2-range", required=True, type=_range_triple,
                   metavar="LO:HI:STEP")
    p.add_argument("--gamma3-range", required=True, type=_range_triple,
                   metavar="LO:HI:STEP")

    p = sub.add_parser("verify", help="run all identity checks")
    common(p, "json")
    p.add_argument("--response", required=True)
    p.add_argument("--x1", required=True)
    p.add_argument("--controls", required=True, type=_name_list)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)

    p = sub.add_parser("report", help="human-readable summary")
    p.add_argument("--input", required=True, dest="input_path")
    p.add_argument("--output", dest="output_path")
    p.add_argument("--response", required=True)
    p.add_argument("--x1", required=True)
    p.add_argument("--controls", required=True, type=_name_list)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = vars(args).copy()
    for key in ("predictors", "controls"):
        if values.get(key) is not None:
            values[key] = tuple(values[key])
    values.setdefault("output_format", "json")
    return RunConfig(**{k: v for k, v in values.items()
                        if k in RunConfig.__dataclass_fields__})


# --------------------------------------------------------------------------
# serialization helpers

def _flat(values: tuple[float, ...]):
    rounded = [round_to_printed(v) for v in values]
    return rounded[0] if len(rounded) == 1 else rounded


def _inputs_dict(config: RunConfig) -> dict:
    inputs: dict = {"input": config.input_path}
    for key in ("response", "target", "x1", "x2", "x3",
                "predictors", "controls"):
        value = getattr(config, key)
        if value is not None:
            inputs[key] = list(value) if isinstance(value, tuple) else value
    for key in ("gamma_min", "gamma_max", "gamma_step",
                "gamma2_range", "gamma3_range"):
        value = getattr(config, key)
        if value is not None:
            inputs[key] = (_flat(value) if isinstance(value, tuple)
                           else round_to_printed(value))
    if config.command in ("verify", "report"):
        inputs["tolerance"] = round_to_printed(config.tolerance)
    return inputs


def _report_dict(report: VerificationReport) -> dict:
    return {
        "claim": report.claim,
        "lhs": _flat(report.lhs),
        "rhs": _flat(report.rhs),
        "abs_diff": round_to_printed(report.abs_diff),
        "tolerance": round_to_printed(report.tolerance),
        "passed": report.passed,
    }


def _csv_lines(header: str, rows: list[list]) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else format_number(cell)
            for cell in row))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# command implementations: each returns ``(payload, exit_code, meta)``, the
# payload being the results dict or the CSV text, only what ``--format``
# asks for; ``meta`` is the sidecar of a CSV written to a file, or None.

def _cmd_fit(config: RunConfig, ds: Dataset):
    fitted = fit(ds, config.response, list(config.predictors))
    if config.output_format == "csv":
        rows = [("intercept", fitted.intercept),
                *zip(fitted.predictors, fitted.slopes),
                ("condition_estimate", fitted.condition_estimate),
                ("rss", fitted.rss)]
        return _csv_lines("term,estimate", rows), EXIT_OK, None
    results = {
        "response": fitted.response,
        "predictors": list(fitted.predictors),
        "intercept": round_to_printed(fitted.intercept),
        "slopes": [round_to_printed(s) for s in fitted.slopes],
        "condition_estimate": round_to_printed(fitted.condition_estimate),
        "rss": round_to_printed(fitted.rss),
    }
    return results, EXIT_OK, None


def _cmd_residualize(config: RunConfig, ds: Dataset):
    residual = residualize(ds, config.target, list(config.controls))
    if config.output_format == "csv":
        return to_csv(residual.merged_into(ds)), EXIT_OK, None
    results = {
        "name": residual.name,
        "target": residual.target,
        "controls": list(residual.controls),
        "control_coefficients": [round_to_printed(c)
                                 for c in residual.control_coefficients],
        "values": [round_to_printed(v) for v in residual.values],
    }
    return results, EXIT_OK, None


def _grid_payload(config: RunConfig, sweep):
    """Payload of a sweep (one axis, scalar coordinates) or a surface (two
    axes, coordinate lists); the sidecar meta goes with either format."""
    meta = {
        "reference_b1": round_to_printed(sweep.reference_slope),
        "roots": [_flat(root) for root in sweep.roots],
        "undefined_points": [_flat(p) for p in sweep.undefined_points],
    }
    if config.output_format == "csv":
        header = ",".join((*sweep.axis_names, "a1_star"))
        rows = [[*point, v] for point, v in zip(sweep.points, sweep.values)]
        return _csv_lines(header, rows), EXIT_OK, meta
    results = {
        "axis_names": list(sweep.axis_names),
        "gammas" if len(sweep.axis_names) == 1 else "points":
            [_flat(point) for point in sweep.points],
        "values": [round_to_printed(v) for v in sweep.values],
        **meta,
    }
    return results, EXIT_OK, meta


def _cmd_sweep(config: RunConfig, ds: Dataset):
    grid = grid_points(config.gamma_min, config.gamma_max, config.gamma_step)
    return _grid_payload(config, gamma_sweep(
        ds, config.response, config.x1, config.x2, grid))


def _cmd_surface(config: RunConfig, ds: Dataset):
    return _grid_payload(config, gamma_surface(
        ds, config.response, config.x1, [config.x2, config.x3],
        grid_points(*config.gamma2_range), grid_points(*config.gamma3_range)))


def _cmd_verify(config: RunConfig, ds: Dataset):
    reports = run_verification_suite(
        ds, config.response, config.x1, list(config.controls),
        config.tolerance)
    passed = all(r.passed for r in reports)
    code = EXIT_OK if passed else EXIT_FAILED_VERIFICATION
    if config.output_format == "csv":
        rows = [[r.claim, ";".join(map(format_number, r.lhs)),
                 ";".join(map(format_number, r.rhs)), r.abs_diff,
                 r.tolerance, "true" if r.passed else "false"]
                for r in reports]
        text = _csv_lines("claim,lhs,rhs,abs_diff,tolerance,passed", rows)
        return text, code, None
    results = {
        "reports": [_report_dict(r) for r in reports],
        "passed": passed,
    }
    return results, code, None


def _cmd_report(config: RunConfig, ds: Dataset) -> tuple[str, int]:
    response, x1 = config.response, config.x1
    controls = list(config.controls)
    names = [x1, *controls]
    lines: list[str] = []
    lines.append(f"dataset {config.input_path}: n={ds.n}, "
                 f"columns {', '.join(ds.names)}")
    lines.append("")

    full = fit(ds, response, names)
    lines.append(f"fit {response} ~ {' + '.join(names)}")
    width = max(len(n) for n in ("intercept", *names))
    lines.append(f"  {'intercept':<{width}}  "
                 f"{format_number(full.intercept)}")
    for name, slope in zip(full.predictors, full.slopes):
        lines.append(f"  {name:<{width}}  {format_number(slope)}")
    lines.append(f"  condition estimate {format_number(full.condition_estimate)}"
                 f", rss {format_number(full.rss)}")
    lines.append("")

    lines.append("simple fits")
    for name in names:
        simple = fit_simple(ds, response, name)
        lines.append(f"  {response} ~ {name}: intercept "
                     f"{format_number(simple.intercept)}, slope "
                     f"{format_number(simple.slopes[0])}")
    lines.append("")

    residual = residualize(ds, x1, controls)
    pieces = " - ".join(
        f"{format_number(c)}*{name}"
        for name, c in zip(residual.controls,
                           residual.control_coefficients))
    lines.append(f"residualized predictor {residual.name} = {x1} - {pieces}")
    if len(controls) == 1:
        try:
            roots = gamma_roots(ds, response, x1, controls[0])
            shown = ", ".join(format_number(r) for r in roots)
            lines.append(f"gammas where the combined-predictor slope "
                         f"equals the multiple slope: {shown}")
        except ZeroLeadSlope:
            lines.append("multiple slope on x1 is ~0; "
                         "only gamma = fitted c12 reproduces it")
        lines.append(f"multiple slope on {x1}: "
                     f"{format_number(full.slopes[0])}")
    lines.append("")

    reports = run_verification_suite(ds, response, x1, controls,
                                     config.tolerance)
    lines.append(f"verification (tolerance {format_number(config.tolerance)})")
    claim_width = max(len(r.claim) for r in reports)
    for r in reports:
        verdict = "pass" if r.passed else "FAIL"
        lines.append(f"  {r.claim:<{claim_width}}  {verdict}  "
                     f"max |diff| {format_number(r.abs_diff)}")
    overall = all(r.passed for r in reports)
    lines.append(f"overall: {'pass' if overall else 'FAIL'}")
    return "\n".join(lines) + "\n", EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "residualize": _cmd_residualize,
    "sweep": _cmd_sweep,
    "surface": _cmd_surface,
    "verify": _cmd_verify,
}


def _envelope(config: RunConfig, inputs: dict, results,
              diagnostics: dict) -> str:
    return json.dumps({"command": config.command, "inputs": inputs,
                       "results": results, "diagnostics": diagnostics},
                      indent=2) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def run(config: RunConfig) -> int:
    """Execute one validated configuration; returns the exit code."""
    inputs = _inputs_dict(config)
    try:
        ds = load_csv(config.input_path)
        if config.command == "report":
            text, code = _cmd_report(config, ds)
            _emit(text, config.output_path)
            return code
        payload, code, meta = _COMMANDS[config.command](config, ds)
    except PartialRegError as exc:
        diagnostics: dict = {
            "error": type(exc).__name__,
            "message": str(exc),
        }
        if isinstance(exc, ParseError):
            if exc.row is not None:
                diagnostics["row"] = exc.row
            if exc.column is not None:
                diagnostics["column"] = exc.column
        sys.stdout.write(_envelope(config, inputs, None, diagnostics))
        sys.stderr.write(f"error: {diagnostics['message']}\n")
        return EXIT_USAGE

    if config.output_format == "csv":
        _emit(payload, config.output_path)
        if meta is not None and config.output_path is not None:
            _emit(_envelope(config, inputs, meta, {}),
                  str(Path(config.output_path).with_suffix(".meta.json")))
    else:
        diagnostics = {}
        if config.command == "verify" and not payload["passed"]:
            diagnostics["failed_claims"] = [
                r["claim"] for r in payload["reports"] if not r["passed"]]
        _emit(_envelope(config, inputs, payload, diagnostics),
              config.output_path)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args)
    try:
        config.validate()
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return run(config)
    except (ValueError, OSError) as exc:
        # argument values the library rejects, and unwritable outputs
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
