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
    Human-readable summary of the suite ``verify`` runs: fits, roots, checks.

Output is a single JSON object ``{command, inputs, results, diagnostics}``
or CSV via ``--format``; every number is printed with 12 significant
digits.  Sweep and surface CSVs written with ``--output`` get a metadata
sidecar (same basename, ``.meta.json``) carrying ``reference_b1``, the
roots, and any grid points skipped as degenerate.

Exit codes: 0 success, 1 failed verification, 2 usage or input error.  A
bad grid range or tolerance is a usage error, found by the library's own
check before the input is read; an oversized grid, a surface's product of
axes included, gets the JSON envelope, also before the input is read.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .errors import GridTooLarge, ParseError, PartialRegError, ZeroLeadSlope
from .gamma import (
    _checked_grid,
    _roots,
    gamma_surface,
    gamma_sweep,
    grid_points,
)
from .identities import (
    DEFAULT_TOLERANCE,
    _checked_tolerance,
    _suite,
    run_verification_suite,
)
from .io import _table, format_number, load_csv, round_to_printed, to_csv
from .ols import _simple_from_moments, fit
from .stats import _central_moments
from .transform import residualize

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_FAILED_VERIFICATION = 1
EXIT_USAGE = 2


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


def _tolerance(text: str) -> float:
    try:
        return _checked_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partialreg",
        description="Fit regressions and check the identities relating "
                    "simple, multiple, and residualized slopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_format: str) -> None:
        p.add_argument("--input", required=True, dest="input_path",
                       help="input CSV file")
        if default_format == "text":  # the one format, so no --format
            p.set_defaults(output_format="text")
        else:
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

    for name, default_format, about in (
            ("verify", "json", "run all identity checks"),
            ("report", "text", "human-readable summary")):
        p = sub.add_parser(name, help=about)
        common(p, default_format)
        p.add_argument("--response", required=True)
        p.add_argument("--x1", required=True)
        p.add_argument("--controls", required=True, type=_name_list)
        p.add_argument("--tolerance", type=_tolerance,
                       default=DEFAULT_TOLERANCE)

    return parser


# --------------------------------------------------------------------------
# serialization helpers

def _flat(values: tuple):
    return values[0] if len(values) == 1 else values


def _printed(value):
    """``value`` as the JSON envelope prints it: every float rounded to its
    12-digit printed form, every list or tuple a list."""
    if isinstance(value, float):
        return round_to_printed(value)
    if isinstance(value, dict):
        return {key: _printed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_printed(item) for item in value]
    return value


def _inputs_dict(args: argparse.Namespace) -> dict:
    """The options as given; each parser declares them in printed order."""
    return {"input": args.input_path, **{
        key: value for key, value in vars(args).items()
        if key not in ("command", "input_path", "output_format",
                       "output_path")}}


def _csv_lines(header: str, rows: list[list]) -> str:
    """A few-row table whose cells may be text (``fit``, ``verify``); grid
    tables go through the block printer, ``io._table``."""
    lines = [header]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else format_number(cell)
            for cell in row))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# command implementations, called with the arguments, the dataset and the
# grids: each returns ``(payload, exit_code, meta)``, the payload being the
# results dict or the text, only what ``--format`` asks for; ``meta`` is the
# sidecar of a CSV written to a file, or None.

def _cmd_fit(args: argparse.Namespace, ds: Dataset):
    fitted = fit(ds, args.response, args.predictors)
    if args.output_format == "csv":
        rows = [("intercept", fitted.intercept),
                *zip(fitted.predictors, fitted.slopes),
                ("condition_estimate", fitted.condition_estimate),
                ("rss", fitted.rss)]
        return _csv_lines("term,estimate", rows), EXIT_OK, None
    return asdict(fitted), EXIT_OK, None


def _cmd_residualize(args: argparse.Namespace, ds: Dataset):
    residual = residualize(ds, args.target, args.controls)
    if args.output_format == "csv":
        return to_csv(residual.merged_into(ds)), EXIT_OK, None
    # Not asdict, which would deep-copy the n-row array.
    return ({**vars(residual), "values": residual.values.tolist()},
            EXIT_OK, None)


def _grid_payload(args: argparse.Namespace, sweep):
    """Payload of a sweep (one axis, scalar coordinates) or a surface (two
    axes, coordinate lists); the sidecar meta goes with either format."""
    meta = {
        "reference_b1": sweep.reference_slope,
        "roots": [_flat(root) for root in sweep.roots],
        "undefined_points": [_flat(p) for p in sweep.undefined_points],
    }
    if args.output_format == "csv":
        points = np.array(sweep.points).reshape(-1, len(sweep.axis_names))
        text = _table((*sweep.axis_names, "a1_star"),
                      [*points.T, np.array(sweep.values)])
        return text, EXIT_OK, meta
    results = {
        "axis_names": sweep.axis_names,
        "gammas" if len(sweep.axis_names) == 1 else "points":
            [_flat(point) for point in sweep.points],
        "values": sweep.values,
        **meta,
    }
    return results, EXIT_OK, meta


def _cmd_sweep(args: argparse.Namespace, ds: Dataset, grid):
    return _grid_payload(args, gamma_sweep(
        ds, args.response, args.x1, args.x2, grid))


def _cmd_surface(args: argparse.Namespace, ds: Dataset, grid2, grid3):
    return _grid_payload(args, gamma_surface(
        ds, args.response, args.x1, [args.x2, args.x3], grid2, grid3))


def _cmd_verify(args: argparse.Namespace, ds: Dataset):
    reports = run_verification_suite(
        ds, args.response, args.x1, args.controls, args.tolerance)
    passed = all(r.passed for r in reports)
    code = EXIT_OK if passed else EXIT_FAILED_VERIFICATION
    if args.output_format == "csv":
        rows = [[r.claim, ";".join(map(format_number, r.lhs)),
                 ";".join(map(format_number, r.rhs)), r.abs_diff,
                 r.tolerance, "true" if r.passed else "false"]
                for r in reports]
        text = _csv_lines("claim,lhs,rhs,abs_diff,tolerance,passed", rows)
        return text, code, None
    rows = [{**asdict(r), "lhs": _flat(r.lhs), "rhs": _flat(r.rhs)}
            for r in reports]
    return {"reports": rows, "passed": passed}, code, None


def _cmd_report(args: argparse.Namespace, ds: Dataset):
    response, x1, controls = args.response, args.x1, args.controls
    names = [x1, *controls]
    reports, (full, star, weights, _, cross) = _suite(
        ds, response, x1, controls, args.tolerance)
    lines: list[str] = []
    lines.append(f"dataset {args.input_path}: n={ds.n}, "
                 f"columns {', '.join(ds.names)}")
    lines.append("")

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
    raw = _central_moments([ds.column(c) for c in (response, *names)],
                           [response, *names])  # x1's own mean, too
    for i, name in enumerate(names, 1):
        intercept, slope, _ = _simple_from_moments(*raw, 0, i, name)
        lines.append(f"  {response} ~ {name}: intercept "
                     f"{format_number(intercept)}, slope "
                     f"{format_number(slope)}")
    lines.append("")

    pieces = " - ".join(
        f"{format_number(c)}*{name}"
        for name, c in zip(controls, weights))
    lines.append(f"residualized predictor {star} = {x1} - {pieces}")
    if len(controls) == 1:
        try:
            shown = ", ".join(map(format_number,
                                  _roots(full, weights, cross)))
            lines.append(f"gammas where the combined-predictor slope "
                         f"equals the multiple slope: {shown}")
        except ZeroLeadSlope:
            lines.append("multiple slope on x1 is ~0; "
                         "only gamma = fitted c12 reproduces it")
        lines.append(f"multiple slope on {x1}: "
                     f"{format_number(full.slopes[0])}")
    lines.append("")

    lines.append(f"verification (tolerance {format_number(args.tolerance)})")
    claim_width = max(len(r.claim) for r in reports)
    for r in reports:
        verdict = "pass" if r.passed else "FAIL"
        lines.append(f"  {r.claim:<{claim_width}}  {verdict}  "
                     f"max |diff| {format_number(r.abs_diff)}")
    overall = all(r.passed for r in reports)
    lines.append(f"overall: {'pass' if overall else 'FAIL'}")
    return "\n".join(lines) + "\n", EXIT_OK, None


_COMMANDS = {
    "fit": _cmd_fit,
    "residualize": _cmd_residualize,
    "sweep": _cmd_sweep,
    "surface": _cmd_surface,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def _grids(args: argparse.Namespace) -> list:
    """The command's gamma grids, each checked by :func:`grid_points` and
    their product by the evaluators' own size check."""
    if args.command == "sweep":
        ranges = {"gamma": (args.gamma_min, args.gamma_max, args.gamma_step)}
    elif args.command == "surface":
        ranges = {"gamma2": args.gamma2_range, "gamma3": args.gamma3_range}
    else:
        return []
    grids = []
    for what, (lo, hi, step) in ranges.items():
        try:
            grids.append(grid_points(lo, hi, step))
        except ValueError as exc:
            if not isinstance(exc, GridTooLarge):  # that one gets the envelope
                exc.args = (f"bad {what} range {lo}:{hi}:{step}: {exc}",)
            raise
    return _checked_grid(*grids)


def _envelope(args: argparse.Namespace, inputs: dict, results,
              diagnostics: dict) -> str:
    """The one place the CLI's JSON numbers are rounded (see _printed)."""
    return json.dumps(_printed(
        {"command": args.command, "inputs": inputs, "results": results,
         "diagnostics": diagnostics}), indent=2) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the exit code.  A bad grid
    range raises ValueError, naming its option, before the input is read."""
    inputs = _inputs_dict(args)
    try:
        grids = _grids(args)
        ds = load_csv(args.input_path)
        payload, code, meta = _COMMANDS[args.command](args, ds, *grids)
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
        sys.stdout.write(_envelope(args, inputs, None, diagnostics))
        sys.stderr.write(f"error: {diagnostics['message']}\n")
        return EXIT_USAGE

    if args.output_format != "json":
        _emit(payload, args.output_path)
        if meta is not None and args.output_path is not None:
            _emit(_envelope(args, inputs, meta, {}),
                  str(Path(args.output_path).with_suffix(".meta.json")))
    else:
        diagnostics = {}
        if args.command == "verify" and not payload["passed"]:
            diagnostics["failed_claims"] = [
                r["claim"] for r in payload["reports"] if not r["passed"]]
        _emit(_envelope(args, inputs, payload, diagnostics),
              args.output_path)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ValueError as exc:
        # argument values the library rejects
        parser.error(str(exc))
    except OSError as exc:
        # an output path that cannot be written
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
