"""The four workloads: set-up, the closed timed loop, and output checks.

All load is a closed loop with one client: the next op starts when the
previous one has ended.  CLI ops are ``python -m partialreg.cli``
processes, timed from spawn to exit.  Library ops run in a worker process
(``lib_worker.py``) that times each call.  Every op's output is checked
against :mod:`data`'s numpy reference; an op fails on a nonzero exit, an
output that does not parse, non-empty ``diagnostics`` or any disagreement.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibrate
import data
from tracer import EXACT_COUNTS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"

SIZES = {"cli-verify": 100_000, "cli-residualize": 100_000,
         "lib-suite": 1_000_000, "lib-gamma": 100_000}
SMOKE_N = 1_000
SMOKE_MAX_OPS = 4
SETUP_REPEATS = 3
STARTUP_PROBES = 5
# A single op that runs this long has hung; it is killed and fails.
OP_TIMEOUT_S = 120.0

EXPECTED_CLAIMS = ("residualized_slope_two_controls",
                   "residual_uncorrelated_with_controls",
                   "controls_have_zero_slope_on_residual",
                   "mapped_coefficients_match_refit",
                   "aggregation_recovers_subset_slopes")

# Outputs are printed with 12 significant digits, and the library and the
# reference reach the same least-squares answer by different rounding.
REL_TOL = 1e-9


@dataclass
class Op:
    """One op as the benchmark saw it."""

    seconds: float
    error: str | None
    traced: bool = False
    twin: bool = False
    rss_kb: int = 0
    metrics: dict | None = None


@dataclass
class RunResult:
    workload: str
    n: int
    setup_s: list[float]
    ops: list[Op]
    worker_rss_kb: float = 0
    startup_s: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)
    spans: list = field(default_factory=list)
    count_errors: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------
# processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


@dataclass
class Child:
    seconds: float
    code: int
    rss_kb: int
    stdout: bytes


def spawn(argv: list[str], scratch: Path) -> Child:
    """Run a process to its end; wall time from spawn to exit, and its peak
    resident memory from ``wait4``."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        guard = threading.Timer(OP_TIMEOUT_S, proc.kill)
        guard.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            guard.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(seconds, proc.returncode, usage.ru_maxrss,
                 out_path.read_bytes())


def startup_probes(count: int, scratch: Path) -> list[float]:
    """Fresh interpreter plus ``import partialreg.cli``, doing no work."""
    return [spawn([sys.executable, "-c", "import partialreg.cli"],
                  scratch).seconds for _ in range(count)]


# --------------------------------------------------------------------------
# checks against the reference


def _close(got, want) -> bool:
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    return got.shape == want.shape and bool(np.all(
        np.abs(got - want) <= REL_TOL * np.maximum(1.0, np.abs(want))))


def check_reports(reports: list[dict], ref: data.Reference) -> str | None:
    """Verification-suite reports, from the CLI envelope or the library."""
    claims = tuple(r["claim"] for r in reports)
    if claims != EXPECTED_CLAIMS:
        return f"claims {claims}"
    failed = [r["claim"] for r in reports if r["passed"] is not True]
    if failed:
        return f"claims failed: {failed}"
    by_claim = {r["claim"]: r for r in reports}
    b1 = ref.full[1]
    expected = {
        "residualized_slope_two_controls": (b1, b1),
        "controls_have_zero_slope_on_residual": ((0.0, 0.0), (0.0, 0.0)),
        "mapped_coefficients_match_refit": (ref.mapped, ref.mapped),
        "aggregation_recovers_subset_slopes": (ref.subset[1:],
                                               ref.subset[1:]),
    }
    for claim, (lhs, rhs) in expected.items():
        report = by_claim[claim]
        if not (_close(report["lhs"], lhs) and _close(report["rhs"], rhs)):
            return (f"{claim}: {report['lhs']} / {report['rhs']} "
                    f"against reference {lhs}")
    return None


def check_verify_output(stdout: bytes, ref: data.Reference) -> str | None:
    try:
        envelope = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON envelope"
    if envelope.get("command") != "verify":
        return f"command {envelope.get('command')!r}"
    if envelope.get("diagnostics") != {}:
        return f"diagnostics {envelope.get('diagnostics')}"
    results = envelope.get("results") or {}
    if results.get("passed") is not True:
        return "suite did not pass"
    return check_reports(results.get("reports", []), ref)


def check_residualized_csv(path: Path, columns: dict[str, np.ndarray],
                           ref: data.Reference) -> str | None:
    """The input columns unchanged, plus ``X1* = X1 - c2*X2 - c3*X3``."""
    try:
        header, matrix = data.read_csv(path)
    except (OSError, ValueError) as exc:
        return f"output CSV unreadable: {exc}"
    if tuple(header) != (*data.COLUMNS, "X1*"):
        return f"header {header}"
    n = columns["Y"].size
    if matrix.shape != (n, 5):
        return f"output shape {matrix.shape}"
    for j, name in enumerate(data.COLUMNS):
        if not np.array_equal(matrix[:, j], columns[name]):
            return f"column {name} changed"
    c2, c3 = ref.aux[1], ref.aux[2]
    want = columns["X1"] - c2 * columns["X2"] - c3 * columns["X3"]
    if not _close(matrix[:, 4], want):
        return "residualized column disagrees with the reference"
    return None


def _check_grid(summary: dict, total: int, undefined: int, reference_slope,
                roots, samples) -> str | None:
    if summary["points"] + summary["undefined"] != total:
        return f"{summary['points']} + {summary['undefined']} != {total}"
    if summary["undefined"] != undefined:
        return f"{summary['undefined']} undefined points, expected {undefined}"
    if not _close(summary["reference_slope"], reference_slope):
        return f"reference slope {summary['reference_slope']}"
    if not _close(summary["roots"], roots):
        return f"roots {summary['roots']}, expected {roots}"
    if any(v is None for v in summary["samples"]):
        return "a sampled grid point is missing"
    if not _close(summary["samples"], samples):
        return f"grid values {summary['samples']}, expected {samples}"
    return None


def check_gamma(summary: dict, ref: data.Reference) -> str | None:
    surface = _check_grid(
        summary["surface"], data.SURFACE_GRID.size ** 2,
        ref.surface_undefined, ref.full[1], [ref.aux[1:]],
        ref.surface_values)
    if surface is not None:
        return "surface: " + surface
    sweep = _check_grid(
        summary["sweep"], data.SWEEP_GRID.size, ref.sweep_undefined,
        ref.pair[1], [[r] for r in ref.sweep_roots], ref.sweep_values)
    return None if sweep is None else "sweep: " + sweep


LIB_CHECKS = {"lib-suite": lambda summary, ref: check_reports(
                  summary["reports"], ref),
              "lib-gamma": check_gamma}


# --------------------------------------------------------------------------
# workloads


def cli_arguments(workload: str, csv_path: Path, out_path: Path) -> list[str]:
    if workload == "cli-verify":
        return ["verify", "--input", str(csv_path), "--response", "Y",
                "--x1", "X1", "--controls", "X2,X3"]
    return ["residualize", "--input", str(csv_path), "--target", "X1",
            "--controls", "X2,X3", "--format", "csv", "--output",
            str(out_path)]


def run_cli(workload: str, seed: int, n: int, seconds: float, trace: bool,
            smoke: bool, bias: float, scratch: Path) -> RunResult:
    csv_path, out_path = scratch / "input.csv", scratch / "output.csv"
    untraced = [sys.executable, "-m", "partialreg.cli"]

    setup_s = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        start = time.perf_counter()
        data.write_csv(data.generate(seed, n), csv_path)
        spawn(untraced + cli_arguments(workload, csv_path, out_path), scratch)
        setup_s.append(time.perf_counter() - start)

    inputs = {False: (csv_path, data.read_back(csv_path))}
    if trace:
        twin_path = scratch / "twin.csv"
        data.write_csv(data.generate(seed + 1, n), twin_path)
        inputs[True] = (twin_path, data.read_back(twin_path))
    refs = {}
    for twin, (_, columns) in inputs.items():
        ref = data.reference(columns)
        refs[twin] = ref.biased(bias) if bias else ref

    ops: list[Op] = []
    spans: list = []

    def run_op(traced: bool, twin: bool = False) -> None:
        path, columns = inputs[twin]
        arguments = cli_arguments(workload, path, out_path)
        spans_path = scratch / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "cli_traced.py"),
                    str(spans_path), str(len(ops))] + arguments
        else:
            argv = untraced + arguments
        child = spawn(argv, scratch)
        error = None
        if child.code != 0:
            error = f"exit code {child.code}"
        elif workload == "cli-verify":
            error = check_verify_output(child.stdout, refs[twin])
        elif child.stdout:
            error = "unexpected stdout"
        else:
            error = check_residualized_csv(out_path, columns, refs[twin])
        metrics = None
        if traced and spans_path.exists():
            record = json.loads(spans_path.read_text(encoding="utf-8"))
            spans.extend(record["spans"])
            metrics = record["metrics"]
            metrics["io.bytes_read"] = path.stat().st_size
            metrics["io.bytes_written"] = len(child.stdout) + (
                out_path.stat().st_size if out_path.exists() else 0)
        elif traced:
            error = error or "traced op wrote no spans"
        for stale in (out_path, spans_path):
            stale.unlink(missing_ok=True)
        ops.append(Op(child.seconds, error, traced, twin, child.rss_kb,
                      metrics))

    kernel_s = closed_loop(run_op, seconds, trace,
                           SMOKE_MAX_OPS if smoke else None)
    if trace:
        run_op(traced=True, twin=True)
    return RunResult(workload, n, setup_s, ops, spans=spans,
                     kernel_s=kernel_s)


def closed_loop(run_op, seconds: float, trace: bool,
                max_ops: int | None) -> list[float]:
    """Ops back to back until the time is up, and the calibration kernel
    between them for about ``calibrate.SHARE`` of the time; returns the
    kernel's times.  In a traced run, untraced and traced ops alternate so
    that both see the same machine, and at least one of each runs."""
    count = 0
    op_total = kernel_total = 0.0
    kernel_s: list[float] = []
    deadline = time.perf_counter() + seconds
    while (max_ops is None or count < max_ops) and (
            time.perf_counter() < deadline or (trace and count < 2)):
        start = time.perf_counter()
        run_op(traced=trace and count % 2 == 1)
        op_total += time.perf_counter() - start
        while kernel_total < calibrate.SHARE * op_total:
            kernel_s.append(calibrate.time_kernel())
            kernel_total += kernel_s[-1]
        count += 1
    return kernel_s


def run_lib(workload: str, seed: int, n: int, seconds: float, trace: bool,
            smoke: bool, bias: float, scratch: Path) -> RunResult:
    spec = {"workload": workload, "seed": seed, "twin_seed": seed + 1,
            "n": n, "seconds": seconds, "trace": trace,
            "setup_repeats": 1 if smoke else SETUP_REPEATS,
            "max_ops": SMOKE_MAX_OPS if smoke else None}
    child = spawn([sys.executable, str(BENCH_DIR / "lib_worker.py"),
                   json.dumps(spec)], scratch)
    if child.code != 0:
        stderr = (scratch / "stderr").read_text(encoding="utf-8",
                                                errors="replace")
        raise RuntimeError(f"{workload} worker exited with {child.code}:\n"
                           f"{stderr[-2000:]}")
    report = json.loads(child.stdout)
    refs = {}
    for twin, data_seed in ((False, seed), (True, seed + 1))[:1 + trace]:
        ref = data.reference(data.generate(data_seed, n))
        refs[twin] = ref.biased(bias) if bias else ref
    check = LIB_CHECKS[workload]
    ops = [Op(op["seconds"],
              op["error"] or check(op["summary"], refs[op["twin"]]),
              op["traced"], op["twin"], metrics=op["metrics"])
           for op in report["ops"]]
    for op in ops:
        if op.metrics is not None:
            op.metrics["io.bytes_read"] = 0
            op.metrics["io.bytes_written"] = 0
    # The calibration kernel's arrays stay resident in the worker through
    # the ops; they are not the program's memory.
    rss_kb = child.rss_kb - report["kernel_bytes"] / 1024
    return RunResult(workload, n, report["setup_s"], ops,
                     worker_rss_kb=rss_kb, spans=report["spans"],
                     kernel_s=report["kernel_s"])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, bias: float = 0.0) -> RunResult:
    """Set up and run one workload; ``bias`` makes the reference wrong on
    purpose, which every op's check must catch."""
    n = SMOKE_N if smoke else SIZES[workload]
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        runner = run_cli if workload.startswith("cli-") else run_lib
        result = runner(workload, seed, n, seconds, trace, smoke, bias,
                        scratch)
        if trace:
            result.startup_s = startup_probes(
                2 if smoke else STARTUP_PROBES, scratch)
            result.count_errors = _count_errors(result.ops)
            spans_file = WORK_DIR / f"spans-{workload}-seed{seed}.json"
            spans_file.write_text(json.dumps(result.spans), encoding="utf-8")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return result


def baseline_counts() -> dict[str, dict[str, float]]:
    """Exact counts per workload at full size, recorded at the seed commit
    as the baseline for count-based claims."""
    path = BENCH_DIR / "baseline_counts.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def _count_errors(ops: list[Op]) -> list[str]:
    """Exact counts must agree on every traced op, the twin seed's too."""
    traced = [op.metrics for op in ops if op.metrics is not None]
    errors = []
    for key in EXACT_COUNTS:
        values = sorted({m[key] for m in traced})
        if len(values) > 1:
            errors.append(f"{key} differs between ops: {values}")
    return errors


# --------------------------------------------------------------------------
# metrics


def end_to_end(result: RunResult) -> dict[str, tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` for an untraced run.  Times are
    at the reference host speed (see :mod:`calibrate`); the wall-clock op
    median and the kernel's median are listed too."""
    times = [op.seconds for op in result.ops]
    factor = calibrate.scale(result.kernel_s)
    if result.workload.startswith("cli-"):
        rss = statistics.median(op.rss_kb for op in result.ops)
        rss_samples = len(result.ops)
    else:
        rss, rss_samples = result.worker_rss_kb, 1
    failed = sum(op.error is not None for op in result.ops)
    return {
        "op_p50_s": (statistics.median(times) * factor, "s", len(times)),
        "ops_per_s": (len(times) / math.fsum(times) / factor, "1/s",
                      len(times)),
        "peak_rss_mb": (rss / 1024.0, "MB", rss_samples),
        "setup_s": (statistics.median(result.setup_s) * factor, "s",
                    len(result.setup_s)),
        "failed_frac": (failed / len(result.ops), "ratio", len(result.ops)),
        "op_p50_wall_s": (statistics.median(times), "s", len(times)),
        "kernel_p50_s": (calibrate.REFERENCE_S / factor, "s",
                         len(result.kernel_s)),
    }


PER_LAYER_UNITS = {
    "cli.startup_s": "s", "cli.self_s": "s",
    "io.load_csv_s": "s", "io.rows_per_s": "1/s", "io.to_csv_s": "s",
    "io.format_number_calls": "count", "io.round_to_printed_calls": "count",
    "io.bytes_read": "B", "io.bytes_written": "B",
    "dataset.build_calls": "count", "dataset.build_s": "s",
    "dataset.cells_validated": "count",
    "ols.fit_calls": "count", "ols.fit_simple_calls": "count",
    "ols.fit_s": "s", "ols.fit_simple_s": "s", "ols.decompositions": "count",
    "ols.designs_per_fit": "ratio", "ols.design_bytes": "B",
    "stats.column_passes": "count", "stats.self_s": "s",
    "transform.apply_transform_s": "s", "transform.residualize_s": "s",
    "gamma.surface_s": "s", "gamma.sweep_s": "s", "gamma.points": "count",
    "gamma.defined_frac": "ratio",
    "identities.suite_s": "s", "identities.self_s": "s",
    "identities.claims": "count", "identities.claims_passed": "count",
    "trace.overhead_frac": "ratio",
}


def per_layer(result: RunResult) -> dict[str, tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` for a traced run: the median over
    the traced ops of the first seed."""
    traced = [op for op in result.ops
              if op.traced and not op.twin and op.metrics is not None]
    plain = [op.seconds for op in result.ops if not op.traced]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "cli.startup_s":
            values = result.startup_s
        elif name == "trace.overhead_frac":
            values = []
            if traced and plain:
                traced_p50 = statistics.median(op.seconds for op in traced)
                plain_p50 = statistics.median(plain)
                values = [(traced_p50 - plain_p50) / plain_p50]
        else:
            values = [op.metrics[name] for op in traced]
        # Nothing to report when every traced op failed; the run is then
        # marked incorrect anyway.
        value = statistics.median(values) if values else 0.0
        if unit == "count":
            value = int(value)  # exact counts repeat on every op
        metrics[name] = (value, unit, len(values))
    return metrics
