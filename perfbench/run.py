"""Benchmark of partialreg: four workloads, timed end to end from outside.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload cli-verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload lib-gamma --seed 1 --seconds 2 --trace 1 --smoke

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a table with units and sample counts and an environment
stamp.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import subprocess
import sys

import workloads

WORKLOADS = tuple(workloads.SIZES)
END_TO_END = ("op_p50_s", "ops_per_s", "peak_rss_mb", "setup_s")


def blas_info() -> tuple[str, int | None]:
    """BLAS name and version, and its thread count if it can be read."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        name = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__),
                                  os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return name, int(getter())
    return name, None


def git_sha() -> str | None:
    if not (workloads.ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def environment(seed: int, n: dict[str, int]) -> dict:
    import numpy

    blas, threads = blas_info()
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "blas_threads": threads,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed, "n": n}


def oversubscribed(env: dict) -> str | None:
    """Why a run must not start: BLAS threads beyond the processors would
    time the oversubscription, not the program."""
    threads = env["blas_threads"]
    if threads is not None and threads > env["nproc"]:
        return (f"BLAS uses {threads} threads on {env['nproc']} processors; "
                f"set OPENBLAS_NUM_THREADS")
    return None


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="n = 1000 and a few ops, for a quick check")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def one_workload(name: str, args: argparse.Namespace) -> dict:
    """Run a workload, print its table, and return its JSON result."""
    result = workloads.run_workload(name, args.seed, args.seconds,
                                    bool(args.trace), args.smoke)
    failures = [op.error for op in result.ops if op.error is not None]
    for error in failures[:5]:
        print(f"{name}: failed op: {error}", file=sys.stderr)
    for error in result.count_errors:
        print(f"{name}: {error}", file=sys.stderr)

    rows = (workloads.per_layer(result) if args.trace
            else workloads.end_to_end(result))
    print(f"# {name}  n={result.n}  seed={args.seed}  "
          f"seconds={args.seconds:g}  trace={args.trace}")
    print(f"  {'metric':<28} {'value':>16}  {'unit':<6} samples")
    for metric, (value, unit, samples) in rows.items():
        print(f"  {metric:<28} {value:>16.6g}  {unit:<6} {samples}")
    if args.trace and not args.smoke:
        baseline = workloads.baseline_counts().get(name, {})
        differ = {key: (rows[key][0], value)
                  for key, value in baseline.items() if rows[key][0] != value}
        if differ:
            print(f"  exact counts differ from baseline_counts.json "
                  f"(now, baseline): {differ}")

    shown = workloads.PER_LAYER_UNITS if args.trace else END_TO_END
    return {
        "correct": not failures and not result.count_errors,
        "attempted": len(result.ops),
        "failed": len(failures),
        "metrics": {metric: {"value": rows[metric][0], "unit": rows[metric][1]}
                    for metric in shown},
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (workloads.ROOT / "src" / "partialreg" / "cli.py").is_file():
        print(f"error: no partialreg sources under {workloads.ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment(args.seed, {
        name: workloads.SMOKE_N if args.smoke else workloads.SIZES[name]
        for name in names})
    refused = oversubscribed(env)
    if refused:
        print(f"error: {refused}", file=sys.stderr)
        return 2
    print("# environment " + json.dumps(env))
    results = {name: one_workload(name, args) for name in names}
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
