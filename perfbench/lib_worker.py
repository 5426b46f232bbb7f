"""Worker process for the library workloads.

Usage (from ``run.py``, with ``PYTHONPATH`` pointing at ``src``)::

    python3 perfbench/lib_worker.py '<json spec>'

The worker sets up (generate, build the ``Dataset``, one warm-up op) as
many times as the spec asks, then runs ops in a closed loop until the time
is up.  Only the op call is timed.  It prints one JSON object: set-up
times, and per op its wall time, a summary of its result for the caller to
check, and, on traced ops, per-layer metrics; and the host-speed kernel's
times (see :mod:`calibrate`).  Running in its own process makes the
caller's ``wait4`` report this worker's peak memory alone.
"""

from __future__ import annotations

import json
import sys
import time

import partialreg

import calibrate
import data
from tracer import Tracer
from workloads import closed_loop


def op_suite(ds):
    return partialreg.run_verification_suite(ds, "Y", "X1", ["X2", "X3"])


def op_gamma(ds):
    surface = partialreg.gamma_surface(ds, "Y", "X1", ["X2", "X3"],
                                       data.SURFACE_GRID, data.SURFACE_GRID)
    sweep = partialreg.gamma_sweep(ds, "Y", "X1", "X2", data.SWEEP_GRID)
    return surface, sweep


def summarize_suite(reports) -> dict:
    return {"reports": [{"claim": r.claim, "lhs": list(r.lhs),
                         "rhs": list(r.rhs), "passed": r.passed}
                        for r in reports]}


def _grid_summary(result, samples) -> dict:
    values = dict(zip(result.points, result.values))
    return {"points": len(result.points),
            "undefined": len(result.undefined_points),
            "reference_slope": result.reference_slope,
            "roots": [list(root) for root in result.roots],
            "samples": [values.get(point) for point in samples]}


def summarize_gamma(result) -> dict:
    surface, sweep = result
    grid, line = data.SURFACE_GRID, data.SWEEP_GRID
    return {
        "surface": _grid_summary(surface, [(float(grid[i]), float(grid[j]))
                                           for i, j in data.SURFACE_SAMPLES]),
        "sweep": _grid_summary(sweep, [(float(line[i]),)
                                       for i in data.SWEEP_SAMPLES]),
    }


OPS = {"lib-suite": (op_suite, summarize_suite),
       "lib-gamma": (op_gamma, summarize_gamma)}


def _dataset(seed: int, n: int):
    return partialreg.Dataset(data.generate(seed, n))


def main(spec: dict) -> dict:
    op, summarize = OPS[spec["workload"]]
    clock = time.perf_counter

    setup_s = []
    for _ in range(spec["setup_repeats"]):
        start = clock()
        ds = None  # let the previous set-up's dataset go first
        ds = _dataset(spec["seed"], spec["n"])
        try:
            op(ds)
        except Exception:  # the timed ops fail the same way and report it
            pass
        setup_s.append(clock() - start)

    tracer = Tracer() if spec["trace"] else None
    ops = []

    def run_op(dataset, traced: bool, twin: bool = False) -> None:
        if traced:
            tracer.install()
            tracer.begin_op(len(ops))
        result, error = None, None
        start = clock()
        try:
            result = op(dataset)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            seconds = clock() - start
            if traced:
                tracer.uninstall()
        ops.append({"seconds": seconds, "traced": traced, "twin": twin,
                    "error": error,
                    "metrics": tracer.end_op() if traced else None,
                    "summary": None if error else summarize(result)})

    kernel_s = closed_loop(lambda traced: run_op(ds, traced),
                           spec["seconds"], tracer is not None,
                           spec["max_ops"])

    if tracer is not None:
        # One traced op on a second seed at the same size, to check that
        # the exact counts do not depend on the data.
        ds = None
        run_op(_dataset(spec["twin_seed"], spec["n"]), traced=True, twin=True)

    return {"setup_s": setup_s, "ops": ops, "kernel_s": kernel_s,
            "kernel_bytes": calibrate.RESIDENT_BYTES,
            "spans": tracer.spans if tracer is not None else []}


if __name__ == "__main__":
    json.dump(main(json.loads(sys.argv[1])), sys.stdout)
    sys.stdout.write("\n")
