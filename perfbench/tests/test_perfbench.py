"""Tests of the benchmark itself, at the smoke size (n = 1000, a few ops).

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import EXACT_COUNTS  # noqa: E402

ALL_WORKLOADS = tuple(workloads.SIZES)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(*args: str, cwd: Path = ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    done = run_benchmark("--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if not trace:
        assert "failed_frac" in done.stdout


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_wrong_reference_fails_every_op(workload):
    result = workloads.run_workload(workload, seed=4, seconds=1, trace=False,
                                    smoke=True, bias=1e-6)
    assert result.ops
    assert all(op.error is not None for op in result.ops)
    assert workloads.end_to_end(result)["failed_frac"][0] == 1.0


def test_times_are_scaled_to_the_reference_host_speed():
    # On a host at half the reference speed the kernel takes twice its
    # reference time, and the reported times are halved.
    slow = 2 * calibrate.REFERENCE_S
    result = workloads.RunResult(
        "lib-gamma", 1000, setup_s=[0.8],
        ops=[workloads.Op(1.0, None), workloads.Op(1.2, None)],
        kernel_s=[slow, slow, 3 * slow])
    metrics = {name: value for name, (value, _, _)
               in workloads.end_to_end(result).items()}
    assert metrics["op_p50_s"] == pytest.approx(0.55)
    assert metrics["ops_per_s"] == pytest.approx(2 / 1.1)
    assert metrics["setup_s"] == pytest.approx(0.4)
    assert metrics["op_p50_wall_s"] == pytest.approx(1.1)
    assert metrics["kernel_p50_s"] == pytest.approx(slow)


def test_exact_counts_repeat_across_ops_and_seeds():
    runs = []
    for seed in (5, 6):
        result = workloads.run_workload("lib-suite", seed, seconds=1,
                                        trace=True, smoke=True)
        assert result.count_errors == []
        assert all(op.error is None for op in result.ops)
        runs.append({name: value for name, (value, _, _)
                     in workloads.per_layer(result).items()})
    assert ({key: runs[0][key] for key in EXACT_COUNTS}
            == {key: runs[1][key] for key in EXACT_COUNTS})
    # Seed values of one run_verification_suite op with two controls.
    assert runs[0]["ols.fit_calls"] == 9
    assert runs[0]["ols.fit_simple_calls"] == 1
    assert runs[0]["ols.decompositions"] == 19
    assert runs[0]["ols.designs_per_fit"] == pytest.approx(6 / 9)
    assert runs[0]["dataset.build_calls"] == 3
    assert runs[0]["stats.column_passes"] == 23


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = run_benchmark("--workload", "lib-gamma", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_refuses_more_blas_threads_than_processors():
    # OpenBLAS caps its own count at the processors, so the refusal is
    # checked on the stamp rather than by starting a run.
    assert run.oversubscribed({"blas_threads": 3, "nproc": 2})
    assert run.oversubscribed({"blas_threads": 2, "nproc": 2}) is None
    assert run.oversubscribed({"blas_threads": None, "nproc": 2}) is None
