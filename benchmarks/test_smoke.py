"""Reduced-size smoke test of the benchmark harness.

Run with ``python3 -m pytest benchmarks/test_smoke.py``.  Each workload runs
one short cycle of its first two cases, untraced and traced; the result must
name every metric of ``BENCHMARK.json`` with its unit, and no case may fail.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0.1",
         "--trace", str(trace), "--max-cases", "2"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["details"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert details["failed_share"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert trace or metric["value"] > 0, name
    for name in ("workload", "seed", "held_out_seed", "python", "numpy", "blas",
                 "nproc", "cpu_model", "source_sha256"):
        assert name in details or name in details["environment"], name
    if workload == "sampled-builtins" and not trace:
        assert details["trajectories_per_s"] > 0
    if trace:
        assert details["reason_check"]["claim"]
        assert result["metrics"]["linalg.hermitian_eig.calls"]["value"] >= 1


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark, it exits non-zero, silently."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
