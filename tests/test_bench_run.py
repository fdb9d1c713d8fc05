"""Each benchmark workload runs once, set-up, command and output check, on
a copy of the checkout, so that a library change that breaks the benchmark
fails here and leaves the checkout's `.bench_work/` alone."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_correct(tmp_path, workload):
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-4000:]
