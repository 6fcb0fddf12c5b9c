"""Each benchmark workload, run once at its smallest size: a failed run,
an artifact that fails its check or a traced ``expects`` failure shows here
before a timed benchmark run. The baseline digest note is not asserted:
``tests/test_golden.py`` pins the output bytes. Each run works in a copy of
``bench/``, ``src/`` and ``BENCHMARK.json``, so its traces and scratch files
stay out of the checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_runs_and_is_correct(workload, tmp_path):
    skip = shutil.ignore_patterns("__pycache__")
    for tree in ("bench", "src"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
