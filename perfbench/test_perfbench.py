"""Smoke tests for the benchmark: a tiny-size run of every workload, in both
modes, emits every metric declared in BENCHMARK.json with its unit."""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@functools.lru_cache(maxsize=None)
def tiny_result(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    result = tiny_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] >= 0


def test_traced_counts_repeat_across_runs():
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first = tiny_result("wide-su21", 1)["metrics"]
    proc = run_bench(ROOT, "wide-su21", 1)
    assert proc.returncode == 0, proc.stderr
    again = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert {k: first[k]["value"] for k in counts} == {k: again[k]["value"] for k in counts}
    assert first["moser.field_calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "wide-su21", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
