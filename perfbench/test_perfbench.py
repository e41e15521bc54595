"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Every workload runs clean on two seeds and emits each end-to-end metric of
BENCHMARK.json with its unit; traced, it emits each per-layer metric with its
unit, and the layer self times plus ``cli.self_s`` account for the traced
job's wall time. Without the package source beside it the benchmark exits
non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--seconds", "1", "--scale", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-3000:]
    assert result["attempted"] >= 1
    return result


def units_of(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload, seed):
    result = result_of(bench("--workload", workload, "--seed", str(seed), "--trace", "0"))
    assert units_of(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_account_for_wall_time(workload):
    result = result_of(bench("--workload", workload, "--seed", "1", "--trace", "1"))
    metrics = result["metrics"]
    assert units_of(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    value = {name: m["value"] for name, m in metrics.items()}
    layers = sum(v for name, v in value.items()
                 if name.endswith(".self_s") and not name.startswith("cli."))
    wall = value["trace.wall_s"]
    assert layers > 0
    assert abs(layers + value["cli.self_s"] - wall) <= 0.05 * wall


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
