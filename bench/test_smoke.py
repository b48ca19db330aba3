"""Smoke run of every workload at tiny shapes, traced and untraced.

    python -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The workloads' own metrics, printed on the detail lines before the result.
NAMED = {
    "curve": {"curve_s": "s", "curve_map": "ratio", "curve_precision_h2": "ratio",
              "curve_auc": "ratio"},
    "stream_train": {"stage_ms_p50": "ms", "stage_ms_p99": "ms",
                     "train_instances_per_s": "1/s", "stream_map": "ratio"},
    "cli_dense": {"synth_cmd_s": "s", "train_cmd_s": "s", "eval_cmd_s": "s", "eval_map": "ratio"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}


def run(workload, trace, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)
    return out


def result_of(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stderr
    named = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] == "#":
            named[fields[1]] = fields[3]
    return result, named


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, named = result_of(run(workload, 0))
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert named == {**COMMON, **NAMED[workload]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, _ = result_of(run(workload, 1))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["trainer.build_workspace.calls_per_stage"] == 6  # inner_iters + 1
    assert metrics["trainer.stages_completed_ratio"] == 1.0
    assert metrics["index.scans_per_query"] == (0 if workload == "stream_train" else 4)
    assert metrics["trace.spans"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run("stream_train", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
