"""Smoke-size runs of every workload through the benchmark's own command.

Each run serves for one second per round, so the file takes a couple of
minutes; it checks the output contract, not the figures.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_is_correct_and_reports_every_end_to_end_metric(workload):
    completed = _run(ROOT, workload, trace=0)
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, completed.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] > 0
    names = {metric["name"] for metric in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    units = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name]
        assert entry["value"] > 0


def test_traced_run_reports_the_ledger():
    completed = _run(ROOT, "warn-routed", trace=1)
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, completed.stdout[-3000:]
    names = {metric["name"] for metric in SPEC["per_layer"]}
    assert set(result["metrics"]) == names
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["table.hit_ratio"] == 1.0
    assert metrics["wal.appends_per_event"] == 1.0
    assert metrics["client.self_us"] > 0 and metrics["router.forward_us"] > 0


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, "onboard-recover", trace=0)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
