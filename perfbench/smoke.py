"""Smoke test of the benchmark itself, at tiny workload sizes.

    python3 -m pytest -q perfbench/smoke.py

Not collected by a plain ``pytest`` run (the file name does not match
``test_*.py``), because it starts a few dozen short training processes.
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
SESSION_CHECKS = {"finite_loss", "accuracy", "nmi", "reached_acc95", "gradcheck"}
SEED = 7


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_workloads():
    sys.path.insert(0, str(HERE))
    import workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_and_checks(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    record = json.loads((HERE / "results" / workload / f"seed{SEED}-trace{trace}.json").read_text())
    full = [s for s in record["sessions"] if s["epochs"] > 0]
    assert full and all(SESSION_CHECKS <= set(s["checks"]) for s in full)
    assert all(s["checks"]["gradcheck_max_err"] <= 1e-5 for s in full)
    if workload == "desk":
        assert any(s["checks"].get("replay") is True for s in full)
    if trace:
        assert {s["traced"] for s in full} == {False, True}
        assert list((HERE / "results" / workload).glob(f"seed{SEED}-trace1-s*.spans.json"))


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark present it exits non-zero, silently."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(tmp_path, "desk", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
