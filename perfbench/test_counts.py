"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_counts.py

Every workload runs traced twice at one seed and every count must repeat
exactly; an op that raises unexpectedly must make the run incorrect.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import judge, run_pass  # noqa: E402
from speed import Clock  # noqa: E402
from workloads import Workload  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = result(workload, 1), result(workload, 1)
    assert first["correct"] and second["correct"]
    exact = [name for name, m in first["metrics"].items()
             if m["unit"] != "s" and name != "trace.overhead"]
    assert exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


def test_untraced_run_reports_nonzero_metrics():
    out = result("sim-repeat", 0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert all(m["value"] > 0 for m in out["metrics"].values())


class Raising(Workload):
    """Two ops, the second of which raises."""

    def __init__(self, expected_raises=frozenset()):
        self.expected_raises = expected_raises
        self.ops = [("ok", lambda: 1), ("bad", lambda: 1 // 0)]

    def summarize(self, label, result):
        return [result], {}

    def check(self, fps, frozen):
        return {}


@pytest.mark.parametrize("expected", [frozenset(), frozenset({"bad"})])
def test_an_op_that_raises_is_failed_and_wrong_unless_expected(expected):
    workload = Raising(expected)
    with Clock() as clock:
        passes = [run_pass(workload, clock), run_pass(workload, clock)]
    problems, attempted, failed = judge(workload, passes, None)
    assert (attempted, failed) == (4, 2)
    assert bool(problems) == (not expected)
    assert set(problems) <= {"bad"}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run("sim-repeat", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
