"""Self-tests of the benchmark: ``python3 -m pytest -q bench``."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _report(scenario: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from steinsurf.scenario import run_scenario

    return run_scenario(scenario).to_json()


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 2 * len(workloads.GENERATORS)


def test_same_seed_same_scenario():
    for name in workloads.GENERATORS:
        assert workloads.build(name, 7, "tiny") == workloads.build(name, 7, "tiny")
        assert workloads.build(name, 7, "tiny") != workloads.build(name, 8, "tiny")


def test_oracle_flags_tampered_reports():
    scenario = workloads.build("calculus-batch", 3, "tiny")
    report = _report(scenario)
    assert oracle.verify(scenario, report)[0] == []

    def first(r, kind, key):
        return next(res["details"] for t, res in zip(scenario["tasks"], r["tasks"])
                    if t["task"] == kind and key in res["details"])

    edits = [
        lambda r: first(r, "check", "verdict")["verdict"].update(rule="gray"),
        lambda r: first(r, "check", "index")["index"].update(total=99),
        lambda r: first(r, "replay", "trace")["trace"][0]["result"].update(normal_euler=99),
        lambda r: first(r, "plan", "recipe")["recipe"]["steps"].pop(),
        lambda r: r["tasks"].pop(),
    ]
    for edit in edits:
        tampered = copy.deepcopy(report)
        edit(tampered)
        assert oracle.verify(scenario, tampered)[0]


def test_oracle_flags_a_failing_local_check():
    scenario = workloads.build("grid-certify", 3, "tiny")
    report = _report(scenario)
    assert oracle.verify(scenario, report)[0] == []
    report["tasks"][0]["details"]["checks"][1]["certificate"]["witnesses"][0]["value"] = -1e-3
    assert oracle.verify(scenario, report)[0]


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: exit non-zero, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid-certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
