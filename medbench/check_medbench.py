"""The benchmark's own tests: tiny runs of each workload and of its gates.

Run from the repository root (the name keeps the suite out of the
repository's default test collection):

    PYTHONPATH=src python3 -m pytest -q medbench/check_medbench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
from medharness.runner import aggregate_votes  # noqa: E402
from workloads import vote  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
TINY = {
    "ladder_toy": {"n_test": 100},
    "knn_pool10k": {"n_pool": 300, "n_test": 10},
    "ensemble_http": {"n_test": 10},
}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_its_gate_and_reports_every_metric(name, trace):
    record = run.run(name, seed=5, seconds=0.1, trace=trace, **TINY[name])
    assert record["correct"], [p["gate"]["reason"] for p in record["passes"]]
    assert record["failed"] == 0 and record["attempted"] > 0
    line = run.report(record, UNITS)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(line["metrics"]) == sorted(m["name"] for m in wanted)
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values()), line["metrics"]
        return
    spans = [json.loads(s) for s in
             (run.STATE / "results" / f"{name}-seed5-trace1.spans.jsonl").read_text().splitlines()]
    answers = {s["id"]: s for s in spans if s["name"] == "runner.answer_item"}
    assert answers and all(s["item"] and s["parent"] for s in answers.values())
    parsed = [s for s in spans if s["name"] == "parsing.extract_answer" and s["parent"] in answers]
    assert parsed and all(s["item"] == answers[s["parent"]]["item"] for s in parsed)


def test_ensemble_gate_catches_an_answer_the_server_did_not_log(monkeypatch, capsys):
    real_run = run.run
    monkeypatch.setattr(run, "run", lambda *args, **kwargs: real_run(
        *args, n_test=10, unlogged_flips=1, **kwargs))
    code = run.main(["--workload", "ensemble_http", "--seed", "5", "--seconds", "0.1",
                     "--trace", "0"])
    captured = capsys.readouterr()
    assert code != 0
    assert '"metrics"' not in captured.out
    assert "gate failed" in captured.err and "server answered" in captured.err


def test_transport_failure_counts_as_failed_not_as_a_wrong_answer():
    record = run.run("ensemble_http", seed=5, seconds=0.1, trace=False,
                     n_test=10, fail_items=(3,), max_retries=0)
    assert record["correct"], [p["gate"]["reason"] for p in record["passes"]]
    assert record["failed"] == len(record["passes"])
    assert record["context"]["failed_share"] == pytest.approx(0.1)
    assert record["end_to_end"]["scored_share"] == pytest.approx(0.9)


def test_restated_vote_rule_matches_the_harness():
    rng = random.Random(7)
    for _ in range(2000):
        decisions = [rng.choice("ABCD") if rng.random() < 0.9 else "<invalid>"
                     for _ in range(rng.randint(1, 7))]
        assert vote(decisions) == aggregate_votes(decisions), decisions


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "medbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "medbench/run.py", "--workload", "ladder_toy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
