"""Self-test of the benchmark's output check.

Run from the repository root:  python3 -m pytest -q bench/test_check.py

Each test runs real passes of one workload at the smallest run length and
corrupts their outputs between the pass and the check, then confirms the
corruption is counted as failed units and in check.fail_frac.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import run  # noqa: E402


@pytest.fixture(autouse=True)
def one_short_pass(monkeypatch):
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "REPS_PER_PASS", 1)


def _each_rep(result, edit):
    for rep in (result or {}).get("reps", []):
        edit(Path(rep["out"]))


def test_clean_run_has_no_failures():
    res = run.measure("data-io", 1, 0, trace=True)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert res["metrics"]["check.fail_frac"]["value"] == 0.0
    assert res["metrics"]["check.bytes_identical"]["value"] > 0


def test_corrupted_eval_output_counts_in_fail_frac():
    def corrupt(spec, result):
        def edit(d):
            out = d / "eval_csv.out"
            doc = json.loads(out.read_text())
            doc["avg_acc"] = 0.5 * doc["avg_acc"]
            out.write_text(json.dumps(doc, indent=1) + "\n")
        _each_rep(result, edit)

    res = run.measure("data-io", 1, 0, trace=True, after_pass=corrupt)
    assert not res["correct"] and res["failed"] > 0
    assert res["metrics"]["check.fail_frac"]["value"] > 0
    assert any("eval_csv" in line for line in res["report"] if line.startswith("FAILED"))


def test_summary_outside_unit_interval_fails_without_a_reference():
    seed = 987654  # no recorded reference: only the invariants apply
    assert str(seed) not in run.load_reference("train-serial")

    def corrupt(spec, result):
        def edit(d):
            path = d / "table2" / "summary.csv"
            lines = path.read_text().splitlines()
            header = lines[0].split(",")
            row = lines[1].split(",")
            row[header.index("test_wg_mean")] = "1.5"
            path.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
        _each_rep(result, edit)

    res = run.measure("train-serial", seed, 0, trace=False, after_pass=corrupt)
    assert not res["correct"]
    assert res["failed"] == 1  # the one run whose summary row broke


def test_pooled_sweep_must_match_the_serial_run():
    def corrupt(spec, result):
        if Path(spec["out"]).name == "pass00":
            return  # the serial reference pass itself

        def edit(d):
            trace = d / "traces" / "cell0000_seed1.csv"
            trace.write_text(trace.read_text().replace("0.", "1.", 1))
        _each_rep(result, edit)

    res = run.measure("sweep-pooled", 1, 0, trace=False, after_pass=corrupt)
    assert not res["correct"]
    assert any("determinism" in line for line in res["report"] if line.startswith("FAILED"))


def test_metrics_check_catches_a_wrong_worst_group():
    good = {"avg_acc": 0.9, "wg_acc": 0.5, "per_group_acc": [0.95, 0.95, 0.5, 0.6]}
    assert check._metrics_problem(good) is None
    assert check._metrics_problem(dict(good, wg_acc=0.95)) is not None
    assert check._metrics_problem(dict(good, avg_acc=0.4)) is not None
    assert check._metrics_problem(dict(good, per_group_acc=[1.5, 0.95, 0.5, 0.6])) is not None


def test_front_check_matches_brute_force():
    import random

    rng = random.Random(0)
    for _ in range(200):
        pts = [(rng.choice((0.1, 0.2, 0.3)), rng.choice((0.1, 0.2, 0.3))) for _ in range(8)]
        front = sorted((p for p in pts if not any(
            q[0] >= p[0] and q[1] >= p[1] and q != p for q in pts)), key=lambda p: -p[0])
        assert check._front_problem(pts, front) is None
        if len(front) > 1:
            assert check._front_problem(pts, front[1:]) is not None
        dominated = [p for p in pts if p not in front]
        if dominated:
            assert check._front_problem(pts, front + dominated[:1]) is not None
