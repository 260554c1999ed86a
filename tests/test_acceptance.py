"""End-to-end acceptance gates.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line on the real
stdout (visible even under capture) and then asserts.  The three recipe
fixtures are shared across criteria; together the tests train the full
benchmark grid, so the module takes a few minutes of CPU.
"""

import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from grouprobe import (
    BayesWeightInputs,
    BoundInputs,
    GroupDataSpec,
    LossWeights,
    OptimConfig,
    RunSpec,
    SelectionStrategy,
    TaskData,
    bayes_weight,
    make_balanced_test,
    normal_cdf,
    normal_cdf_inv,
    numeric_bayes_weight,
    project_l1,
    run_experiment,
    fit,
    sample_group_dataset,
    worst_group_error_bound,
)
from grouprobe.cli import run_grad_check
from grouprobe.evalsel import front_indices
from grouprobe.experiments import BENCH_DATA, recipe_config

from test_linmodel import brute_force_project_2d
from test_oracle import mp_worst_group_bound


def report(num: int, name: str, ok: bool, detail: str = "") -> str:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, file=sys.__stdout__, flush=True)
    return line


def _rows_by_tag(rows):
    return {r["tag"]: r for r in rows}


@pytest.fixture(scope="module")
def table2(tmp_path_factory):
    out = tmp_path_factory.mktemp("table2")
    t0 = time.monotonic()
    rows, _ = run_experiment(recipe_config("table2"), out)
    elapsed = time.monotonic() - t0
    return _rows_by_tag(rows), elapsed, out


@pytest.fixture(scope="module")
def fig3_rows():
    rows, _ = run_experiment(recipe_config("fig3"), None)
    return _rows_by_tag(rows)


@pytest.fixture(scope="module")
def baselines_rows():
    rows, _ = run_experiment(recipe_config("baselines"), None)
    return _rows_by_tag(rows)


class TestCriterion1:
    def test_budgeted_multitask_table(self, table2):
        rows, elapsed, _ = table2
        # end-only rows are read at the selected checkpoint, multitask rows at
        # the final epoch; the summary carries both views
        end01 = float(rows["end_only_tau0.1"]["test_wg_mean"])
        end10 = float(rows["end_only_tau10"]["test_wg_mean"])
        mtl01 = float(rows["reg_mtl_tau0.1"]["final_wg_mean"])
        mtl10 = float(rows["reg_mtl_tau10"]["final_wg_mean"])
        # each clause as (value, bound, margin): the margin is how far the
        # value may move toward the bound before the clause fails
        clauses = {
            "mtl01 >= 0.85": (mtl01, 0.85, mtl01 - 0.85),
            "mtl01 > end01": (mtl01, end01, mtl01 - end01),
            "end01 > end10": (end01, end10, end01 - end10),
            "mtl10 <= 0.20": (mtl10, 0.20, 0.20 - mtl10),
            "wall < 300s": (elapsed, 300.0, 300.0 - elapsed),
        }
        gates = [
            mtl01 >= 0.85,
            mtl01 > end01,
            end01 > end10,
            mtl10 <= 0.20,
            elapsed < 300.0,
        ]
        detail = "; ".join(f"{k}: value {v:.4f}, bound {b:.4f}, margin {m:+.4f}"
                           for k, (v, b, m) in clauses.items())
        ok = all(gates)
        report(1, "low-budget multitask lifts worst group", ok, detail)
        assert ok, clauses


class TestCriterion2:
    def test_budget_flips_featurizer_mass(self, fig3_rows):
        settings = [(lr, b) for lr in ("0.01", "0.001") for b in (64, 256)]
        neg_at_low = []
        pos_reachable_at_high = []
        for lr, b in settings:
            low = fig3_rows[f"aux_only_tau0.1_lr{lr}_b{b}"]
            high = fig3_rows[f"aux_only_tau10_lr{lr}_b{b}"]
            neg_at_low.append(float(low["log_ratio_mean"]) < 0.0)
            pos_reachable_at_high.append(float(high["log_ratio_max"]) >= 0.0)
        ok = sum(neg_at_low) >= 3 and sum(pos_reachable_at_high) >= 1
        report(2, "featurizer mass sign pattern", ok,
               f"tau=0.1 mean<0 in {sum(neg_at_low)}/4 settings, "
               f"tau=10 ratio>=0 reachable in {sum(pos_reachable_at_high)}/4")
        assert ok, (neg_at_low, pos_reachable_at_high)


class TestCriterion3:
    def test_end_only_leans_on_spurious_feature(self):
        # end-only training, scored on a held-out draw of the *training*
        # distribution (9:1 groups): high average, weak worst group
        spec = GroupDataSpec(**BENCH_DATA)
        held_out = sample_group_dataset(spec, 908)
        avgs, wgs = [], []
        for seed in range(5):
            train = sample_group_dataset(spec, [seed, 10])
            val = sample_group_dataset(replace(spec, n_maj=90, n_min=10), [seed, 11])
            task = TaskData(train, val, held_out)
            cfg = OptimConfig(learning_rate=0.001, batch_size=64, epochs=500, seed=seed)
            run = RunSpec(tag="erm", method="erm", optim=cfg, tau=10.0,
                          weights=LossWeights(lambda_l2=1.0))
            result = fit(run, task, SelectionStrategy.NO_GP)
            avgs.append(result.test_metrics.avg_acc)
            wgs.append(result.test_metrics.wg_acc)
        avg, wg = float(np.mean(avgs)), float(np.mean(wgs))
        ok = avg >= 0.85 and wg <= 0.70
        report(3, "plain training hides group failure", ok,
               f"avg {avg:.4f} (>=0.85), wg {wg:.4f} (<=0.70), 5-seed mean")
        assert ok, (avg, wg)


class TestCriterion4:
    def test_baseline_hierarchy(self, baselines_rows):
        wg = {tag: float(row["test_wg_mean"]) for tag, row in baselines_rows.items()}
        gates = [
            wg["group_dro"] >= wg["reg_mtl_tau0.1"],
            wg["reg_mtl_tau0.1"] >= wg["erm"],
            wg["jtt"] >= wg["erm"],
        ]
        ok = all(gates)
        report(4, "baseline worst-group ordering", ok,
               "wg: " + ", ".join(f"{k} {v:.4f}" for k, v in sorted(wg.items())))
        assert ok, wg


class TestCriterion5:
    def test_gradients_and_bayes_oracle(self):
        grad = run_grad_check(20, 0)
        rng = np.random.default_rng(2026)
        worst_gap = 0.0
        for i in range(10):
            inp = BayesWeightInputs(*(float(v) for v in rng.uniform(0.05, 2.0, size=4)))
            gap = abs(numeric_bayes_weight(inp, 1_000_000, [814, i]) - bayes_weight(inp))
            worst_gap = max(worst_gap, gap)
        ok = grad["pass"] and worst_gap < 0.01
        report(5, "analytic pieces match independent estimates", ok,
               f"max grad rel err {grad['max_relative_error']:.2e} (<=1e-5), "
               f"max bayes gap {worst_gap:.4f} (<0.01, 1e6 samples x10)")
        assert ok, (grad, worst_gap)


class TestCriterion6:
    def test_projection(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(100):
            v = rng.normal(0.0, 2.0, size=2)
            # radius below ||v||_1 so every case is a real boundary projection
            # (interior points are identity, covered by the unit suite)
            tau = float(rng.uniform(0.1, 0.95)) * float(np.abs(v).sum())
            worst = max(worst, float(np.max(np.abs(
                project_l1(v, tau) - brute_force_project_2d(v, tau)))))
        fuzz_ok = True
        for _ in range(10_000):
            d = int(rng.integers(1, 65))
            v = rng.normal(0.0, 3.0, size=d) * (10.0 ** rng.integers(-2, 3))
            tau = float(rng.uniform(0.01, 10.0))
            p = project_l1(v, tau)
            feasible = np.abs(p).sum() <= tau + 1e-9
            idem = np.allclose(project_l1(p, tau), p, atol=1e-12)
            if not (feasible and idem):
                fuzz_ok = False
                break
        ok = worst <= 1e-3 and fuzz_ok
        report(6, "simplex projection", ok,
               f"max gap to grid search {worst:.2e} (<=1e-3) over 100 cases; "
               f"feasible+idempotent on 10^4 fuzzed inputs up to d=64: {fuzz_ok}")
        assert ok


class TestCriterion7:
    def test_front_extraction(self):
        rng = np.random.default_rng(44)
        ok = True
        for _ in range(200):
            n = int(rng.integers(1, 1001))
            # mix of continuous and quantized draws so exact ties occur
            if rng.random() < 0.5:
                avg = rng.integers(0, 21, size=n) / 20.0
                wg = rng.integers(0, 21, size=n) / 20.0
            else:
                avg = rng.random(n)
                wg = rng.random(n)
            front = front_indices(avg, wg)
            got = {(float(a), float(w)) for a, w in zip(avg[front], wg[front])}
            ge_avg = avg[:, None] <= avg[None, :]
            ge_wg = wg[:, None] <= wg[None, :]
            strict = (avg[:, None] < avg[None, :]) | (wg[:, None] < wg[None, :])
            dominated = (ge_avg & ge_wg & strict).any(axis=1)
            want = {(float(a), float(w)) for a, w in zip(avg[~dominated], wg[~dominated])}
            if got != want:
                ok = False
                break
        report(7, "non-dominated filtering", ok,
               "matches O(n^2) dominance on 200 random sets, n up to 1000")
        assert ok


class TestCriterion8:
    def test_bound_calculators(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(50):
            inp = BoundInputs(
                gamma=float(rng.uniform(0.1, 3.0)),
                sigma_spur=float(rng.uniform(0.1, 2.0)),
                eta=float(rng.uniform(0.1, 3.0)),
                tau=float(rng.uniform(0.01, 5.0)),
                lam=float(rng.uniform(0.01, 5.0)),
                d_c=int(rng.integers(1, 6)),
                d_s=int(rng.integers(1, 6)),
            )
            worst = max(worst, abs(worst_group_error_bound(inp) - mp_worst_group_bound(inp)))
        range_ok = True
        for _ in range(1000):
            # bounded draw keeps the CDF argument clear of double underflow
            inp = BoundInputs(
                gamma=float(rng.uniform(0.5, 2.0)),
                sigma_spur=float(rng.uniform(0.5, 2.0)),
                eta=float(rng.uniform(0.1, 1.5)),
                tau=float(rng.uniform(0.05, 0.5)),
                lam=float(rng.uniform(0.05, 0.5)),
                d_c=int(rng.integers(1, 3)),
                d_s=int(rng.integers(1, 3)),
            )
            b = worst_group_error_bound(inp)
            if not 0.0 < b < 0.5:
                range_ok = False
                break
        round_ok = all(
            abs(normal_cdf(normal_cdf_inv(p)) - p) <= 1e-10
            for p in np.linspace(0.001, 0.999, 101)
        )
        ok = worst <= 1e-12 and range_ok and round_ok
        report(8, "closed-form bounds", ok,
               f"max gap to 50-digit reference {worst:.2e} (<=1e-12); "
               f"range (0,0.5) on 10^3 draws: {range_ok}; CDF roundtrip 1e-10: {round_ok}")
        assert ok


class TestCriterion9:
    def test_byte_identical_rerun(self, table2, tmp_path_factory):
        _, _, first_out = table2
        again = tmp_path_factory.mktemp("table2_again")
        run_experiment(recipe_config("table2"), again)
        same = (first_out / "summary.csv").read_bytes() == (again / "summary.csv").read_bytes()
        report(9, "recipe reruns are byte-identical", same,
               "table2 summary.csv compared across two runs")
        assert same
