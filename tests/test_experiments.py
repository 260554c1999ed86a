import copy
import csv
import dis
import functools
import json
import math
import os
import types
from concurrent.futures import Future

import numpy as np
import pytest

import grouprobe.optim
from grouprobe import (
    ConfigError,
    DivergedError,
    ExperimentConfig,
    GroupDroConfig,
    JttConfig,
    SweepGrid,
    recipe_config,
    run_experiment,
    run_sweep,
)
from grouprobe import experiments
from grouprobe.evalsel import PARETO_CSV_COLUMNS
from grouprobe.experiments import (
    RECIPES,
    SUMMARY_COLUMNS,
    SWEEP_RECIPES,
    n_workers,
)

TINY_DATA = {"d_c": 1, "d_s": 1, "sigma2_core": 0.6, "sigma2_spur": 0.1,
             "n_maj": 60, "n_min": 20, "sigma2_noise": 1.0}


def tiny_config(**overrides) -> dict:
    doc = {
        "schema": 1,
        "name": "tiny",
        "data": dict(TINY_DATA),
        "val": {"n_maj": 20, "n_min": 8},
        "test": {"n_per_group": 25, "seed": 99},
        "selection": "no_gp",
        "seeds": [0, 1],
        "runs": [
            {"tag": "erm", "method": "erm",
             "optim": {"learning_rate": 0.01, "batch_size": 16, "epochs": 4},
             "weights": {"lambda_l2": 1.0}},
            {"tag": "mtl", "method": "reg_mtl", "tau": 0.5,
             "optim": {"learning_rate": 0.01, "batch_size": 16, "epochs": 4},
             "weights": {"alpha_aux": 1.0, "lambda_l2": 1.0}},
        ],
    }
    doc.update(overrides)
    return doc


def tiny_sweep(**overrides) -> dict:
    doc = {
        "schema": 1,
        "name": "tinysweep",
        "data": dict(TINY_DATA),
        "val": {"n_maj": 20, "n_min": 8},
        "test": {"n_per_group": 25, "seed": 99},
        "selection": "no_gp",
        "seeds": [0],
        "method": "reg_mtl",
        "base": {"epochs": 3, "lambda_l2": 1.0},
        "grid": {
            "alpha_aux": [0.5, 1.0],
            "alpha_reg": [0.0],
            "tau": [0.5],
            "learning_rate": [0.01],
            "batch_size": [16, 32],
        },
    }
    doc.update(overrides)
    return doc


def _edited(doc: dict, fn) -> dict:
    out = copy.deepcopy(doc)
    fn(out)
    return out


class TestConfigParsing:
    def test_round_trip_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config()))
        cfg = ExperimentConfig.load(path)
        assert cfg.name == "tiny"
        assert cfg.seeds == (0, 1)
        assert [r.tag for r in cfg.runs] == ["erm", "mtl"]
        assert ExperimentConfig.load(cfg) is cfg

    @pytest.mark.parametrize("breaker", [
        lambda d: d.update(schema=2),
        lambda d: d.update(bogus=1),
        lambda d: d.pop("runs"),
        lambda d: d.update(runs=[]),
        lambda d: d.update(seeds=[]),
        lambda d: d.update(seeds=[1, 1]),
        lambda d: d.update(seeds=[1, -2]),
        lambda d: d.update(seeds="0"),
        lambda d: d.update(selection="best"),
        lambda d: d["data"].update(mystery=3),
        lambda d: d["data"].pop("n_maj"),
        lambda d: d["data"].update(n_maj=61),
        lambda d: d["val"].pop("n_min"),
        lambda d: d["test"].update(n_per_group=0),
        lambda d: d["runs"][0].update(tag=d["runs"][1]["tag"]),
        lambda d: d["runs"][0].update(tag="bad tag/with spaces"),
        lambda d: d["runs"][0].update(method="boosting"),
        lambda d: d["runs"][0]["optim"].update(seed=7),
        lambda d: d["runs"][0]["optim"].pop("epochs"),
        lambda d: d["runs"][0]["optim"].update(learning_rate=0.0),
        lambda d: d["runs"][0]["weights"].update(dropout=0.5),
        lambda d: d["runs"][0].update(tau=-1.0),
        lambda d: d["runs"][0].update(l1_boundary=True),         # no tau on this run
        lambda d: d["runs"][0].update(jtt={"upweight": 2.0}),     # jtt block on erm
        lambda d: d["runs"][1].update(group_dro={"group_step": 0.1}),
        lambda d: d["runs"][0]["weights"].update(alpha_aux=1.0),  # aux weight on erm
        lambda d: d.update(seeds=[True]),
    ])
    def test_rejects_bad_documents(self, breaker):
        with pytest.raises(ConfigError):
            ExperimentConfig.load(_edited(tiny_config(), breaker))

    # each of these loaded with true as 1 and false as 0
    @pytest.mark.parametrize("breaker", [
        lambda d: d["test"].update(n_per_group=True),
        lambda d: d["test"].update(seed=False),
        lambda d: d["val"].update(n_min=False),
        lambda d: d["data"].update(d_c=True),
        lambda d: d["data"].update(sigma2_noise=False),
        lambda d: d["runs"][0]["optim"].update(batch_size=True),
        lambda d: d["runs"][0]["optim"].update(momentum=False),
        lambda d: d["runs"][0]["weights"].update(lambda_l2=True),
        lambda d: d["runs"][1].update(tau=True),
        lambda d: d["runs"][0].update(method="jtt", jtt={"id_epochs": True}),
        lambda d: d["runs"][0].update(method="group_dro", group_dro={"group_step": True}),
    ])
    def test_rejects_json_booleans_as_numbers(self, breaker):
        with pytest.raises(ConfigError, match="must be a number, got (true|false)"):
            ExperimentConfig.load(_edited(tiny_config(), breaker))

    # each of these loaded, coerced to another value
    @pytest.mark.parametrize("breaker,field", [
        (lambda d: d["runs"][1].update(l1_boundary="false"), r"runs\[1\]\.l1_boundary"),
        (lambda d: d["test"].update(seed=1.5), r"test\.seed"),
        (lambda d: d["test"].update(n_per_group=25.9), r"test\.n_per_group"),
        (lambda d: d.update(schema=True), "schema"),
    ], ids=["l1_boundary-string", "test-seed-float",
            "test-size-float", "schema-true"])
    def test_rejects_coercible_values(self, breaker, field):
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            ExperimentConfig.load(_edited(tiny_config(), breaker))

    def test_integer_fields_load_up_to_int64(self):
        # the largest values the type check takes; loaded only, never trained
        doc = tiny_config()
        doc["data"].update(n_maj=2**63 - 2)
        doc["test"].update(n_per_group=2**63 - 1)
        cfg = ExperimentConfig.load(doc)
        assert cfg.data.n_maj == 2**63 - 2 and cfg.test_n_per_group == 2**63 - 1

    def test_test_seed_has_no_upper_bound(self):
        # a seed is SeedSequence entropy, as the run seeds are
        doc = tiny_config(runs=tiny_config()["runs"][:1], seeds=[2**64 + 5])
        doc["test"]["seed"] = 2**64
        doc["runs"][0]["optim"]["epochs"] = 1
        cfg = ExperimentConfig.load(doc)
        assert (cfg.test_seed, cfg.seeds) == (2**64, (2**64 + 5,))
        test = experiments.make_balanced_test(cfg.data, cfg.test_n_per_group, cfg.test_seed)
        assert len(test) == 4 * 25
        assert not np.array_equal(
            test.features, experiments.make_balanced_test(cfg.data, 25, 2**64 + 1).features)
        _, records = run_experiment(doc, None)
        assert [(r["tag"], r["seed"]) for r in records] == [("erm", 2**64 + 5)]

    def test_values_kept_as_written(self):
        doc = _edited(tiny_config(), lambda d: d["runs"][1]["optim"].update(learning_rate=1))
        cfg = ExperimentConfig.load(doc)
        assert type(cfg.runs[1].optim.learning_rate) is float
        assert cfg.val.n_maj == 20 and cfg.val.sigma2_core == cfg.data.sigma2_core

    def test_annotations_resolved_once_per_class(self, monkeypatch):
        seen = []
        real = experiments.get_type_hints
        monkeypatch.setattr(experiments, "get_type_hints", lambda cls: seen.append(cls) or real(cls))
        experiments._fields.cache_clear()
        for _ in range(2):
            ExperimentConfig.load(tiny_config())
            SweepGrid.load(tiny_sweep())
        assert seen and len(seen) == len(set(seen))

    def test_aux_only_rejects_alpha_aux(self):
        doc = tiny_config(runs=[{
            "tag": "aux", "method": "aux_only", "tau": 0.5,
            "optim": {"learning_rate": 0.01, "batch_size": 16, "epochs": 4},
            "weights": {"alpha_aux": 2.0},
        }])
        with pytest.raises(ConfigError):
            ExperimentConfig.load(doc)

    def test_boundary_defaults(self):
        doc = tiny_config(runs=[
            {"tag": "aux", "method": "aux_only", "tau": 0.5,
             "optim": {"learning_rate": 0.01, "batch_size": 16, "epochs": 4}},
            {"tag": "erm", "method": "erm", "tau": 0.5,
             "optim": {"learning_rate": 0.01, "batch_size": 16, "epochs": 4}},
        ])
        cfg = ExperimentConfig.load(doc)
        assert cfg.runs[0].l1_boundary is True
        assert cfg.runs[1].l1_boundary is False

    def test_method_block_defaults(self):
        doc = tiny_config(runs=[
            {"tag": "jtt", "method": "jtt",
             "optim": {"learning_rate": 0.01, "batch_size": 16, "epochs": 40}},
            {"tag": "dro", "method": "group_dro",
             "optim": {"learning_rate": 0.01, "batch_size": 16, "epochs": 4}},
        ])
        cfg = ExperimentConfig.load(doc)
        assert cfg.runs[0].jtt.id_epochs == 4   # epochs // 10
        assert cfg.runs[0].jtt.upweight == 5.0
        assert cfg.runs[1].group_dro.group_step == 0.01


class TestRecipes:
    def test_catalogue(self):
        assert set(RECIPES) == {"table2", "fig3", "baselines", "pareto-default"}
        assert SWEEP_RECIPES == {"pareto-default"}

    def test_unknown_recipe(self):
        with pytest.raises(ConfigError):
            recipe_config("table9")

    @pytest.mark.parametrize("name", ["table2", "fig3", "baselines"])
    def test_training_recipes_parse(self, name):
        cfg = ExperimentConfig.load(recipe_config(name))
        assert cfg.name == name
        assert cfg.seeds == (0, 1, 2, 3, 4)
        assert cfg.data.n_maj == 900 and cfg.data.n_min == 100
        assert cfg.test_n_per_group == 250

    def test_table2_structure(self):
        cfg = ExperimentConfig.load(recipe_config("table2"))
        tags = [r.tag for r in cfg.runs]
        assert tags == ["end_only_tau0.1", "end_only_tau10",
                        "reg_mtl_tau0.1", "reg_mtl_tau10"]
        assert {r.method for r in cfg.runs} == {"erm", "reg_mtl"}
        assert cfg.selection.value == "no_gp"
        for r in cfg.runs:
            if r.method == "reg_mtl":
                assert r.weights.alpha_aux == 10.0
                assert r.optim.learning_rate == 0.01

    def test_fig3_structure(self):
        cfg = ExperimentConfig.load(recipe_config("fig3"))
        assert len(cfg.runs) == 8  # {0.1, 10} x {1e-2, 1e-3} x {64, 256}
        assert all(r.method == "aux_only" and r.l1_boundary for r in cfg.runs)
        assert sorted({r.tau for r in cfg.runs}) == [0.1, 10.0]

    def test_baselines_structure(self):
        cfg = ExperimentConfig.load(recipe_config("baselines"))
        assert [r.method for r in cfg.runs] == ["erm", "jtt", "group_dro", "reg_mtl"]
        assert cfg.selection.value == "val_gp"

    def test_pareto_recipe_is_sweep(self):
        grid = SweepGrid.load(recipe_config("pareto-default"))
        assert len(grid.cells) == 3 * 3 * 1 * 2 * 2


class TestRunExperiment:
    @pytest.fixture()
    def run_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GROUPROBE_WORKERS", "1")
        out = tmp_path / "out"
        rows, records = run_experiment(tiny_config(), out)
        return out, rows, records

    def test_artifacts_exist(self, run_once):
        out, rows, records = run_once
        assert (out / "summary.csv").exists()
        for tag in ("erm", "mtl"):
            for seed in (0, 1):
                assert (out / "runs" / f"{tag}_seed{seed}.json").exists()
                assert (out / "traces" / f"{tag}_seed{seed}.csv").exists()
                assert (out / "params" / f"{tag}_seed{seed}.json").exists()
        assert not list(out.rglob("*.tmp"))

    def test_summary_shape(self, run_once):
        out, rows, records = run_once
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == ",".join(SUMMARY_COLUMNS)
        assert len(lines) == 1 + 2
        assert len(records) == 4

    def test_summary_matches_run_files(self, run_once):
        out, rows, records = run_once
        for row in rows:
            vals = []
            for seed in (0, 1):
                payload = json.loads((out / "runs" / f"{row['tag']}_seed{seed}.json").read_text())
                vals.append(payload["test_metrics"]["avg_acc"])
            assert float(row["test_avg_mean"]) == pytest.approx(np.mean(vals), abs=1e-12)
            assert float(row["test_avg_std"]) == pytest.approx(np.std(vals), abs=1e-12)
            assert int(row["n_seeds"]) == 2

    def test_rerun_byte_identical(self, run_once, tmp_path, monkeypatch):
        out, _, _ = run_once
        monkeypatch.setenv("GROUPROBE_WORKERS", "1")
        again = tmp_path / "again"
        run_experiment(tiny_config(), again)
        assert (out / "summary.csv").read_bytes() == (again / "summary.csv").read_bytes()

    def test_worker_count_does_not_change_results(self, run_once, tmp_path, monkeypatch):
        out, _, _ = run_once
        monkeypatch.setenv("GROUPROBE_WORKERS", "2")
        par = tmp_path / "par"
        run_experiment(tiny_config(), par)
        assert (out / "summary.csv").read_bytes() == (par / "summary.csv").read_bytes()
        for f in sorted((out / "runs").iterdir()):
            assert f.read_bytes() == (par / "runs" / f.name).read_bytes()

    def test_records_are_the_run_files(self, run_once):
        out, rows, records = run_once
        assert [(r["tag"], r["seed"]) for r in records] == [
            (tag, seed) for tag in ("erm", "mtl") for seed in (0, 1)]
        for r in records:
            text = (out / "runs" / f"{r['tag']}_seed{r['seed']}.json").read_text()
            assert r == json.loads(text)
            assert json.dumps(r, indent=1) + "\n" == text

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        """A writer that raises after writing part of its file leaves neither
        `<name>.tmp` nor a new file, the old file untouched, and its own
        error propagates."""
        path = tmp_path / "front.csv"
        path.write_text("old\n")
        error = UnicodeEncodeError("ascii", "\u00e9", 0, 1, "ordinal not in range(128)")

        def writer(tmp):
            tmp.write_text("partial")
            raise error

        with pytest.raises(UnicodeEncodeError) as exc:
            experiments.atomic_via_tmp(path, writer)
        assert exc.value is error
        assert sorted(p.name for p in tmp_path.iterdir()) == ["front.csv"]
        assert path.read_text() == "old\n"

    def test_no_out_dir(self, monkeypatch):
        monkeypatch.setenv("GROUPROBE_WORKERS", "1")
        rows, records = run_experiment(tiny_config(), None)
        assert len(rows) == 2 and len(records) == 4

    def test_aux_only_echoes_no_gp_under_val_gp(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GROUPROBE_WORKERS", "1")
        doc = tiny_config(selection="val_gp", seeds=[0], runs=[{
            "tag": "aux", "method": "aux_only", "tau": 0.5,
            "optim": {"learning_rate": 0.01, "batch_size": 16, "epochs": 2},
        }])
        _, records = run_experiment(doc, tmp_path)
        echo = json.loads((tmp_path / "runs" / "aux_seed0.json").read_text())["config"]
        assert echo["selection"] == records[0]["config"]["selection"] == "no_gp"

    def test_log_ratio_columns(self, run_once):
        out, rows, records = run_once
        by_tag = {r["tag"]: [float(x["log_ratio"]) for x in records if x["tag"] == r["tag"]]
                  for r in rows}
        for row in rows:
            cell = by_tag[row["tag"]]
            assert float(row["log_ratio_max"]) == pytest.approx(max(cell), abs=1e-12)


class TestSplitMemo:
    RUNS = [
        {"tag": "erm", "method": "erm",
         "optim": {"learning_rate": 0.01, "batch_size": 16, "epochs": 1},
         "weights": {"lambda_l2": 1.0}},
    ] + [
        {"tag": f"mtl{i}", "method": "reg_mtl", "tau": 0.5,
         "optim": {"learning_rate": 0.01, "batch_size": 16, "epochs": 1},
         "weights": {"alpha_aux": 1.0, "lambda_l2": 1.0}}
        for i in range(2)
    ]

    def _splits(self, monkeypatch, **overrides):
        """Run one seed of an erm cell and two reg_mtl cells; return the
        task splits and aux sets each cell trained on."""
        seen = []
        real = experiments.fit_lanes

        def recording(jobs, selector):
            seen.extend((task, aux if run.method == "reg_mtl" else None)
                        for run, task, aux, _ in jobs)
            return real(jobs, selector)

        monkeypatch.setattr(experiments, "fit_lanes", recording)
        monkeypatch.setenv("GROUPROBE_WORKERS", "1")
        run_experiment(tiny_config(**{"runs": self.RUNS, "seeds": [0], **overrides}), None)
        assert len(seen) == 3
        return seen

    def test_cells_of_one_seed_share_splits(self, monkeypatch):
        (task, _), (task1, aux1), (task2, aux2) = self._splits(monkeypatch)
        assert task is task1 is task2
        assert aux1 is aux2
        for arr in (task.train.features, task.val.labels, task.test.group_ids, aux1.noised):
            assert not arr.flags.writeable

    def test_other_seed_test_seed_or_val_size_get_their_own(self, monkeypatch):
        base, _ = self._splits(monkeypatch)[0]
        seed, _ = self._splits(monkeypatch, seeds=[1])[0]
        test_seed, _ = self._splits(monkeypatch, test={"n_per_group": 25, "seed": 98})[0]
        val_size, _ = self._splits(monkeypatch, val={"n_maj": 22, "n_min": 8})[0]
        assert not np.array_equal(seed.train.features, base.train.features)
        assert not np.array_equal(test_seed.test.features, base.test.features)
        assert np.array_equal(test_seed.train.features, base.train.features)
        assert (len(val_size.val), len(base.val)) == (30, 28)
        assert len({id(t) for t in (base, seed, test_seed, val_size)}) == 4

    def test_each_seed_sampled_once_per_chunk(self, monkeypatch):
        """A serial chunk walks the seeds cell by cell; however many seeds
        it holds, each is sampled once (train and val sets: the aux set
        reuses the train features) and the test set once."""
        calls = {"sample_group_dataset": 0, "make_balanced_test": 0}
        for name in calls:
            real = getattr(experiments, name)

            def counting(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(experiments, name, counting)
        monkeypatch.setenv("GROUPROBE_WORKERS", "1")
        run_experiment(tiny_config(runs=self.RUNS, seeds=list(range(9))), None)
        assert calls == {"sample_group_dataset": 18, "make_balanced_test": 1}


_RUN_LANES = experiments._run_lanes


def _logging_run_lanes(log, cfg, jobs, out_dir):
    # module level, so that the pool can pickle it: appends "<pid> <jobs>"
    with open(log, "a") as f:
        f.write(f"{os.getpid()} {len(jobs)}\n")
    return _RUN_LANES(cfg, jobs, out_dir)


@pytest.fixture
def inline_pools(monkeypatch) -> list[int]:
    """Stand in for the process pool with one that runs each job at submit,
    in this process; returns the pool size each pool was asked for."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    return sizes


class TestLaneGroups:
    """run_experiment trains each chunk of (cell, seed) jobs through one
    optim.train call, which runs the jobs that can share a step as the lanes
    of one loop, with no change to any run."""

    # three reg_mtl cells that differ in every per-lane setting (learning
    # rate, tau and its mode, loss weights) but share the zero pattern of
    # alpha_aux and alpha_reg, plus a jtt cell, whose first stages train in
    # a `train` call of their own and whose second stages share a group
    RUNS = [
        {"tag": "mtl_ball", "method": "reg_mtl", "tau": 0.5,
         "optim": {"learning_rate": 0.01, "batch_size": 16, "epochs": 3},
         "weights": {"alpha_aux": 1.0, "alpha_reg": 0.1, "lambda_l2": 1.0}},
        {"tag": "mtl_free", "method": "reg_mtl",
         "optim": {"learning_rate": 0.05, "batch_size": 16, "epochs": 3},
         "weights": {"alpha_aux": 2.5, "alpha_reg": 0.5, "lambda_l2": 0.0}},
        {"tag": "mtl_sphere", "method": "reg_mtl", "tau": 0.2, "l1_boundary": True,
         "optim": {"learning_rate": 0.001, "batch_size": 16, "epochs": 3},
         "weights": {"alpha_aux": 0.3, "alpha_reg": 1.0, "lambda_l2": 0.5}},
        {"tag": "jtt", "method": "jtt",
         "optim": {"learning_rate": 0.01, "batch_size": 32, "epochs": 3},
         "weights": {"lambda_l2": 1.0}, "jtt": {"id_epochs": 2, "upweight": 5.0}},
    ]

    def test_one_step_per_run_step_and_one_schedule_per_run_epoch(self, monkeypatch, group_sizes):
        """The step and schedule counts a tracer wrapping these two module
        globals sees are the runs' own, summed: lanes share neither.  The
        benchmark's traced pass (`_trace_consistency` in bench/run.py)
        counts these same `optim.sgd_step` and `heterogeneous_batches`
        calls as its SGD steps and epochs, so a step that makes no per-lane
        `sgd_step` call reads as a wrong count there until that count
        changes."""
        optim = grouprobe.optim
        steps, schedules = [], []
        real_step, real_batches = optim.sgd_step, optim.heterogeneous_batches

        def counting_step(*args):
            steps.append(1)
            return real_step(*args)

        def counting_batches(*args, **kwargs):
            schedules.append(1)
            return real_batches(*args, **kwargs)

        monkeypatch.setattr(optim, "sgd_step", counting_step)
        monkeypatch.setattr(optim, "heterogeneous_batches", counting_batches)
        monkeypatch.setenv("GROUPROBE_WORKERS", "1")
        doc = tiny_config(runs=self.RUNS, seeds=[0, 1])
        run_experiment(doc, None)

        n_train = TINY_DATA["n_maj"] + TINY_DATA["n_min"]
        run_epochs = [r["optim"]["epochs"] + r.get("jtt", {}).get("id_epochs", 0)
                      for r in self.RUNS]
        run_steps = [e * math.ceil(n_train / r["optim"]["batch_size"])
                     for e, r in zip(run_epochs, self.RUNS)]
        seeds = len(doc["seeds"])
        assert len(schedules) == seeds * sum(run_epochs)
        assert len(steps) == seeds * sum(run_steps)
        # both jtt seeds' first stages in one group, then one lane group of
        # 3 cells x 2 seeds and one of the 2 jtt second stages
        assert group_sizes == [2, 6, 2]
        monkeypatch.undo()

        # every function of the module looks both names up on the module at
        # every use, never through a local alias or a default argument a
        # wrapper cannot reach, and the step loop loads both
        names = {"sgd_step", "heterogeneous_batches"}
        functions = []
        for obj in vars(optim).values():
            if getattr(obj, "__module__", None) == optim.__name__:
                members = vars(obj).values() if isinstance(obj, type) else [obj]
                functions += [f for f in members if isinstance(f, types.FunctionType)]
        assert optim.train in functions and optim._train_group in functions
        for function in functions:
            assert not names & {getattr(f, "__name__", None) for f in function.__defaults__ or ()}
            codes, seen_globals = [function.__code__], set()
            while codes:
                code = codes.pop()
                codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
                assert not names & set(code.co_varnames + code.co_cellvars + code.co_freevars)
                instructions = list(dis.get_instructions(code))
                for op, after in zip(instructions, instructions[1:]):
                    if op.opname == "LOAD_GLOBAL" and op.argval in names:
                        seen_globals.add(op.argval)
                        assert not after.opname.startswith("STORE"), (op.argval, after.opname)
            if function is optim._train_group:
                assert seen_globals == names

    @pytest.mark.parametrize("workers, parts", [(1, [12]), (2, [6, 6]), (4, [3, 3, 3, 3]),
                                                (5, [3, 3, 2, 2, 2])], ids=["1", "2", "4", "5"])
    def test_jobs_split_into_contiguous_chunks_per_worker(self, workers, parts, monkeypatch,
                                                          inline_pools):
        """One chunk per worker; the first trains in this process and the
        pool, one process smaller, takes the rest."""
        chunks = []
        real = experiments._run_lanes

        def recording(cfg, jobs, out_dir):
            chunks.append(jobs)
            return real(cfg, jobs, out_dir)

        monkeypatch.setattr(experiments, "_run_lanes", recording)
        monkeypatch.setenv("GROUPROBE_WORKERS", str(workers))
        doc = tiny_config(runs=self.RUNS, seeds=[0, 1, 2])
        _, records = run_experiment(doc, None)
        jobs = [(i, s) for i in range(len(self.RUNS)) for s in doc["seeds"]]
        # the inline pool trains each submitted chunk at once, before the
        # first chunk: order the chunks by their first job
        chunks.sort(key=lambda chunk: chunk[0])
        assert [len(chunk) for chunk in chunks] == parts
        assert [job for chunk in chunks for job in chunk] == jobs
        assert [(self.RUNS[i]["tag"], s) for i, s in jobs] == [(r["tag"], r["seed"]) for r in records]
        assert inline_pools == ([] if workers == 1 else [workers - 1])

    def test_pool_is_no_larger_than_the_job_list(self, monkeypatch, inline_pools):
        monkeypatch.setenv("GROUPROBE_WORKERS", "64")
        _, records = run_experiment(tiny_config(runs=self.RUNS[:1], seeds=[0, 1]), None)
        assert inline_pools == [1]
        assert len(records) == 2

    def test_first_chunk_trains_in_the_calling_process(self, tmp_path, monkeypatch):
        """At 2 workers on the real pool, one chunk trains here and the
        other in a forked worker."""
        log = tmp_path / "pids.txt"
        monkeypatch.setattr(experiments, "_run_lanes", functools.partial(_logging_run_lanes, log))
        monkeypatch.setenv("GROUPROBE_WORKERS", "2")
        doc = tiny_config(runs=self.RUNS[:1], seeds=[0, 1, 2])
        _, records = run_experiment(doc, None)
        assert [r["seed"] for r in records] == [0, 1, 2]
        calls = dict(line.split() for line in log.read_text().splitlines())
        assert len(calls) == 2
        # the first chunk, which array_split makes the larger, trains here
        assert calls.pop(str(os.getpid())) == "2"
        assert list(calls.values()) == ["1"]

    def test_lane_key_separates_what_cannot_share_a_step(self, monkeypatch, group_sizes):
        base = self.RUNS[0]
        keyed = [dict(base, tag="a"),
                 dict(base, tag="b", optim=dict(base["optim"], batch_size=32)),
                 dict(base, tag="c", optim=dict(base["optim"], epochs=4)),
                 dict(base, tag="d", weights=dict(base["weights"], alpha_reg=0.0)),
                 dict(base, tag="e", method="erm", weights={"lambda_l2": 1.0})]
        monkeypatch.setenv("GROUPROBE_WORKERS", "1")
        doc = tiny_config(runs=keyed, seeds=[0, 1])
        run_experiment(doc, None)
        assert group_sizes == [len(doc["seeds"])] * 5

    def test_baselines_recipe_groups(self, monkeypatch, group_sizes):
        """The `baselines` recipe cut to one epoch: the jtt first stages of
        its 5 seeds, then erm, jtt second stages and group_dro together,
        then reg_mtl."""
        doc = recipe_config("baselines")
        for run in doc["runs"]:
            run["optim"]["epochs"] = 1
            if "jtt" in run:
                run["jtt"]["id_epochs"] = 1
        monkeypatch.setenv("GROUPROBE_WORKERS", "1")
        run_experiment(doc, None)
        assert group_sizes == [5, 15, 5]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_grouping_does_not_change_outputs(self, workers, tmp_path, monkeypatch, group_sizes):
        # a group_dro cell of the jtt cell's shape joins its second stages
        runs = self.RUNS + [
            {"tag": "dro", "method": "group_dro",
             "optim": {"learning_rate": 0.01, "batch_size": 32, "epochs": 3},
             "weights": {"lambda_l2": 1.0}, "group_dro": {"group_step": 0.05}}]
        doc = tiny_config(runs=runs, seeds=[0, 1])
        monkeypatch.setenv("GROUPROBE_WORKERS", "1")
        monkeypatch.setattr(grouprobe.optim, "_lockstep_key", lambda lane: object())  # every lane alone
        _, alone = run_experiment(doc, tmp_path / "alone")
        assert set(group_sizes) == {1}
        monkeypatch.undo()
        monkeypatch.setenv("GROUPROBE_WORKERS", workers)
        _, grouped = run_experiment(doc, tmp_path / "grouped")
        assert grouped == alone
        files = sorted(p.relative_to(tmp_path / "alone")
                       for p in (tmp_path / "alone").rglob("*") if p.is_file())
        assert len(files) == 1 + 3 * len(runs) * 2
        for rel in files:
            assert (tmp_path / "grouped" / rel).read_bytes() == (tmp_path / "alone" / rel).read_bytes()

    def test_diverged_lane_is_named_through_the_pool(self, monkeypatch):
        runs = copy.deepcopy(self.RUNS[:3])
        runs[1]["tau"] = 0.1
        runs[1]["optim"]["learning_rate"] = 1e300
        monkeypatch.setenv("GROUPROBE_WORKERS", "2")
        with pytest.raises(DivergedError) as exc:
            run_experiment(tiny_config(runs=runs, seeds=[0, 1]), None)
        # both chunks hold a mtl_free run and diverge; the first in job order raises
        assert (exc.value.tag, exc.value.seed, exc.value.epoch) == ("mtl_free", 0, 0)
        assert str(exc.value).endswith("(run mtl_free, seed 0, epoch 0)")

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("diverged, named", [((0,), "a"), ((3,), "d"), ((0, 3), "a")],
                             ids=["first-chunk", "last-chunk", "both-chunks"])
    def test_diverged_run_named_by_its_chunk(self, diverged, named, workers, monkeypatch):
        """Four erm runs of one seed share a lane group; 2 workers cut them
        into chunks [a, b], trained here, and [c, d], trained in a worker.
        The first chunk in job order with a diverged run names it."""
        runs = [{"tag": tag, "method": "erm",
                 "optim": {"learning_rate": 1e300 if i in diverged else 0.01,
                           "batch_size": 16, "epochs": 2},
                 "weights": {"lambda_l2": 1.0}} for i, tag in enumerate("abcd")]
        monkeypatch.setenv("GROUPROBE_WORKERS", workers)
        with pytest.raises(DivergedError) as exc:
            run_experiment(tiny_config(runs=runs, seeds=[0]), None)
        assert (exc.value.tag, exc.value.seed, exc.value.epoch) == (named, 0, 0)
        assert str(exc.value).endswith(f"(run {named}, seed 0, epoch 0)")

    @pytest.mark.parametrize("workers, named", [("1", "C"), ("2", "B")])
    def test_diverged_run_named_depends_on_the_worker_count(self, workers, named, monkeypatch):
        """Serially, C shares A's lane group, which trains before B's.  At 2
        workers, the chunk [A, B] trains B's group and reports it before
        the worker's chunk [C] is read."""
        doc = recipe_config("table2")
        template = {k: v for k, v in doc["runs"][0].items() if k != "tau"}
        doc["runs"] = [dict(template, tag=tag, optim=dict(template["optim"], learning_rate=lr,
                                                          batch_size=batch, epochs=3))
                       for tag, lr, batch in (("A", 1e-3, 64), ("B", 1e300, 32), ("C", 1e300, 64))]
        doc["seeds"] = [0]
        monkeypatch.setenv("GROUPROBE_WORKERS", workers)
        with pytest.raises(DivergedError) as exc:
            run_experiment(doc, None)
        assert str(exc.value) == f"non-finite training loss (run {named}, seed 0, epoch 0)"


class TestWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("GROUPROBE_WORKERS", "3")
        assert n_workers() == 3

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv("GROUPROBE_WORKERS", "zero")
        with pytest.raises(ConfigError):
            n_workers()
        monkeypatch.setenv("GROUPROBE_WORKERS", "0")
        with pytest.raises(ConfigError):
            n_workers()

    def test_default_bounded(self, monkeypatch):
        monkeypatch.delenv("GROUPROBE_WORKERS", raising=False)
        assert 1 <= n_workers() <= 4


class TestSweep:
    def test_grid_expansion(self):
        grid = SweepGrid.load(tiny_sweep())
        cells = grid.cells
        assert len(cells) == 4
        cfg = grid.config
        assert [r.tag for r in cfg.runs] == [f"cell{i:04d}" for i in range(4)]
        assert all(r.method == "reg_mtl" for r in cfg.runs)

    @pytest.mark.parametrize("breaker", [
        lambda d: d["grid"].pop("tau"),
        lambda d: d["grid"].update(tau=[]),
        lambda d: d["grid"].update(extra_axis=[1]),
        lambda d: d.update(method="aux_only"),
        lambda d: d["base"].update(optimizer="adam"),
    ])
    def test_rejects_bad_grids(self, breaker):
        with pytest.raises(ConfigError):
            SweepGrid.load(_edited(tiny_sweep(), breaker))

    @pytest.mark.parametrize("breaker", [
        lambda d: d["grid"].update(batch_size=[16, True]),
        lambda d: d["grid"].update(tau=[True]),
        lambda d: d["base"].update(epochs=True),
        lambda d: d["test"].update(n_per_group=True),
        lambda d: d["val"].update(n_min=False),
        lambda d: d["data"].update(d_s=True),
    ])
    def test_rejects_json_booleans_as_numbers(self, breaker):
        with pytest.raises(ConfigError, match="must be a number, got (true|false)"):
            SweepGrid.load(_edited(tiny_sweep(), breaker))

    @pytest.mark.parametrize("breaker,field", [
        (lambda d: d["base"].update(l1_boundary="x"), r"base\.l1_boundary must be true or false"),
        (lambda d: d["base"].update(epochs=3.0), r"base\.epochs must be an integer"),
        (lambda d: d["grid"].update(batch_size=[16, 32.0]), r"grid\.batch_size\[1\] must be an"),
        (lambda d: d["grid"].update(tau=[None]), r"grid\.tau\[0\] must be a number, got null"),
        (lambda d: d["base"].update(lambda_l2="1"), r'base\.lambda_l2 must be a number, got "1"$'),
        (lambda d: d["grid"].update(alpha_aux=[0.5, "1"]),
         r'grid\.alpha_aux\[1\] must be a number, got "1"$'),
        (lambda d: d["grid"].update(learning_rate=["0.01"]),
         r'grid\.learning_rate\[0\] must be a number, got "0\.01"$'),
        (lambda d: d.update(method=3), "method must be a string, got 3$"),
    ], ids=["l1_boundary-string", "epochs-float", "batch-float", "tau-null", "lambda-string",
            "alpha_aux-string", "lr-string", "method-number"])
    def test_rejects_values_of_the_wrong_type(self, breaker, field):
        with pytest.raises(ConfigError, match=f"^{field}"):
            SweepGrid.load(_edited(tiny_sweep(), breaker))

    @pytest.mark.parametrize("breaker,message", [
        (lambda d: d["grid"].update(learning_rate=[0.0]),
         r"grid\.learning_rate\[0\]: learning_rate must be > 0"),
        (lambda d: d["grid"].update(batch_size=[16, 0]), r"grid\.batch_size\[1\]: batch_size must be >= 1"),
        (lambda d: d["grid"].update(tau=[-1.0]), r"grid\.tau\[0\]: tau must be positive"),
        (lambda d: d["grid"].update(alpha_reg=[-0.5]), r"grid\.alpha_reg\[0\]: alpha_reg must be >= 0"),
        (lambda d: d["base"].update(epochs=0), r"base\.epochs: epochs must be >= 1"),
        (lambda d: d["base"].update(momentum=1.0),
         r"base\.momentum: momentum must be 0: training is plain SGD"),
        (lambda d: d["base"].update(lambda_l2=-1.0), r"base\.lambda_l2: lambda_l2 must be >= 0"),
        (lambda d: d["base"].update(patience=3),
         r"base\.patience: patience must be 0: training has no early stopping"),
        (lambda d: d["grid"].update(alpha_aux=[0.5, -1.0]), r"grid\.alpha_aux\[1\]: alpha_aux must be >= 0"),
        (lambda d: d.update(method="aux_only"),
         r"grid\.alpha_aux\[0\]: aux_only ignores alpha_aux; leave it at 0"),
        (lambda d: d.update(method="boosting"), r"method: method must be one of \(.*\), got 'boosting'"),
    ], ids=["lr-zero", "batch-zero", "tau-negative", "alpha-negative", "epochs-zero",
            "momentum-one", "lambda-negative", "patience-three", "alpha_aux-negative",
            "aux_only-alpha_aux", "method-unknown"])
    def test_range_errors_name_the_sweep_field(self, breaker, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SweepGrid.load(_edited(tiny_sweep(), breaker))

    def test_boolean_flag_still_accepted(self):
        grid = SweepGrid.load(_edited(tiny_sweep(), lambda d: d["base"].update(l1_boundary=True)))
        assert all(r.l1_boundary for r in grid.config.runs)

    @pytest.mark.parametrize("axis", ["alpha_aux", "alpha_reg"])
    def test_erm_rejects_aux_weights(self, axis):
        doc = tiny_sweep(method="erm")
        doc["grid"].update(alpha_aux=[0.0], alpha_reg=[0.0])
        doc["grid"][axis] = [0.0, 0.5]
        with pytest.raises(ConfigError, match=rf"^grid\.{axis}\[1\]: erm does not take aux loss weights$"):
            SweepGrid.load(doc)

    def test_cells_hold_loaded_values(self):
        doc = tiny_sweep()
        doc["grid"].update(alpha_reg=[-0.0], tau=[1])
        grid = SweepGrid.load(doc)
        for cell, run in zip(grid.cells, grid.config.runs, strict=True):
            assert type(cell["tau"]) is float and cell["tau"] == run.tau == 1.0
            assert math.copysign(1.0, cell["alpha_reg"]) == 1.0 and run.weights.alpha_reg == 0.0
            assert (cell["learning_rate"], cell["batch_size"]) == (run.optim.learning_rate,
                                                                   run.optim.batch_size)

    @pytest.mark.parametrize("axis,values,message", [
        ("batch_size", [16, 32, 16], r"grid\.batch_size\[2\] repeats grid\.batch_size\[0\]"),
        ("tau", [1, 1.0], r"grid\.tau\[1\] repeats grid\.tau\[0\]"),
        ("alpha_reg", [0.0, -0.0], r"grid\.alpha_reg\[1\] repeats grid\.alpha_reg\[0\]"),
    ], ids=["batch", "int-and-float", "signed-zero"])
    def test_rejects_repeated_grid_values(self, axis, values, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SweepGrid.load(_edited(tiny_sweep(), lambda d: d["grid"].update({axis: values})))

    @pytest.mark.parametrize("method,epochs,block", [
        ("jtt", 3, JttConfig(id_epochs=1, upweight=5.0)),
        ("jtt", 25, JttConfig(id_epochs=2, upweight=5.0)),
        ("group_dro", 3, GroupDroConfig()),
    ], ids=["jtt-3", "jtt-25", "group_dro"])
    def test_method_block_defaults_as_in_a_run(self, method, epochs, block):
        doc = tiny_sweep(method=method)
        doc["base"]["epochs"] = epochs
        doc["grid"]["alpha_aux"] = [0.0]
        runs = SweepGrid.load(doc).config.runs
        assert {r.method for r in runs} == {method} and {getattr(r, method) for r in runs} == {block}

    def test_run_jtt_sweep(self, monkeypatch):
        monkeypatch.setenv("GROUPROBE_WORKERS", "1")
        doc = tiny_sweep(method="jtt")
        doc["base"]["epochs"] = 1
        doc["grid"]["alpha_aux"] = [0.0]
        rows, front = run_sweep(doc, None)
        assert [r["method"] for r in rows] == ["jtt", "jtt"]
        assert front and all(r in rows for r in front)

    def test_run_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GROUPROBE_WORKERS", "1")
        out = tmp_path / "sweep"
        rows, front = run_sweep(tiny_sweep(), out)
        assert len(rows) == 4
        avg, wg = _accuracies(rows)
        front_points = set(zip(*_accuracies(front)))
        assert front_points <= set(zip(avg, wg))
        ge_avg = avg[:, None] <= avg[None, :]
        ge_wg = wg[:, None] <= wg[None, :]
        strict = (avg[:, None] < avg[None, :]) | (wg[:, None] < wg[None, :])
        dominated = (ge_avg & ge_wg & strict).any(axis=1)
        assert not front_points & set(zip(avg[dominated], wg[dominated]))
        assert (out / "sweep_full.csv").exists()
        assert (out / "sweep_front.csv").exists()
        assert (out / "sweep_front.dat").exists()
        assert (out / "summary.csv").exists()
        assert not list(out.rglob("*.tmp"))

    @pytest.mark.parametrize("method,alpha_aux", [("reg_mtl", [0.5, 1.0]), ("erm", [0.0])])
    def test_sweep_files_are_summary_columns(self, method, alpha_aux, tmp_path, monkeypatch):
        monkeypatch.setenv("GROUPROBE_WORKERS", "1")
        doc = tiny_sweep(method=method)
        doc["grid"]["alpha_aux"] = alpha_aux
        rows, front = run_sweep(doc, tmp_path)
        summary, full, front_file = (
            list(csv.DictReader((tmp_path / name).read_text().splitlines()))
            for name in ("summary.csv", "sweep_full.csv", "sweep_front.csv"))
        assert rows == summary and len(rows) == 2 * len(alpha_aux)
        assert full == [_pareto_row(r) for r in summary]
        assert front_file == [_pareto_row(r) for r in front]
        assert {r["method"] for r in full} == {method}
        if method == "erm":
            assert {(r["alpha_aux"], r["alpha_reg"]) for r in full} == {("0.0", "0.0")}

    def test_single_cell_front(self, monkeypatch):
        monkeypatch.setenv("GROUPROBE_WORKERS", "1")
        doc = tiny_sweep()
        doc["grid"] = {"alpha_aux": [1.0], "alpha_reg": [0.0], "tau": [0.5],
                       "learning_rate": [0.01], "batch_size": [16]}
        rows, front = run_sweep(doc, None)
        assert len(rows) == 1
        assert front == rows


def _accuracies(rows: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    """The seed-mean test (avg, wg) accuracy columns of summary rows."""
    return tuple(np.array([float(r[k]) for r in rows]) for k in ("test_avg_mean", "test_wg_mean"))


def _pareto_row(row: dict) -> dict:
    """The Pareto CSV row of a summary row."""
    return {"avg_acc": row["test_avg_mean"], "wg_acc": row["test_wg_mean"],
            **{c: row[c] for c in PARETO_CSV_COLUMNS[2:]}}
