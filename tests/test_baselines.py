import json
import math
from dataclasses import replace

import numpy as np
import pytest

import grouprobe.optim
from grouprobe import (
    ConfigError,
    ExperimentConfig,
    GroupDroConfig,
    InvalidInputError,
    InvalidSpecError,
    JttConfig,
    LabeledDataset,
    Lane,
    LossWeights,
    OptimConfig,
    RunSpec,
    SelectionStrategy,
    TaskData,
    evaluate,
    fit,
    fit_lanes,
    init_params,
    sgd_step,
    train,
)

from grouprobe.baselines import _group_reweighting
from test_experiments import tiny_config

NO_GP, VAL_GP = SelectionStrategy.NO_GP, SelectionStrategy.VAL_GP
L2 = LossWeights(lambda_l2=1.0)


def spec(method: str, cfg: OptimConfig, **kw) -> RunSpec:
    """A run of `method` with L2 strength 1 unless `kw` gives weights."""
    return RunSpec(tag=method, method=method, optim=cfg, **{"weights": L2, **kw})


def aux_only(cfg: OptimConfig, tau: float = 0.5) -> RunSpec:
    # reconstruction-only cells train on the L1 sphere, as configs default them
    return spec("aux_only", cfg, tau=tau, l1_boundary=True)


class TestConfigs:
    def test_task_data_empty_split(self, tiny_task):
        empty = tiny_task.train.take(np.array([], dtype=np.int64))
        with pytest.raises(InvalidInputError):
            TaskData(tiny_task.train, empty, tiny_task.test)

    def test_task_data_dim_mismatch(self, tiny_task):
        other = LabeledDataset(
            np.zeros((4, 3)), [1, -1, 1, -1], [1, -1, -1, 1], [0, 1, 2, 3]
        )
        with pytest.raises(InvalidInputError):
            TaskData(tiny_task.train, tiny_task.val, other)

    @pytest.mark.parametrize("kw", [{"id_epochs": 0}, {"upweight": 0.5}])
    def test_jtt_config_invalid(self, kw):
        base = dict(id_epochs=5, upweight=2.0)
        base.update(kw)
        with pytest.raises(InvalidSpecError):
            JttConfig(**base)

    def test_dro_config_invalid(self):
        with pytest.raises(InvalidSpecError):
            GroupDroConfig(group_step=-0.1)


class TestRunSpec:
    CFG = OptimConfig(learning_rate=0.01, batch_size=16, epochs=4)

    # (RunSpec arguments, the same cell as config runs[0], the message)
    RULES = [
        ({"tag": "a b", "method": "erm"}, {"tag": "a b"},
         "tag must be non-empty and filesystem-safe, got 'a b'"),
        ({"tag": "x", "method": "boosting"}, {"method": "boosting"},
         "method must be one of ('erm', 'jtt', 'group_dro', 'reg_mtl', 'aux_only'), "
         "got 'boosting'"),
        ({"tag": "x", "method": "erm", "weights": LossWeights(alpha_aux=1.0)},
         {"weights": {"alpha_aux": 1.0}}, "erm does not take aux loss weights"),
        ({"tag": "x", "method": "group_dro", "weights": LossWeights(alpha_reg=0.5),
          "group_dro": GroupDroConfig()},
         {"method": "group_dro", "weights": {"alpha_reg": 0.5}},
         "group_dro does not take aux loss weights"),
        ({"tag": "x", "method": "aux_only", "tau": 0.5, "l1_boundary": True,
          "weights": LossWeights(alpha_aux=2.0)},
         {"method": "aux_only", "tau": 0.5, "weights": {"alpha_aux": 2.0}},
         "aux_only ignores alpha_aux; leave it at 0"),
        ({"tag": "x", "method": "erm", "jtt": JttConfig(2)}, {"jtt": {"id_epochs": 2}},
         "jtt block is only valid for method 'jtt'"),
        ({"tag": "x", "method": "reg_mtl", "group_dro": GroupDroConfig()},
         {"method": "reg_mtl", "group_dro": {}},
         "group_dro block is only valid for method 'group_dro'"),
        ({"tag": "x", "method": "erm", "tau": -1.0}, {"tau": -1.0},
         "tau must be positive or null"),
        ({"tag": "x", "method": "erm", "tau": 0.0}, {"tau": 0.0},
         "tau must be positive or null"),
        ({"tag": "x", "method": "erm", "l1_boundary": True}, {"l1_boundary": True},
         "l1_boundary requires tau"),
    ]

    @pytest.mark.parametrize("kw,cell,message", RULES,
                             ids=["tag", "method", "erm-alpha", "dro-alpha", "aux-only-alpha",
                                  "jtt-block", "dro-block", "tau-negative", "tau-zero",
                                  "boundary-no-tau"])
    def test_rule_raises_from_constructor_as_from_config(self, kw, cell, message):
        with pytest.raises(InvalidSpecError) as direct:
            RunSpec(optim=self.CFG, **kw)
        assert str(direct.value) == message
        run = {"tag": "x", "method": "erm",
               "optim": {"learning_rate": 0.01, "batch_size": 16, "epochs": 4}, **cell}
        with pytest.raises(ConfigError) as loaded:
            ExperimentConfig.load(tiny_config(runs=[run]))
        assert str(loaded.value) == f"runs[0]: {message}"

    @pytest.mark.parametrize("method", ["jtt", "group_dro"])
    def test_own_block_required(self, method):
        with pytest.raises(InvalidSpecError, match=f"^method '{method}' needs a {method} block$"):
            RunSpec(tag="x", method=method, optim=self.CFG)

class TestFitResultContract:
    def _all_fits(self, tiny_task, tiny_aux, tiny_aux_val, tiny_cfg):
        return {
            "erm": fit(spec("erm", tiny_cfg), tiny_task, NO_GP),
            "jtt": fit(spec("jtt", tiny_cfg, jtt=JttConfig(2, 3.0)), tiny_task, VAL_GP),
            "group_dro": fit(spec("group_dro", tiny_cfg, group_dro=GroupDroConfig(0.05)),
                             tiny_task, VAL_GP),
            "reg_mtl": fit(spec("reg_mtl", tiny_cfg, tau=0.5,
                                weights=LossWeights(alpha_aux=1.0, lambda_l2=1.0)),
                           tiny_task, NO_GP, tiny_aux),
            "aux_only": fit(aux_only(tiny_cfg), tiny_task, NO_GP, tiny_aux, tiny_aux_val),
        }

    def test_shared_interface(self, tiny_task, tiny_aux, tiny_aux_val, tiny_cfg):
        for name, result in self._all_fits(tiny_task, tiny_aux, tiny_aux_val, tiny_cfg).items():
            assert result.method == name
            assert result.config["method"] == name
            assert 0 <= result.selected_epoch < tiny_cfg.epochs
            assert result.params.feasible()
            assert len(result.trace.train_loss) == tiny_cfg.epochs
            assert 0.0 <= result.test_metrics.avg_acc <= 1.0
            assert 0.0 <= result.final_metrics.avg_acc <= 1.0

    def test_json_round_trip(self, tiny_task, tiny_cfg):
        result = fit(spec("erm", tiny_cfg), tiny_task, NO_GP)
        loaded = json.loads(json.dumps(result.to_json_dict()))
        assert set(loaded) == {"method", "config", "selected_epoch", "val_metrics",
                               "test_metrics", "final_metrics", "extras"}
        assert loaded["method"] == "erm"
        assert loaded["test_metrics"]["avg_acc"] == result.test_metrics.avg_acc
        assert loaded["config"]["learning_rate"] == tiny_cfg.learning_rate

    def test_metrics_match_reported_epochs(self, tiny_task, tiny_cfg, monkeypatch):
        last_step = []

        def recording_step(*args):
            out = sgd_step(*args)
            last_step[:] = [out]
            return out

        monkeypatch.setattr(grouprobe.optim, "sgd_step", recording_step)
        result = fit(spec("erm", tiny_cfg), tiny_task, NO_GP)
        final = result.trace.final_params
        a, w_end, W_aux = last_step[0]
        assert np.array_equal(final.a, a)
        assert np.array_equal(final.w_end, w_end)
        assert np.array_equal(final.W_aux, W_aux)
        assert result.final_metrics.avg_acc == evaluate(final, tiny_task.test).avg_acc
        # epochs draw their batches from [seed, epoch], so a run cut short
        # after the selected epoch ends on exactly the selected parameters
        cut = fit(spec("erm", replace(tiny_cfg, epochs=result.selected_epoch + 1)),
                  tiny_task, NO_GP)
        selected = cut.trace.final_params
        assert np.array_equal(result.params.a, selected.a)
        assert np.array_equal(result.params.w_end, selected.w_end)
        assert np.array_equal(result.params.W_aux, selected.W_aux)
        assert result.test_metrics.avg_acc == evaluate(selected, tiny_task.test).avg_acc
        e = result.selected_epoch
        assert result.val_metrics == {"avg_acc": result.trace.val_avg_acc[e],
                                      "wg_acc": result.trace.val_wg_acc[e]}
        assert all(type(v) is float for v in result.val_metrics.values())

# (run arguments besides the optimizer config, selection rule) per method
_METHODS = {
    "erm": ({}, NO_GP),
    "jtt": ({"jtt": JttConfig(3, 5.0)}, VAL_GP),
    "group_dro": ({"group_dro": GroupDroConfig(0.1)}, VAL_GP),
    "reg_mtl": ({"weights": LossWeights(alpha_aux=1.0, alpha_reg=0.1, lambda_l2=1.0),
                 "tau": 0.5}, NO_GP),
    "aux_only": ({"tau": 0.5, "l1_boundary": True}, NO_GP),
}


@pytest.mark.parametrize("method", sorted(_METHODS))
def test_one_step_call_per_batch_one_schedule_per_epoch(
        method, tiny_task, tiny_aux, tiny_aux_val, tiny_cfg, monkeypatch):
    """Every method trains through grouprobe.optim.train's one loop: one
    batch schedule per epoch and one sgd_step call per batch, both looked up
    on the module so that wrappers see every call (JTT runs two stages)."""
    steps, schedules = [], []
    real_step, real_batches = grouprobe.optim.sgd_step, grouprobe.optim.heterogeneous_batches

    def counting_step(*args):
        steps.append(1)
        return real_step(*args)

    def counting_batches(*args, **kwargs):
        schedules.append(1)
        return real_batches(*args, **kwargs)

    monkeypatch.setattr(grouprobe.optim, "sgd_step", counting_step)
    monkeypatch.setattr(grouprobe.optim, "heterogeneous_batches", counting_batches)
    kw, selector = _METHODS[method]
    fit(spec(method, tiny_cfg, **kw), tiny_task, selector, tiny_aux, tiny_aux_val)
    epochs = tiny_cfg.epochs + (3 if method == "jtt" else 0)
    assert len(tiny_aux) == len(tiny_task.train)  # either stream sets the pace
    assert len(schedules) == epochs
    assert len(steps) == epochs * math.ceil(len(tiny_task.train) / tiny_cfg.batch_size)


class TestErm:
    def test_matches_manual_train(self, tiny_task, tiny_cfg):
        weights = LossWeights(lambda_l2=0.5)
        result = fit(spec("erm", tiny_cfg, weights=weights), tiny_task, NO_GP)
        params = init_params(tiny_task.train.d, None, [tiny_cfg.seed, 101])
        [(trace, best)] = train([Lane(params, tiny_task.train, None, weights,
                                      tiny_cfg, tiny_task.val, NO_GP)])
        assert np.array_equal(result.params.a, best.a)
        assert np.array_equal(result.params.w_end, best.w_end)
        assert result.trace.train_loss.tobytes() == trace.train_loss.tobytes()

    def test_budget_flag_passes_through(self, tiny_task, tiny_cfg, monkeypatch):
        steps = []

        def checked_step(*args):
            out = sgd_step(*args)
            steps.append(np.abs(out[0]).sum())
            return out

        monkeypatch.setattr(grouprobe.optim, "sgd_step", checked_step)
        result = fit(spec("erm", tiny_cfg, tau=0.5, l1_boundary=True), tiny_task, NO_GP)
        assert abs(np.abs(result.params.a).sum() - 0.5) < 1e-9
        # every step, not only every epoch, lands on the sphere
        assert len(steps) == tiny_cfg.epochs * math.ceil(len(tiny_task.train) / tiny_cfg.batch_size)
        assert all(abs(l1 - 0.5) < 1e-9 for l1 in steps)

    def test_ignores_aux_streams(self, tiny_task, tiny_aux, tiny_aux_val, tiny_cfg):
        plain = fit(spec("erm", tiny_cfg), tiny_task, NO_GP)
        given = fit(spec("erm", tiny_cfg), tiny_task, NO_GP, tiny_aux, tiny_aux_val)
        assert np.array_equal(plain.params.a, given.params.a)
        assert np.array_equal(plain.params.w_end, given.params.w_end)
        assert given.trace.val_recon_loss is None


class TestJtt:
    def test_extras_shape(self, tiny_task, tiny_cfg):
        result = fit(spec("jtt", tiny_cfg, jtt=JttConfig(2, 5.0)), tiny_task, VAL_GP)
        info = result.extras["jtt"]
        assert info["error_set_size"] == sum(info["error_group_counts"])
        assert len(info["error_group_counts"]) == 4
        assert info["fallback_erm"] == (info["error_set_size"] == 0)

    def test_unit_upweight_is_fresh_erm(self, tiny_task, tiny_cfg):
        """upweight=1 rescales to all-ones weights, so stage 2 must match a
        plain run from the stage-2 initialization bit for bit."""
        result = fit(spec("jtt", tiny_cfg, jtt=JttConfig(2, 1.0)), tiny_task, NO_GP)
        assert result.extras["jtt"]["error_set_size"] > 0  # the interesting branch
        p2 = init_params(tiny_task.train.d, None, [tiny_cfg.seed, 102])
        [(trace, best)] = train([Lane(
            p2, tiny_task.train, None, LossWeights(lambda_l2=1.0), tiny_cfg,
            tiny_task.val, NO_GP,
            sample_weights=np.ones(len(tiny_task.train)),
        )])
        assert np.array_equal(result.params.w_end, best.w_end)
        assert np.array_equal(result.params.a, best.a)

    def test_stage2_restarts_fresh(self, tiny_task, tiny_cfg):
        fit(spec("jtt", tiny_cfg, jtt=JttConfig(2, 5.0)), tiny_task, NO_GP)
        # first stage-2 epoch starts from the tag-102 draw, not stage 1's end
        p101 = init_params(tiny_task.train.d, None, [tiny_cfg.seed, 101])
        p102 = init_params(tiny_task.train.d, None, [tiny_cfg.seed, 102])
        assert not np.array_equal(p101.w_end, p102.w_end)

    @staticmethod
    def _separable():
        # trivially separable task: stage 1 classifies everything correctly
        y = np.array([1, -1, 1, -1] * 8)
        s = np.array([1, -1, -1, 1] * 8)
        g = np.array([0, 1, 2, 3] * 8)
        X = np.column_stack([6.0 * y, 0.1 * s])
        data = LabeledDataset(X, y, s, g)
        return TaskData(data, data, data), OptimConfig(learning_rate=0.5, batch_size=8,
                                                       epochs=4, seed=0)

    def test_empty_error_set_falls_back(self):
        task, cfg = self._separable()
        result = fit(spec("jtt", cfg, jtt=JttConfig(3, 10.0)), task, NO_GP)
        assert result.extras["jtt"]["fallback_erm"]
        assert result.extras["jtt"]["error_set_size"] == 0
        assert result.test_metrics.avg_acc == 1.0

    def test_empty_error_set_is_unweighted_erm(self):
        """All-ones stage-2 weights leave every product unchanged, so the run
        equals an erm lane without sample weights from the stage-2 init."""
        task, cfg = self._separable()
        result = fit(spec("jtt", cfg, jtt=JttConfig(3, 10.0)), task, NO_GP)
        assert result.extras["jtt"]["error_set_size"] == 0
        p2 = init_params(task.train.d, None, [cfg.seed, 102])
        [(trace, best)] = train([Lane(p2, task.train, None, L2, cfg, task.val, NO_GP)])
        assert result.selected_epoch == trace.selected_epoch
        assert result.trace.train_loss.tobytes() == trace.train_loss.tobytes()
        for got, want in ((result.params, best), (result.trace.final_params, trace.final_params)):
            assert np.array_equal(got.a, want.a)
            assert np.array_equal(got.w_end, want.w_end)
            assert np.array_equal(got.W_aux, want.W_aux)


class TestGroupDro:
    ETA = 0.3

    @staticmethod
    def _batches(n_steps=30, size=12):
        """Scripted (nll, group_ids) batches; every third one misses groups 2 and 3."""
        rng = np.random.default_rng(0)
        for k in range(n_steps):
            group_ids = rng.integers(0, 2 if k % 3 == 0 else 4, size=size)
            yield rng.exponential(size=size), group_ids

    def test_q_trajectory_is_exponentiated_update(self, tiny_task):
        hook, q = _group_reweighting(self.ETA)
        q_prev = np.full(4, 0.25)
        assert np.array_equal(q, q_prev)
        for nll, group_ids in self._batches():
            weights = hook(nll, group_ids)
            counts = np.bincount(group_ids, minlength=4)
            present = counts > 0
            gl = np.array([nll[group_ids == g].mean() if present[g] else 0.0 for g in range(4)])
            lifted = q_prev * np.where(present, np.exp(self.ETA * gl), 1.0)
            lifted /= lifted.sum()
            assert np.allclose(q, lifted, rtol=0.0, atol=1e-12)
            assert q.min() > 0.0 and q.sum() == pytest.approx(1.0, abs=1e-12)
            # each present group's members share its q mass: weights average
            # q[g] over the group, and the batch total is the present mass
            per_group = np.bincount(group_ids, weights=weights, minlength=4)
            assert np.allclose(per_group, q * len(group_ids) * present, rtol=1e-12, atol=0.0)
            q_prev = q.copy()
        assert not np.allclose(q, 0.25)

    def test_zero_step_keeps_uniform(self, tiny_task):
        hook, q = _group_reweighting(0.0)
        for nll, group_ids in self._batches():
            hook(nll, group_ids)
            assert np.array_equal(q, np.full(4, 0.25))

    def test_final_q_is_the_hooks_q_after_the_last_step(self, tiny_task, tiny_cfg, monkeypatch):
        after_step = []

        def recording_reweighting(group_step):
            hook, q = _group_reweighting(group_step)

            def recorded(nll, group_ids):
                weights = hook(nll, group_ids)
                after_step.append(q.copy())
                return weights

            return recorded, q

        monkeypatch.setattr(grouprobe.baselines, "_group_reweighting", recording_reweighting)
        result = fit(spec("group_dro", tiny_cfg, group_dro=GroupDroConfig(self.ETA)),
                     tiny_task, VAL_GP)
        per_epoch = math.ceil(len(tiny_task.train) / tiny_cfg.batch_size)
        assert len(after_step) == tiny_cfg.epochs * per_epoch
        assert result.extras["group_dro"]["final_q"] == after_step[-1].tolist()
        assert not np.allclose(after_step[-1], 0.25)

    def test_requires_all_groups(self, tiny_task, tiny_cfg, monkeypatch):
        stepped = []

        def counting_step(*args):
            stepped.append(1)
            return sgd_step(*args)

        monkeypatch.setattr(grouprobe.optim, "sgd_step", counting_step)
        keep = tiny_task.train.group_ids != 3
        pruned = tiny_task.train.take(np.flatnonzero(keep))
        task = TaskData(pruned, tiny_task.val, tiny_task.test)
        dro = spec("group_dro", tiny_cfg, group_dro=GroupDroConfig(0.1))
        with pytest.raises(InvalidInputError):
            fit(dro, task, VAL_GP)
        # refused before any job trains, jtt first stages included
        jtt = spec("jtt", tiny_cfg, jtt=JttConfig(2, 5.0))
        with pytest.raises(InvalidInputError, match="all four groups"):
            fit_lanes([(jtt, tiny_task, None, None), (dro, task, None, None)], VAL_GP)
        assert stepped == []


class TestAuxOnly:
    def test_head_left_at_init(self, tiny_task, tiny_aux, tiny_aux_val, tiny_cfg):
        result = fit(aux_only(tiny_cfg), tiny_task, NO_GP, tiny_aux, tiny_aux_val)
        p0 = init_params(tiny_task.train.d, 0.5, [tiny_cfg.seed, 101],
                         l1_boundary=True, dense_init=True)
        assert np.array_equal(result.params.w_end, p0.w_end)
        assert not np.array_equal(result.params.W_aux, p0.W_aux)  # featurizer trained

    def test_selects_min_val_recon(self, tiny_task, tiny_aux, tiny_aux_val, tiny_cfg):
        result = fit(aux_only(tiny_cfg), tiny_task, NO_GP, tiny_aux, tiny_aux_val)
        recons = result.trace.val_recon_loss.tolist()
        assert result.val_metrics["recon_loss"] == min(recons)
        assert result.selected_epoch == int(np.argmin(recons))

    def test_starts_from_dense_init(self, tiny_task, tiny_aux, tiny_aux_val, monkeypatch):
        starts = []

        def recording_train(lanes):
            starts.extend(lane.params for lane in lanes)
            return train(lanes)

        monkeypatch.setattr(grouprobe.baselines, "train", recording_train)
        cfg = OptimConfig(learning_rate=0.01, batch_size=16, epochs=1, seed=3)
        fit(aux_only(cfg), tiny_task, NO_GP, tiny_aux, tiny_aux_val)
        dense = init_params(tiny_task.train.d, 0.5, [3, 101], l1_boundary=True, dense_init=True)
        identity = init_params(tiny_task.train.d, 0.5, [3, 101], l1_boundary=True)
        assert len(starts) == 1
        assert np.array_equal(starts[0].W_aux, dense.W_aux)
        assert not np.array_equal(dense.W_aux, identity.W_aux)

class TestRegMtl:
    def test_config_echo_and_feasibility(self, tiny_task, tiny_aux, tiny_cfg):
        weights = LossWeights(alpha_aux=2.0, alpha_reg=0.1, lambda_l2=1.0)
        result = fit(spec("reg_mtl", tiny_cfg, weights=weights, tau=0.5),
                     tiny_task, NO_GP, tiny_aux)
        assert result.config["alpha_aux"] == 2.0
        assert result.config["alpha_reg"] == 0.1
        assert result.config["tau"] == 0.5
        assert np.abs(result.params.a).sum() <= 0.5 + 1e-9

    def test_determinism(self, tiny_task, tiny_aux, tiny_cfg):
        run = spec("reg_mtl", tiny_cfg, weights=LossWeights(alpha_aux=1.0, lambda_l2=1.0),
                   tau=0.5)
        f1 = fit(run, tiny_task, NO_GP, tiny_aux)
        f2 = fit(run, tiny_task, NO_GP, tiny_aux)
        assert np.array_equal(f1.params.a, f2.params.a)
        assert f1.test_metrics.avg_acc == f2.test_metrics.avg_acc
