import json
import math
from dataclasses import replace

import numpy as np
import pytest

import grouprobe.optim
from grouprobe import (
    GroupDroConfig,
    InvalidInputError,
    InvalidSpecError,
    JttConfig,
    LabeledDataset,
    LossWeights,
    OptimConfig,
    SelectionStrategy,
    TaskData,
    evaluate,
    init_params,
    sgd_step,
    train,
    train_aux_only,
    train_erm,
    train_group_dro,
    train_jtt,
    train_reg_mtl,
)


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


class TestFitResultContract:
    def _all_fits(self, tiny_task, tiny_aux, tiny_aux_val, tiny_cfg):
        return {
            "erm": train_erm(tiny_task, tiny_cfg, SelectionStrategy.NO_GP),
            "jtt": train_jtt(tiny_task, tiny_cfg, JttConfig(2, 3.0),
                             SelectionStrategy.VAL_GP),
            "group_dro": train_group_dro(tiny_task, tiny_cfg, GroupDroConfig(0.05),
                                         SelectionStrategy.VAL_GP),
            "reg_mtl": train_reg_mtl(tiny_task, tiny_aux,
                                     LossWeights(alpha_aux=1.0, lambda_l2=1.0),
                                     0.5, tiny_cfg, SelectionStrategy.NO_GP),
            "aux_only": train_aux_only(tiny_task, tiny_aux, tiny_aux_val,
                                       tiny_cfg, 0.5),
        }

    def test_shared_interface(self, tiny_task, tiny_aux, tiny_aux_val, tiny_cfg):
        for name, fit in self._all_fits(tiny_task, tiny_aux, tiny_aux_val, tiny_cfg).items():
            assert fit.method == name
            assert fit.config["method"] == name
            assert 0 <= fit.selected_epoch < tiny_cfg.epochs
            assert fit.params.feasible()
            assert len(fit.trace.records) <= tiny_cfg.epochs
            assert 0.0 <= fit.test_metrics.avg_acc <= 1.0
            assert 0.0 <= fit.final_metrics.avg_acc <= 1.0

    def test_json_round_trip(self, tiny_task, tiny_cfg, tmp_path):
        fit = train_erm(tiny_task, tiny_cfg, SelectionStrategy.NO_GP)
        path = tmp_path / "fit.json"
        fit.save_json(path)
        loaded = json.loads(path.read_text())
        assert set(loaded) == {"method", "config", "selected_epoch", "val_metrics",
                               "test_metrics", "final_metrics", "extras"}
        assert loaded["method"] == "erm"
        assert loaded["test_metrics"]["avg_acc"] == fit.test_metrics.avg_acc
        assert loaded["config"]["learning_rate"] == tiny_cfg.learning_rate

    def test_metrics_match_reported_epochs(self, tiny_task, tiny_cfg, monkeypatch):
        last_step = []

        def recording_step(*args):
            out = sgd_step(*args)
            last_step[:] = [out]
            return out

        monkeypatch.setattr(grouprobe.optim, "sgd_step", recording_step)
        fit = train_erm(tiny_task, tiny_cfg, SelectionStrategy.NO_GP)
        final = fit.trace.final_params
        assert np.array_equal(final.a, last_step[0].a)
        assert np.array_equal(final.w_end, last_step[0].w_end)
        assert fit.final_metrics.avg_acc == evaluate(final, tiny_task.test).avg_acc
        # epochs draw their batches from [seed, epoch], so a run cut short
        # after the selected epoch ends on exactly the selected parameters
        cut = train_erm(tiny_task, replace(tiny_cfg, epochs=fit.selected_epoch + 1),
                        SelectionStrategy.NO_GP)
        selected = cut.trace.final_params
        assert np.array_equal(fit.params.a, selected.a)
        assert np.array_equal(fit.params.w_end, selected.w_end)
        assert np.array_equal(fit.params.W_aux, selected.W_aux)
        assert fit.test_metrics.avg_acc == evaluate(selected, tiny_task.test).avg_acc
        rec = fit.trace.records[fit.selected_epoch]
        assert fit.val_metrics == {"avg_acc": rec.val_avg_acc, "wg_acc": rec.val_wg_acc}


_METHODS = {
    "erm": lambda task, aux, aux_val, cfg: train_erm(task, cfg, SelectionStrategy.NO_GP),
    "jtt": lambda task, aux, aux_val, cfg: train_jtt(task, cfg, JttConfig(3, 5.0),
                                                    SelectionStrategy.VAL_GP),
    "group_dro": lambda task, aux, aux_val, cfg: train_group_dro(
        task, cfg, GroupDroConfig(0.1), SelectionStrategy.VAL_GP),
    "reg_mtl": lambda task, aux, aux_val, cfg: train_reg_mtl(
        task, aux, LossWeights(alpha_aux=1.0, alpha_reg=0.1, lambda_l2=1.0), 0.5, cfg,
        SelectionStrategy.NO_GP),
    "aux_only": lambda task, aux, aux_val, cfg: train_aux_only(task, aux, aux_val, cfg, 0.5),
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
    _METHODS[method](tiny_task, tiny_aux, tiny_aux_val, tiny_cfg)
    epochs = tiny_cfg.epochs + (3 if method == "jtt" else 0)
    assert len(tiny_aux) == len(tiny_task.train)  # either stream sets the pace
    assert len(schedules) == epochs
    assert len(steps) == epochs * math.ceil(len(tiny_task.train) / tiny_cfg.batch_size)


class TestErm:
    def test_matches_manual_train(self, tiny_task, tiny_cfg):
        fit = train_erm(tiny_task, tiny_cfg, SelectionStrategy.NO_GP, lambda_l2=0.5)
        params = init_params(tiny_task.train.d, None, [tiny_cfg.seed, 101])
        trace, best = train(params, tiny_task.train, None, LossWeights(lambda_l2=0.5),
                            tiny_cfg, tiny_task.val, SelectionStrategy.NO_GP)
        assert np.array_equal(fit.params.a, best.a)
        assert np.array_equal(fit.params.w_end, best.w_end)
        assert [r.train_loss for r in fit.trace.records] == [r.train_loss for r in trace.records]

    def test_budget_flag_passes_through(self, tiny_task, tiny_cfg, monkeypatch):
        steps = []

        def checked_step(*args):
            out = sgd_step(*args)
            steps.append(np.abs(out.a).sum())
            return out

        monkeypatch.setattr(grouprobe.optim, "sgd_step", checked_step)
        fit = train_erm(tiny_task, tiny_cfg, SelectionStrategy.NO_GP,
                        tau=0.5, l1_boundary=True)
        assert abs(np.abs(fit.params.a).sum() - 0.5) < 1e-9
        # every step, not only every epoch, lands on the sphere
        assert len(steps) == tiny_cfg.epochs * math.ceil(len(tiny_task.train) / tiny_cfg.batch_size)
        assert all(abs(l1 - 0.5) < 1e-9 for l1 in steps)


class TestJtt:
    def test_extras_shape(self, tiny_task, tiny_cfg):
        fit = train_jtt(tiny_task, tiny_cfg, JttConfig(2, 5.0), SelectionStrategy.VAL_GP)
        info = fit.extras["jtt"]
        assert info["error_set_size"] == sum(info["error_group_counts"])
        assert len(info["error_group_counts"]) == 4
        assert info["fallback_erm"] == (info["error_set_size"] == 0)

    def test_unit_upweight_is_fresh_erm(self, tiny_task, tiny_cfg):
        """upweight=1 rescales to all-ones weights, so stage 2 must match a
        plain run from the stage-2 initialization bit for bit."""
        fit = train_jtt(tiny_task, tiny_cfg, JttConfig(2, 1.0), SelectionStrategy.NO_GP)
        assert fit.extras["jtt"]["error_set_size"] > 0  # the interesting branch
        p2 = init_params(tiny_task.train.d, None, [tiny_cfg.seed, 102])
        trace, best = train(
            p2, tiny_task.train, None, LossWeights(lambda_l2=1.0), tiny_cfg,
            tiny_task.val, SelectionStrategy.NO_GP,
            end_sample_weights=np.ones(len(tiny_task.train)),
        )
        assert np.array_equal(fit.params.w_end, best.w_end)
        assert np.array_equal(fit.params.a, best.a)

    def test_stage2_restarts_fresh(self, tiny_task, tiny_cfg):
        fit = train_jtt(tiny_task, tiny_cfg, JttConfig(2, 5.0), SelectionStrategy.NO_GP)
        # first stage-2 epoch starts from the tag-102 draw, not stage 1's end
        p101 = init_params(tiny_task.train.d, None, [tiny_cfg.seed, 101])
        p102 = init_params(tiny_task.train.d, None, [tiny_cfg.seed, 102])
        assert not np.array_equal(p101.w_end, p102.w_end)

    def test_empty_error_set_falls_back(self, tiny_cfg):
        # trivially separable task: stage 1 classifies everything correctly
        y = np.array([1, -1, 1, -1] * 8)
        s = np.array([1, -1, -1, 1] * 8)
        g = np.array([0, 1, 2, 3] * 8)
        X = np.column_stack([6.0 * y, 0.1 * s])
        data = LabeledDataset(X, y, s, g)
        task = TaskData(data, data, data)
        cfg = OptimConfig(learning_rate=0.5, batch_size=8, epochs=4, seed=0)
        fit = train_jtt(task, cfg, JttConfig(3, 10.0), SelectionStrategy.NO_GP)
        assert fit.extras["jtt"]["fallback_erm"]
        assert fit.extras["jtt"]["error_set_size"] == 0
        assert fit.test_metrics.avg_acc == 1.0


class TestGroupDro:
    def test_q_trajectory_is_exponentiated_update(self, tiny_task, tiny_cfg):
        fit = train_group_dro(tiny_task, tiny_cfg, GroupDroConfig(0.3),
                              SelectionStrategy.VAL_GP)
        q_steps = fit.diagnostics["q_steps"]
        loss_steps = fit.diagnostics["group_loss_steps"]
        assert len(q_steps) == len(loss_steps)
        eta = 0.3
        q_prev = np.full(4, 0.25)
        for q_now, gl in zip(q_steps, loss_steps):
            assert q_now.min() > 0.0
            assert q_now.sum() == pytest.approx(1.0, abs=1e-12)
            present = ~np.isnan(gl)
            lifted = q_prev.copy()
            lifted[present] *= np.exp(eta * gl[present])
            lifted /= lifted.sum()
            assert np.allclose(q_now, lifted, atol=1e-12)
            q_prev = q_now
        final_q = np.array(fit.extras["group_dro"]["final_q"])
        assert np.allclose(final_q, q_steps[-1])

    def test_zero_step_keeps_uniform(self, tiny_task, tiny_cfg):
        fit = train_group_dro(tiny_task, tiny_cfg, GroupDroConfig(0.0),
                              SelectionStrategy.NO_GP)
        for q in fit.diagnostics["q_steps"]:
            assert np.array_equal(q, np.full(4, 0.25))

    def test_requires_all_groups(self, tiny_task, tiny_cfg):
        keep = tiny_task.train.group_ids != 3
        pruned = tiny_task.train.take(np.flatnonzero(keep))
        task = TaskData(pruned, tiny_task.val, tiny_task.test)
        with pytest.raises(InvalidInputError):
            train_group_dro(task, tiny_cfg, GroupDroConfig(0.1), SelectionStrategy.VAL_GP)


class TestAuxOnly:
    def test_head_left_at_init(self, tiny_task, tiny_aux, tiny_aux_val, tiny_cfg):
        fit = train_aux_only(tiny_task, tiny_aux, tiny_aux_val, tiny_cfg, 0.5)
        p0 = init_params(tiny_task.train.d, 0.5, [tiny_cfg.seed, 101],
                         l1_boundary=True, dense_init=True)
        assert np.array_equal(fit.params.w_end, p0.w_end)
        assert not np.array_equal(fit.params.W_aux, p0.W_aux)  # featurizer trained

    def test_selects_min_val_recon(self, tiny_task, tiny_aux, tiny_aux_val, tiny_cfg):
        fit = train_aux_only(tiny_task, tiny_aux, tiny_aux_val, tiny_cfg, 0.5)
        recons = [r.val_recon_loss for r in fit.trace.records]
        assert fit.val_metrics["recon_loss"] == min(recons)
        assert fit.selected_epoch == int(np.argmin(recons))

    def test_dense_init_flag(self, tiny_task, tiny_aux, tiny_aux_val, tiny_cfg):
        dense = train_aux_only(tiny_task, tiny_aux, tiny_aux_val, tiny_cfg, 0.5)
        identity = train_aux_only(tiny_task, tiny_aux, tiny_aux_val, tiny_cfg, 0.5,
                                  dense_init=False)
        assert not np.array_equal(dense.params.W_aux, identity.params.W_aux)


class TestRegMtl:
    def test_config_echo_and_feasibility(self, tiny_task, tiny_aux, tiny_cfg):
        weights = LossWeights(alpha_aux=2.0, alpha_reg=0.1, lambda_l2=1.0)
        fit = train_reg_mtl(tiny_task, tiny_aux, weights, 0.5, tiny_cfg,
                            SelectionStrategy.NO_GP)
        assert fit.config["alpha_aux"] == 2.0
        assert fit.config["alpha_reg"] == 0.1
        assert fit.config["tau"] == 0.5
        assert np.abs(fit.params.a).sum() <= 0.5 + 1e-9

    def test_determinism(self, tiny_task, tiny_aux, tiny_cfg):
        weights = LossWeights(alpha_aux=1.0, lambda_l2=1.0)
        f1 = train_reg_mtl(tiny_task, tiny_aux, weights, 0.5, tiny_cfg,
                           SelectionStrategy.NO_GP)
        f2 = train_reg_mtl(tiny_task, tiny_aux, weights, 0.5, tiny_cfg,
                           SelectionStrategy.NO_GP)
        assert np.array_equal(f1.params.a, f2.params.a)
        assert f1.test_metrics.avg_acc == f2.test_metrics.avg_acc
