import inspect
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import grouprobe.optim
from grouprobe import (
    AuxDataset,
    DivergedError,
    GroupMetrics,
    InvalidInputError,
    InvalidSpecError,
    LabeledDataset,
    Lane,
    LossWeights,
    OptimConfig,
    SelectionStrategy,
    ShapeError,
    heterogeneous_batches,
    init_params,
    sgd_step,
    train,
)
from grouprobe.linmodel import in_constraint_set
from grouprobe.objectives import recon_value


class TestOptimConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"batch_size": 0},
            {"epochs": 0},
            {"patience": -1},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"seed": -1},
            {"patience": 3},
            {"momentum": 0.5},
        ],
    )
    def test_invalid(self, kw):
        base = dict(learning_rate=0.1, batch_size=4, epochs=2)
        base.update(kw)
        with pytest.raises(InvalidSpecError):
            OptimConfig(**base)


class TestBatches:
    def test_covers_driver_stream_once(self, tiny_task):
        n = len(tiny_task.train)
        seen = []
        for ei, ai in heterogeneous_batches(tiny_task.train, None, 16, 0):
            assert ai is None
            seen.extend(ei.tolist())
        assert sorted(seen) == list(range(n))

    def test_batch_count_and_short_tail(self, tiny_task):
        n = len(tiny_task.train)
        sizes = [len(ei) for ei, _ in heterogeneous_batches(tiny_task.train, None, 32, 1)]
        assert len(sizes) == math.ceil(n / 32)
        assert sizes[-1] == n - 32 * (len(sizes) - 1)
        assert all(s == 32 for s in sizes[:-1])

    def test_shorter_stream_recycles(self, tiny_task, tiny_aux):
        short = tiny_aux.take(np.arange(10))
        batches = list(heterogeneous_batches(tiny_task.train, short, 16, 2))
        n_end = len(tiny_task.train)
        assert len(batches) == math.ceil(n_end / 16)
        aux_seen = np.concatenate([ai for _, ai in batches])
        assert len(aux_seen) == n_end
        # every index of the short stream keeps appearing instead of running out
        counts = np.bincount(aux_seen, minlength=10)
        assert counts.min() >= 1
        assert set(aux_seen.tolist()) <= set(range(10))

    def test_end_and_aux_shuffles_independent(self, tiny_task, tiny_aux):
        b1 = list(heterogeneous_batches(tiny_task.train, tiny_aux, 16, 5))
        b2 = list(heterogeneous_batches(tiny_task.train, tiny_aux, 16, 5))
        for (e1, a1), (e2, a2) in zip(b1, b2):
            assert np.array_equal(e1, e2)
            assert np.array_equal(a1, a2)
        b3 = list(heterogeneous_batches(tiny_task.train, tiny_aux, 16, 6))
        assert any(not np.array_equal(a, b) for (a, _), (b, _) in zip(b1, b3))

    def test_aux_only_stream(self, tiny_aux):
        batches = list(heterogeneous_batches(None, tiny_aux, 32, 3))
        assert all(ei is None for ei, _ in batches)
        total = sum(len(ai) for _, ai in batches)
        assert total == len(tiny_aux)

    @pytest.mark.parametrize("n_end, n_aux, batch", [(80, 10, 16), (10, 80, 7), (80, 80, 32)])
    def test_same_draws_as_lazy_index_streams(self, tiny_task, tiny_aux, n_end, n_aux, batch):
        # reference: endless streams that reshuffle whenever a pass completes,
        # each batch taking the next indices from both; for an int and a list
        # seed, the second call reads the draws the first one cached
        def stream(n, seed_seq):
            rng = np.random.default_rng(seed_seq)
            while True:
                yield from rng.permutation(n)

        end, aux = tiny_task.train.take(np.arange(n_end)), tiny_aux.take(np.arange(n_aux))
        for seed in (7, 7, [4, 2], [4, 2]):
            end_ref, aux_ref = (stream(n, c) for n, c in
                                zip((n_end, n_aux), np.random.SeedSequence(seed).spawn(2)))
            for ei, ai in heterogeneous_batches(end, aux, batch, seed):
                assert ei.tolist() == list(itertools.islice(end_ref, len(ei)))
                assert ai.tolist() == list(itertools.islice(aux_ref, len(ai)))

    def test_cached_schedule_is_shared_read_only(self, tiny_task, tiny_aux):
        first = list(heterogeneous_batches(tiny_task.train, tiny_aux, 16, [3, 1]))
        again = list(heterogeneous_batches(tiny_task.train, tiny_aux, 16, (3, 1)))
        for (e1, a1), (e2, a2) in zip(first, again, strict=True):
            # one draw per stream, its slices handed to both calls
            assert np.shares_memory(e1, e2) and np.shares_memory(a1, a2)
            for idx in (e1, a1):
                with pytest.raises(ValueError, match="read-only"):
                    idx[0] = 0
        schedule = grouprobe.optim._index_schedule(10, 25, (3, 1), 0)
        assert schedule is grouprobe.optim._index_schedule(10, 25, (3, 1), 0)
        with pytest.raises(ValueError, match="read-only"):
            schedule[:] = 0

    def test_seed_none_refused(self, tiny_task):
        # SeedSequence(None) draws fresh entropy, which a cached draw would not
        with pytest.raises(TypeError):
            list(heterogeneous_batches(tiny_task.train, None, 16, None))

    def test_is_a_generator_function(self):
        # bench/tracer.py wraps it as a generator and counts one per epoch
        assert inspect.isgeneratorfunction(grouprobe.optim.heterogeneous_batches)

    def test_no_stream_rejected(self):
        with pytest.raises(InvalidInputError):
            list(heterogeneous_batches(None, None, 4, 0))

    def test_bad_batch_size(self, tiny_task):
        with pytest.raises(InvalidSpecError):
            list(heterogeneous_batches(tiny_task.train, None, 0, 0))


def _rows(p):
    return p.a, p.w_end, p.W_aux


class TestSgdStep:
    def _grads(self, d, scale=1.0):
        return np.full(d, scale), np.full(d, -scale), np.full((d, d), scale)

    def test_plain_step(self):
        # of params only the constraint set is read: the step is on `arrays`
        p, g = init_params(2, None, 0, fro_radius=None), self._grads(2)
        arrays = _rows(init_params(2, None, 1, fro_radius=None, dense_init=True))
        ins = [x.copy() for x in arrays]
        q = sgd_step(p, arrays, g, 0.1)
        # no constraint set: exactly arrays - lr * grads, block by block
        for got, x, grad in zip(q, arrays, g, strict=True):
            assert np.array_equal(got, x - 0.1 * grad)
        # the input rows are not written
        assert all(np.array_equal(x, x0) for x, x0 in zip(arrays, ins))

    def test_ball_projection_applied(self):
        p = init_params(2, 1.0, 0)
        q = sgd_step(p, _rows(p), self._grads(2, scale=-1.0), 5.0)
        assert np.abs(q[0]).sum() <= 1.0 + 1e-9
        assert in_constraint_set(p, *q)
        assert replace(p, a=q[0], w_end=q[1], W_aux=q[2]).feasible()

    def test_sphere_rescale_applied(self):
        p = init_params(2, 1.0, 0, l1_boundary=True)
        a, _, _ = sgd_step(p, _rows(p), self._grads(2), 0.3)
        assert abs(np.abs(a).sum() - 1.0) < 1e-9

    def test_fro_radius_maintained(self):
        p = init_params(3, 1.0, 1)
        _, _, W_aux = sgd_step(p, _rows(p), self._grads(3), 0.5)
        assert abs(np.linalg.norm(W_aux) - 1.0) < 1e-9

    def test_infeasible_projection_raises(self):
        # a step to |a| ~ 1e15 projects to L1 norm 0.125, above tau = 0.1
        p = init_params(2, 0.1, 0)
        g = (np.array([-1.0, 0.0]), np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(DivergedError, match="infeasible"):
            sgd_step(p, _rows(p), g, 1e15)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_gradient_raises(self):
        """sgd_step makes no finiteness check of its own (train makes it once
        per group step), yet a NaN or +-inf entry in any gradient block
        raises in every constraint set: the projection or the feasibility
        check catches it."""
        sets = {"free": dict(tau=None), "ball": dict(tau=1.0),
                "sphere": dict(tau=1.0, l1_boundary=True)}
        for (name, kw), fro, block, bad in itertools.product(
                sets.items(), (None, 1.0), range(3), (np.nan, np.inf, -np.inf)):
            p = init_params(3, seed=0, fro_radius=fro, **kw)
            g = self._grads(3)
            g[block].flat[-1] = bad
            with pytest.raises(DivergedError):
                sgd_step(p, _rows(p), g, 0.1)
                pytest.fail(f"{name}, fro_radius {fro}: {bad} in gradient block {block} stepped")


class TestTrain:
    def _run(self, task, aux, cfg, tau=0.5, weights=None, selector=SelectionStrategy.NO_GP):
        params = init_params(task.train.d, tau, [cfg.seed, 101])
        weights = weights or LossWeights(alpha_aux=1.0, lambda_l2=1.0)
        return train([Lane(params, task.train, aux, weights, cfg, task.val, selector)])[0]

    def test_one_record_per_epoch(self, tiny_task, tiny_aux, tiny_cfg):
        trace, _ = self._run(tiny_task, tiny_aux, tiny_cfg)
        epochs = tiny_cfg.epochs
        for column in (trace.train_loss, trace.val_avg_acc, trace.val_wg_acc):
            assert column.shape == (epochs,)
        assert trace.val_group_acc.shape == (epochs, 4)
        assert trace.val_recon_loss is None  # no val_aux

    def test_selected_checkpoint_is_argmax(self, tiny_task, tiny_aux, tiny_cfg):
        trace, best = self._run(tiny_task, tiny_aux, tiny_cfg)
        series = trace.val_avg_acc.tolist()
        # the selected record holds the maximum, and no earlier epoch does
        assert series[trace.selected_epoch] == max(series)
        assert trace.selected_epoch == series.index(max(series))
        # epochs draw their batches from [seed, epoch], so a run cut short
        # after the selected epoch ends on exactly the returned parameters
        cut, _ = self._run(tiny_task, tiny_aux, replace(tiny_cfg, epochs=trace.selected_epoch + 1))
        assert np.array_equal(best.a, cut.final_params.a)
        assert np.array_equal(best.w_end, cut.final_params.w_end)
        assert np.array_equal(best.W_aux, cut.final_params.W_aux)

    def test_bit_determinism(self, tiny_task, tiny_aux, tiny_cfg):
        t1, b1 = self._run(tiny_task, tiny_aux, tiny_cfg)
        t2, b2 = self._run(tiny_task, tiny_aux, tiny_cfg)
        assert np.array_equal(b1.a, b2.a)
        assert np.array_equal(b1.w_end, b2.w_end)
        assert np.array_equal(b1.W_aux, b2.W_aux)
        assert t1.train_loss.tobytes() == t2.train_loss.tobytes()

    def test_feasibility_every_epoch(self, tiny_task, tiny_aux, tiny_cfg, monkeypatch):
        # checked after every step, which is stricter than every epoch
        stepped = []

        def checked_step(params, *args):
            out = sgd_step(params, *args)
            assert params.tau == 0.2 and in_constraint_set(params, *out)
            assert np.abs(out[0]).sum() <= 0.2 + 1e-9
            stepped.append(out)
            return out

        monkeypatch.setattr(grouprobe.optim, "sgd_step", checked_step)
        trace, best = self._run(tiny_task, tiny_aux, tiny_cfg, tau=0.2)
        per_epoch = math.ceil(len(tiny_task.train) / tiny_cfg.batch_size)
        assert len(stepped) == tiny_cfg.epochs * per_epoch
        assert all(np.array_equal(x, y) for x, y in zip(_rows(trace.final_params), stepped[-1],
                                                         strict=True))
        assert trace.final_params.feasible() and best.feasible()

    def test_all_losses_finite(self, tiny_task, tiny_aux, tiny_cfg):
        trace, _ = self._run(tiny_task, tiny_aux, tiny_cfg)
        assert np.isfinite(trace.train_loss).all()

    def test_nonfinite_loss_raises(self, tiny_task, tiny_cfg, monkeypatch):
        # a weight hook that turns the loss NaN from the second epoch on
        params = init_params(tiny_task.train.d, None, 0, fro_radius=None)
        per_epoch = math.ceil(len(tiny_task.train) / tiny_cfg.batch_size)
        hooked, stepped = [], []

        def hook(nll, group_ids):
            hooked.append(len(nll))
            return np.full(len(nll), 1.0 if len(hooked) <= per_epoch else np.nan)

        def counting_step(*args):
            stepped.append(1)
            return sgd_step(*args)

        monkeypatch.setattr(grouprobe.optim, "sgd_step", counting_step)
        with pytest.raises(DivergedError, match=r"non-finite training loss \(epoch 1\)") as exc:
            train([Lane(params, tiny_task.train, None, LossWeights(), tiny_cfg,
                        tiny_task.val, SelectionStrategy.NO_GP, sample_weights=hook)])
        assert exc.value.epoch == 1
        # the NaN step raised before its parameter update
        assert len(hooked) == per_epoch + 1
        assert len(stepped) == per_epoch

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("tau,alpha_aux", [(0.1, 0.0), (0.1, 10.0), (10.0, 10.0)])
    def test_huge_learning_rate_raises_diverged(self, tiny_task, tiny_aux, tau, alpha_aux):
        # the step swamps tau in float64, so the L1 projection cannot hold
        cfg = OptimConfig(learning_rate=1e300, batch_size=16, epochs=2, seed=0)
        weights = LossWeights(alpha_aux=alpha_aux, lambda_l2=1.0)
        with pytest.raises(DivergedError, match=r"\(epoch 0\)$"):
            self._run(tiny_task, tiny_aux if alpha_aux else None, cfg, tau=tau, weights=weights)

    def test_aux_only_requires_val_aux(self, tiny_aux, tiny_cfg):
        params = init_params(tiny_aux.d, 1.0, 0)
        with pytest.raises(InvalidInputError, match="needs val_aux"):
            Lane(params, None, tiny_aux, LossWeights(), tiny_cfg, None, SelectionStrategy.NO_GP)

    def test_end_training_requires_val(self, tiny_task, tiny_cfg):
        params = init_params(tiny_task.train.d, None, 0, fro_radius=None)
        with pytest.raises(InvalidInputError, match="validation data must be non-empty"):
            Lane(params, tiny_task.train, None, LossWeights(), tiny_cfg, None,
                 SelectionStrategy.NO_GP)

    def test_sample_weights_checked_at_entry(self, tiny_task, tiny_aux, tiny_aux_val, tiny_cfg,
                                             monkeypatch):
        stepped = []

        def counting_step(*args):
            stepped.append(1)
            return sgd_step(*args)

        monkeypatch.setattr(grouprobe.optim, "sgd_step", counting_step)
        params = init_params(tiny_task.train.d, None, 0, fro_radius=None)
        n = len(tiny_task.train)

        def end_lane(sw, cfg=tiny_cfg):
            return Lane(params, tiny_task.train, None, LossWeights(), cfg, tiny_task.val,
                        SelectionStrategy.NO_GP, sample_weights=sw)

        first_group = end_lane(None, replace(tiny_cfg, batch_size=8))
        # a NaN or inf weight is bad input, not a diverged run
        nan, inf = (np.where(np.arange(n) == 3, bad, 1.0) for bad in (np.nan, np.inf))
        for sw, error in ((-np.ones(n), InvalidInputError), (np.ones(n - 1), ShapeError),
                          (nan, InvalidInputError), (inf, InvalidInputError)):
            with pytest.raises(error):
                end_lane(sw)
            # a bad lane in a later group is refused before the first group trains
            with pytest.raises(error):
                train([first_group, end_lane(sw)])
        assert stepped == []
        # without an end stream there is nothing to weight, fixed or hooked
        for sw in (np.ones(n), lambda nll, group_ids: np.ones(len(nll))):
            with pytest.raises(InvalidInputError, match="needs an end stream"):
                Lane(params, None, tiny_aux, LossWeights(), tiny_cfg, tiny_task.val,
                     SelectionStrategy.NO_GP, sample_weights=sw, val_aux=tiny_aux_val)
        # every run validates on val_data, aux-only runs too
        with pytest.raises(InvalidInputError, match="validation data must be non-empty"):
            Lane(params, None, tiny_aux, LossWeights(), tiny_cfg, None,
                 SelectionStrategy.NO_GP, val_aux=tiny_aux_val)
        wide = init_params(tiny_task.train.d + 1, None, 0, fro_radius=None)
        with pytest.raises(ShapeError):
            Lane(wide, tiny_task.train, None, LossWeights(), tiny_cfg, tiny_task.val,
                 SelectionStrategy.NO_GP)

    def test_empty_training_stream_refused_when_built(self, tiny_task, tiny_aux, tiny_aux_val,
                                                      tiny_cfg):
        params = init_params(tiny_task.train.d, 0.5, 0)
        no_rows = np.arange(0)
        for end, aux, val_aux in ((tiny_task.train.take(no_rows), None, None),
                                  (tiny_task.train, tiny_aux.take(no_rows), None),
                                  (None, tiny_aux.take(no_rows), tiny_aux_val)):
            with pytest.raises(InvalidInputError, match="cannot batch an empty dataset"):
                Lane(params, end, aux, LossWeights(alpha_aux=1.0), tiny_cfg, tiny_task.val,
                     SelectionStrategy.NO_GP, val_aux=val_aux)

    def test_fixed_weights_kept_as_the_checked_column(self, tiny_task, tiny_cfg):
        params = init_params(tiny_task.train.d, None, 0, fro_radius=None)

        def lane(sw):
            return Lane(params, tiny_task.train, None, LossWeights(), tiny_cfg, tiny_task.val,
                        SelectionStrategy.NO_GP, sample_weights=sw)

        ints = (np.arange(len(tiny_task.train)) % 2 + 1).tolist()
        kept = lane(ints).sample_weights
        assert kept.dtype == np.float64 and kept.tolist() == ints
        assert lane(None).sample_weights is None

        def hook(nll, group_ids):
            return np.ones(len(nll))

        assert lane(hook).sample_weights is hook

    def test_validation_sets_checked_at_entry(self, tiny_task, tiny_aux, tiny_aux_val, tiny_cfg):
        """A validation set of the wrong width, or an empty val_aux, is
        refused when the lane is built, not after a full epoch."""
        val = tiny_task.val
        wide_val = LabeledDataset(np.column_stack([val.features, val.features[:, :1]]),
                                  val.labels, val.spurious_attrs, val.group_ids)
        wide_aux_val = AuxDataset(np.column_stack([tiny_aux_val.noised] * 2),
                                  np.column_stack([tiny_aux_val.targets] * 2))
        params = init_params(tiny_task.train.d, 0.5, 0)
        end = dict(end_data=tiny_task.train, aux_data=None, val_data=wide_val)
        aux_only = dict(end_data=None, aux_data=tiny_aux, val_data=val, val_aux=wide_aux_val)
        for streams in (end, aux_only):
            with pytest.raises(ShapeError, match="validation data feature dim"):
                Lane(params=params, weights=LossWeights(), cfg=tiny_cfg,
                     selector=SelectionStrategy.NO_GP, **streams)
        with pytest.raises(InvalidInputError, match="validation data must be non-empty"):
            Lane(params, None, tiny_aux, LossWeights(), tiny_cfg, val, SelectionStrategy.NO_GP,
                 val_aux=tiny_aux_val.take(np.arange(0)))

    def test_trace_csv(self, tiny_task, tiny_aux, tiny_cfg, tmp_path):
        trace, _ = self._run(tiny_task, tiny_aux, tiny_cfg)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_avg_acc,val_wg_acc,g0,g1,g2,g3"
        assert len(lines) == 1 + tiny_cfg.epochs
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == repr(float(trace.train_loss[0]))


class TestSelection:
    """train() is the one place a checkpoint is selected."""

    EPOCHS = 4

    def _fit(self, task, aux, aux_val, selector, monkeypatch, script, epochs=EPOCHS):
        """Train with validation metrics replaced by `script`, one value per
        epoch: (avg, wg) accuracy pairs, or reconstruction losses when
        `aux_val` is given (aux-only training)."""
        values = iter(script)

        def scripted_evaluate(params, data):
            # the group's one stacked call per epoch, for its one lane
            avg, wg = (0.5, 0.5) if aux_val is not None else next(values)
            return GroupMetrics(np.full((1, 4), wg), np.full((1, 4), 1), np.array([avg]),
                                np.array([wg]), np.array([True]))

        def scripted_recon(H, X0, W_aux):
            # the validation loss, the group's one call per epoch
            _, residual = recon_value(H, X0, W_aux)
            return np.array([next(values)]), residual

        monkeypatch.setattr(grouprobe.optim, "evaluate", scripted_evaluate)
        monkeypatch.setattr(grouprobe.optim, "recon_value", scripted_recon)
        cfg = OptimConfig(learning_rate=0.01, batch_size=16, epochs=epochs, seed=3)
        params = init_params(task.train.d, 0.5, [3, 101])
        if aux_val is not None:
            return train([Lane(params, None, aux, LossWeights(), cfg, task.val, selector,
                               val_aux=aux_val)])[0]
        return train([Lane(params, task.train, None, LossWeights(), cfg, task.val, selector)])[0]

    def test_argmax_and_tie(self, tiny_task, tiny_aux, tiny_aux_val, monkeypatch):
        avg = [0.5, 0.9, 0.9, 0.7]
        wg = [0.2, 0.1, 0.4, 0.4]
        cases = [
            (SelectionStrategy.NO_GP, None, list(zip(avg, wg)), 1),
            (SelectionStrategy.VAL_GP, None, list(zip(avg, wg)), 2),
            (SelectionStrategy.NO_GP, tiny_aux_val, [0.3, 0.1, 0.1, 0.2], 1),
        ]
        for selector, aux_val, script, want in cases:
            trace, best = self._fit(tiny_task, tiny_aux, aux_val, selector, monkeypatch, script)
            assert trace.selected_epoch == want
            cut, _ = self._fit(tiny_task, tiny_aux, aux_val, selector, monkeypatch,
                               script, epochs=want + 1)
            assert np.array_equal(best.a, cut.final_params.a)
            assert np.array_equal(best.w_end, cut.final_params.w_end)
            assert np.array_equal(best.W_aux, cut.final_params.W_aux)

    def test_nan_epoch_never_selected(self, tiny_task, tiny_aux, tiny_aux_val, monkeypatch):
        nan = float("nan")
        cases = [
            (SelectionStrategy.NO_GP, None, [(nan, 0.1), (0.5, 0.1), (nan, 0.9), (0.4, 0.1)]),
            (SelectionStrategy.VAL_GP, None, [(0.5, nan), (0.5, 0.3), (0.9, nan), (0.5, 0.2)]),
            (SelectionStrategy.NO_GP, tiny_aux_val, [nan, 0.2, nan, 0.3]),
        ]
        for selector, aux_val, script in cases:
            trace, _ = self._fit(tiny_task, tiny_aux, aux_val, selector, monkeypatch, script)
            assert trace.selected_epoch == 1

    def test_no_selectable_epoch_rejected(self, tiny_task, tiny_aux, tiny_aux_val, monkeypatch):
        nan = float("nan")
        with pytest.raises(DivergedError):
            self._fit(tiny_task, tiny_aux, None, SelectionStrategy.VAL_GP, monkeypatch,
                      [(0.5, nan)] * self.EPOCHS)
        with pytest.raises(DivergedError):
            self._fit(tiny_task, tiny_aux, tiny_aux_val, SelectionStrategy.NO_GP, monkeypatch,
                      [nan] * self.EPOCHS)

    def test_lowest_unselectable_lane_is_named(self, tiny_task, monkeypatch):
        """In a 3-lane group whose lanes 1 and 2 have no finite metric in any
        epoch, the error names lane 1 by tag and seed."""
        nan = float("nan")
        # each epoch's (avg, wg) accuracy per lane: lane 0 finite throughout
        avg, wg = np.array([0.5, nan, nan]), np.array([0.4, 0.6, nan])

        def scripted_evaluate(params, data):
            return GroupMetrics(np.full((3, 4), 0.5), np.ones((3, 4)), avg, wg,
                                np.ones(3, dtype=bool))

        monkeypatch.setattr(grouprobe.optim, "evaluate", scripted_evaluate)
        lanes = []
        for r, selector in enumerate([SelectionStrategy.NO_GP] * 2 + [SelectionStrategy.VAL_GP]):
            cfg = OptimConfig(learning_rate=0.01, batch_size=16, epochs=self.EPOCHS, seed=3 + r)
            lanes.append(Lane(init_params(tiny_task.train.d, 0.5, [cfg.seed, 101]), tiny_task.train,
                              None, LossWeights(), cfg, tiny_task.val, selector, tag=f"lane{r}"))
        with pytest.raises(DivergedError) as exc:
            train(lanes)
        assert (exc.value.tag, exc.value.seed, exc.value.epoch) == ("lane1", 4, None)
        assert str(exc.value) == "no epoch had a finite selection metric (run lane1, seed 4)"

    def test_ties_pick_earliest_epoch(self, tiny_task, tiny_aux, tiny_aux_val):
        # a step this small leaves every parameter bit unchanged, so every
        # epoch ties exactly on the real validation metrics
        cfg = OptimConfig(learning_rate=1e-300, batch_size=16, epochs=self.EPOCHS, seed=3)
        for selector in SelectionStrategy:
            params = init_params(tiny_task.train.d, 0.5, [3, 101])
            [(trace, _)] = train([Lane(params, tiny_task.train, tiny_aux,
                                       LossWeights(alpha_aux=1.0), cfg, tiny_task.val, selector)])
            key = "val_avg_acc" if selector is SelectionStrategy.NO_GP else "val_wg_acc"
            assert len(set(getattr(trace, key).tolist())) == 1
            assert trace.selected_epoch == 0
        params = init_params(tiny_task.train.d, 0.5, [3, 101], l1_boundary=True, dense_init=True)
        [(trace, _)] = train([Lane(params, None, tiny_aux, LossWeights(), cfg, tiny_task.val,
                                   SelectionStrategy.NO_GP, val_aux=tiny_aux_val)])
        assert len(set(trace.val_recon_loss.tolist())) == 1
        assert trace.selected_epoch == 0
