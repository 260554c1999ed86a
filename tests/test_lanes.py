"""Lane groups of `optim.train` against the per-run loop they replaced.

`reference_train` is the training loop as it was before lanes: one run, one
`joint_terms` call on that run alone, a stack of one lane, and one
`sgd_step` call per step, one schedule per epoch.  It is kept here, the way
`test_io_equivalence.py` keeps the old row loops, and every lane of a
`train` call, whether it shares its group with other lanes or trains alone,
must match its own reference run bit for bit: every per-epoch trace column,
the selected epoch, and the selected and final parameters.  The reference
selects its checkpoint epoch by epoch, by the scalar rule `metric > best`,
not by `train`'s argmax, and draws every schedule afresh, past the cache
that `train`'s lanes of one seed and stream lengths share.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import grouprobe.optim
from grouprobe import (
    AuxDataset,
    DivergedError,
    GroupDroConfig,
    JttConfig,
    RunSpec,
    TaskData,
    GroupDataSpec,
    InvalidInputError,
    Lane,
    LossWeights,
    ModelParams,
    OptimConfig,
    SelectionStrategy,
    ShapeError,
    classify,
    evaluate,
    fit,
    fit_lanes,
    heterogeneous_batches,
    init_params,
    noise_dataset,
    sample_group_dataset,
    sgd_step,
    train,
)
from grouprobe.baselines import _group_reweighting
from grouprobe.objectives import (
    LaneWeights,
    check_sample_weights,
    end_stream,
    featurize,
    joint_terms,
    multitask_loss,
    recon_value,
)
from grouprobe.optim import TrainTrace, _lockstep_key

SPEC = GroupDataSpec(d_c=1, d_s=1, sigma2_core=0.6, sigma2_spur=0.1,
                     n_maj=18, n_min=6, sigma2_noise=1.0)
VAL_SPEC = GroupDataSpec(d_c=1, d_s=1, sigma2_core=0.6, sigma2_spur=0.1,
                         n_maj=8, n_min=4, sigma2_noise=1.0)
# `lane_groups` validates on 60 rows, where a lane's average and worst-group
# accuracies peak at different epochs far more often than on 12
LONG_VAL_SPEC = replace(VAL_SPEC, n_maj=40, n_min=20)
SEEDS = (4, 9)
# TrainTrace's per-epoch columns
TRACE_COLUMNS = ("train_loss", "val_avg_acc", "val_wg_acc", "val_group_acc", "val_recon_loss")


@functools.cache
def seed_data(seed: int):
    """(train, val, aux train, aux val) of one seed; every seed's sets have
    the same sizes."""
    train_set = sample_group_dataset(SPEC, [seed, 10])
    val_set = sample_group_dataset(VAL_SPEC, [seed, 11])
    return (train_set, val_set, noise_dataset(train_set, 1.0, [seed, 12]),
            noise_dataset(val_set, 1.0, [seed, 14]))


@functools.cache
def long_val_data(seed: int):
    """The 60-row validation set of a seed."""
    return sample_group_dataset(LONG_VAL_SPEC, [seed, 15])


def reference_train(params, end_data, aux_data, weights, cfg, val_data, selector,
                    sample_weights=None, val_aux=None):
    """One run of projected SGD, step by step, as `train` ran before lanes."""
    aux_only = end_data is None
    hook = sample_weights if callable(sample_weights) else None
    if not aux_only:
        weight_column = (end_data.group_ids if hook is not None
                         else check_sample_weights(sample_weights, len(end_data)))
        end_columns = (*end_stream(end_data), weight_column)
    aux_columns = None if aux_data is None else (aux_data.noised, aux_data.targets)
    lane_weights = LaneWeights.stack([weights])

    columns = {k: [] for k in TRACE_COLUMNS}
    best_metric, best_params, selected = -np.inf, None, -1
    for ep in range(cfg.epochs):
        batches = list(heterogeneous_batches(end_data, aux_data, cfg.batch_size, [cfg.seed, ep]))
        if not aux_only:
            rows = np.concatenate([ei for ei, _ in batches])
            X, neg_y, t, w = (None if c is None else c[rows] for c in end_columns)
        if aux_columns is not None:
            rows = np.concatenate([ai for _, ai in batches])
            Xt, X0 = (c[rows] for c in aux_columns)
        loss_sum, seen = 0.0, 0
        for ei, ai in batches:
            size = len(ei) if ei is not None else len(ai)
            rows = slice(seen, seen + size)
            seen += size
            end = aux = batch_weights = None
            if ei is not None:
                end = (X[rows], neg_y[rows], t[rows])
                if w is not None:
                    # the hook sees the run's own row of losses
                    batch_weights = (w[rows] if hook is None
                                     else lambda nll, g=w[rows]: hook(nll[0], group_ids=g))
            if ai is not None:
                aux = (Xt[rows], X0[rows])
            le = joint_terms(params.a[None], params.w_end[None], params.W_aux[None], lane_weights,
                             end, aux, batch_weights)
            value = float(le.value[0])
            if not math.isfinite(value):
                raise DivergedError("non-finite training loss", epoch=ep)
            loss_sum += value * size
            a, w_end, W_aux = sgd_step(params, (params.a, params.w_end, params.W_aux),
                                       (le.grad_a[0], le.grad_w_end[0], le.grad_W_aux[0]),
                                       cfg.learning_rate)
            params = replace(params, a=a, w_end=w_end, W_aux=W_aux)
        vm = evaluate(params, val_data)
        val_recon = (None if val_aux is None
                     else multitask_loss(params, None, val_aux, LossWeights()).value)
        for key, value in zip(columns, (loss_sum / seen, vm.avg_acc, vm.wg_acc,
                                        vm.per_group_acc, val_recon)):
            columns[key].append(value)
        if aux_only:
            metric = -val_recon
        elif selector is SelectionStrategy.VAL_GP:
            metric = vm.wg_acc
        else:
            metric = vm.avg_acc
        if metric > best_metric:
            best_metric, best_params, selected = metric, params, ep
    if best_params is None:
        raise DivergedError("no epoch had a finite selection metric")
    trace = TrainTrace(**{k: None if v[0] is None else np.array(v) for k, v in columns.items()},
                       selected_epoch=selected, final_params=params)
    return trace, best_params


def assert_same_run(got, want):
    (trace, best), (ref_trace, ref_best) = got, want
    assert trace.selected_epoch == ref_trace.selected_epoch
    for key in TRACE_COLUMNS:
        got_column, want_column = getattr(trace, key), getattr(ref_trace, key)
        assert (got_column is None) == (want_column is None), key
        if want_column is not None:
            assert got_column.dtype == want_column.dtype == np.float64, key
            assert got_column.shape == want_column.shape, key
            assert got_column.tobytes() == want_column.tobytes(), key
    for p, q in ((best, ref_best), (trace.final_params, ref_trace.final_params)):
        for block in ("a", "w_end", "W_aux"):
            assert np.array_equal(getattr(p, block), getattr(q, block)), block


def _reference(lane: Lane):
    uncached = grouprobe.optim._index_schedule.__wrapped__
    with mock.patch.object(grouprobe.optim, "_index_schedule", uncached):
        return reference_train(lane.params, lane.end_data, lane.aux_data, lane.weights, lane.cfg,
                               lane.val_data, lane.selector, lane.sample_weights, lane.val_aux)


@st.composite
def lane_groups(draw, weighted=False):
    """R lanes of one method that share a lockstep key: each with its own
    data seed, learning rate, L1 constraint, loss weights and checkpoint
    selector, and one zero pattern of alpha_aux and alpha_reg.  Each erm
    lane draws fixed sample weights or none; `weighted=True` draws erm
    lanes, the first with fixed sample weights.  The lanes validate on 60
    rows for 4-8 epochs, so that their average and worst-group accuracies
    often peak at different epochs and each lane's selector matters."""
    method = "erm" if weighted else draw(st.sampled_from(["erm", "reg_mtl", "aux_only"]))
    lanes = draw(st.sampled_from([1, 3, 7]))
    batch = draw(st.sampled_from([1, 5, 16, 40]))  # 40 > n: one batch per epoch
    cfg = {"batch_size": batch, "epochs": draw(st.integers(4, 8))}
    aux_on = method == "reg_mtl" and draw(st.booleans())
    reg_on = method != "erm" and draw(st.booleans())
    group = []
    for r in range(lanes):
        seed = draw(st.sampled_from(SEEDS))
        train_set, _, aux, aux_val = seed_data(seed)
        mode = draw(st.sampled_from(["free", "ball", "sphere"]))
        tau = None if mode == "free" else draw(st.sampled_from([0.1, 0.5, 10.0]))
        params = init_params(train_set.d, tau, [seed, 101], l1_boundary=mode == "sphere",
                             dense_init=method == "aux_only")
        weights = LossWeights(
            alpha_aux=draw(st.sampled_from([0.3, 1.0, 2.5])) if aux_on else 0.0,
            alpha_reg=draw(st.sampled_from([0.1, 1.0])) if reg_on else 0.0,
            lambda_l2=draw(st.sampled_from([0.0, 0.5, 1.0])))
        sw = None
        if method == "erm" and ((weighted and r == 0) or draw(st.booleans())):
            sw = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
                0.0, 3.0, size=len(train_set))
        lr = draw(st.sampled_from([0.5, 0.2, 0.03, 0.001]))
        group.append(Lane(
            params, None if method == "aux_only" else train_set,
            None if method == "erm" else aux, weights,
            OptimConfig(learning_rate=lr, seed=seed, **cfg), long_val_data(seed),
            draw(st.sampled_from(list(SelectionStrategy))), sw,
            aux_val if method == "aux_only" else None))
    return group


@given(lane_groups())
@settings(max_examples=150, deadline=None)
def test_lane_group_matches_reference_runs(group):
    got = train(group)
    assert len(got) == len(group)
    for lane, result in zip(group, got):
        assert_same_run(result, _reference(lane))


def _erm_lane(seed=4, lr=0.01, tau=0.5, batch=8, tag=None, **kw):
    train_set, val_set, _, _ = seed_data(seed)
    return Lane(init_params(train_set.d, tau, [seed, 101]), train_set, None,
                LossWeights(lambda_l2=1.0), OptimConfig(lr, batch, 2, seed=seed), val_set,
                SelectionStrategy.NO_GP, tag=tag, **kw)


def test_seven_lanes_over_two_seeds_and_each_alone():
    """The group result does not depend on the group: each lane equals its
    one-lane train() call and its reference run."""
    group = [_erm_lane(seed=SEEDS[r % 2], lr=0.01 * (r + 1), tau=(None, 0.1, 0.5)[r % 3])
             for r in range(7)]
    for lane, result in zip(group, train(group)):
        assert_same_run(result, train([lane])[0])
        assert_same_run(result, _reference(lane))


def test_returned_parameters_own_their_memory(group_sizes):
    """No two returned parameter blocks share memory, across lanes and
    between a lane's selected and final parameters, and none shares memory
    with a lane's input parameters, which keep their values: the group's
    steps write rows of stacks of its own."""
    group = []
    for r in range(4):
        lane = _erm_lane(seed=SEEDS[r % 2], lr=0.1 * (r + 1), tau=(None, 0.5)[r % 2])
        group.append(replace(lane, cfg=replace(lane.cfg, epochs=4),
                             val_data=long_val_data(SEEDS[r % 2])))
    given = [getattr(lane.params, k) for lane in group for k in ("a", "w_end", "W_aux")]
    before = [x.copy() for x in given]
    results = train(group)
    assert group_sizes == [4]
    # two lanes select the last epoch, whose stacks are also the final ones
    assert [trace.selected_epoch for trace, _ in results] == [0, 3, 2, 3]
    returned = [getattr(p, k) for trace, best in results for p in (best, trace.final_params)
                for k in ("a", "w_end", "W_aux")]
    for i, x in enumerate(returned):
        for y in returned[i + 1:] + given:
            assert not np.shares_memory(x, y)
    assert all(np.array_equal(x, x0) for x, x0 in zip(given, before, strict=True))


def test_lanes_of_one_seed_draw_each_schedule_once():
    """Lanes of one seed and stream lengths draw each epoch's schedule once,
    in their group and in a later group of another batch size, and each
    still equals its reference run, which draws its own."""
    grouprobe.optim._index_schedule.cache_clear()
    lanes = [_erm_lane(lr=0.01 * (r + 1), tau=(None, 0.1, 0.5)[r % 3], batch=(8, 8, 8, 5, 5)[r])
             for r in range(5)]
    got = train(lanes)
    info = grouprobe.optim._index_schedule.cache_info()
    # an end stream over 2 epochs; per epoch 1 draw, then 2 hits in the
    # first group and 2 in the second
    assert (info.misses, info.hits) == (2, 8)
    for lane, result in zip(lanes, got):
        assert_same_run(result, _reference(lane))


@st.composite
def mixed_lanes(draw):
    """The lanes of 2-3 lane groups with different lockstep keys, one of
    them erm with fixed sample weights on its first lane (and on any of
    its others), shuffled into one list."""
    groups = [draw(lane_groups(weighted=True))]
    groups += draw(st.lists(lane_groups(), min_size=1, max_size=2))
    assume(len({_lockstep_key(group[0]) for group in groups}) == len(groups))
    return draw(st.permutations([lane for group in groups for lane in group]))


@given(mixed_lanes())
@settings(max_examples=40, deadline=None)
def test_mixed_lanes_match_reference_runs_in_input_order(lanes):
    got = train(lanes)
    assert len(got) == len(lanes)
    for lane, result in zip(lanes, got):
        assert_same_run(result, _reference(lane))


@pytest.mark.parametrize("change", [
    {"batch": 16},
])
def test_incompatible_lanes_train_apart(change, group_sizes):
    lanes = [_erm_lane(), _erm_lane(seed=9, **change), _erm_lane(lr=0.05)]
    got = train(lanes)
    assert group_sizes == [2, 1]
    for lane, result in zip(lanes, got):
        assert_same_run(result, _reference(lane))


def test_weighted_and_unweighted_lanes_share_a_group(group_sizes):
    """Fixed sample weights need no group of their own: a lane without
    them trains on all-ones weights, so a jtt second stage and erm runs
    of one shape share a step."""
    n = len(seed_data(9)[0])
    upweighted = np.where(np.arange(n) % 5 == 0, 5.0, 1.0)
    lanes = [_erm_lane(), _erm_lane(seed=9, tau=None, lr=0.1,
                                    sample_weights=upweighted / upweighted.mean()),
             _erm_lane(lr=0.05, sample_weights=np.ones(n))]
    got = train(lanes)
    assert group_sizes == [3]
    for lane, result in zip(lanes, got):
        assert_same_run(result, _reference(lane))


def test_each_lane_selects_by_its_own_selector(group_sizes):
    """The lockstep key has no selector clause, so VAL_GP and NO_GP lanes
    share a group, and each lane's checkpoint follows its own selector.  At
    this rate lane 0's average and worst-group accuracies peak at different
    epochs."""
    def lane(seed, selector):
        lane = _erm_lane(seed=seed, lr=0.5, tau=10.0, batch=5)
        return replace(lane, cfg=replace(lane.cfg, epochs=6), selector=selector)

    lanes = [lane(4, SelectionStrategy.NO_GP), lane(4, SelectionStrategy.VAL_GP),
             lane(9, SelectionStrategy.NO_GP)]
    got = train(lanes)
    assert group_sizes == [3]
    assert [trace.selected_epoch for trace, _ in got[:2]] == [2, 1]
    for lane, result in zip(lanes, got):
        assert_same_run(result, _reference(lane))


def test_zero_patterns_train_apart_and_hooks_share_a_group(group_sizes):
    train_set, val_set, aux, _ = seed_data(4)
    cfg = OptimConfig(0.01, 8, 1, seed=4)
    params = init_params(train_set.d, 0.5, [4, 101])

    def mtl(**w):
        return Lane(params, train_set, aux, LossWeights(**w), cfg, val_set,
                    SelectionStrategy.NO_GP)

    lanes = [mtl(alpha_aux=1.0), mtl(alpha_aux=1.0, alpha_reg=0.5),
             mtl(alpha_aux=2.0, lambda_l2=0.5)]  # values may differ within a group
    for lane, result in zip(lanes, train(lanes)):
        assert_same_run(result, _reference(lane))
    assert group_sizes == [2, 1]

    # hook lanes share a group with the other lanes of their shape, and each
    # step calls each hook lane's hook on that lane's own 1-D row
    seen = []

    def hook(nll, group_ids):
        seen.append((nll.shape, group_ids.shape))
        return np.ones(len(nll))

    group_sizes.clear()
    lanes = [_erm_lane(sample_weights=hook), _erm_lane(seed=9),
             _erm_lane(seed=9, sample_weights=hook)]
    got = train(lanes)
    assert group_sizes == [3]
    steps_per_epoch = math.ceil(len(train_set) / 8)
    assert seen == [((8,), (8,))] * (2 * 2 * steps_per_epoch)
    for lane, result in zip(lanes, got):
        assert_same_run(result, _reference(lane))
    with pytest.raises(InvalidInputError):
        train([])


def _dro_lanes():
    """Group-DRO lanes over two seeds, each with a reweighting hook (and a
    group distribution q) of its own, between erm lanes with and without
    fixed sample weights; and each hook's q."""
    n = len(seed_data(9)[0])
    hooks = [_group_reweighting(step) for step in (0.3, 0.3, 0.0)]
    lanes = [_erm_lane(tag="dro4", sample_weights=hooks[0][0]),
             _erm_lane(tag="erm"),
             _erm_lane(seed=9, tau=None, lr=0.1, tag="dro9", sample_weights=hooks[1][0]),
             _erm_lane(seed=9, lr=0.05, sample_weights=np.linspace(0.5, 2.0, n)),
             _erm_lane(seed=9, tau=0.1, lr=0.03, tag="flat9", sample_weights=hooks[2][0])]
    return lanes, [q for _, q in hooks]


def test_group_dro_lanes_match_reference_runs(group_sizes):
    """Hook lanes train in one group with erm lanes; each lane equals its
    reference run, and each hook's q ends where its reference run's does."""
    lanes, qs = _dro_lanes()
    got = train(lanes)
    assert group_sizes == [len(lanes)]
    ref_lanes, ref_qs = _dro_lanes()
    for lane, result in zip(ref_lanes, got):
        assert_same_run(result, _reference(lane))
    assert _bytes(*qs) == _bytes(*ref_qs)
    assert not np.allclose(qs[0], 0.25) and np.array_equal(qs[2], np.full(4, 0.25))


def test_diverging_hook_lane_is_named(group_sizes):
    """A hook lane whose weights turn NaN in epoch 1 is named by tag, seed
    and epoch; the group's other hook and erm lanes do not fail."""
    per_epoch = math.ceil(len(seed_data(9)[0]) / 8)
    calls = []

    def nan_from_epoch_1(nll, group_ids):
        calls.append(1)
        return np.full(len(nll), 1.0 if len(calls) <= per_epoch else np.nan)

    lanes, _ = _dro_lanes()
    lanes.insert(3, _erm_lane(seed=9, tag="bad", sample_weights=nan_from_epoch_1))
    with pytest.raises(DivergedError) as exc:
        train(lanes)
    assert group_sizes == [len(lanes)]
    assert (exc.value.tag, exc.value.seed, exc.value.epoch) == ("bad", 9, 1)
    assert str(exc.value) == "non-finite training loss (run bad, seed 9, epoch 1)"
    assert len(calls) == per_epoch + 1


def _task(seed: int) -> TaskData:
    train_set, val_set, _, _ = seed_data(seed)
    return TaskData(train_set, val_set, val_set)


def _reference_jtt(run: RunSpec, data: TaskData, selector):
    """A jtt run as two reference runs: plain ERM for id_epochs from the
    tag-101 draw, then the error set upweighted from the tag-102 draw."""
    cfg = run.optim

    def init(tag):
        return init_params(data.train.d, run.tau, [cfg.seed, tag])

    trace1, _ = reference_train(init(101), data.train, None, run.weights,
                                replace(cfg, epochs=run.jtt.id_epochs), data.val, selector)
    wrong = classify(trace1.final_params, data.train.features) != data.train.labels
    sw = np.where(wrong, run.jtt.upweight, 1.0)
    return reference_train(init(102), data.train, None, run.weights, cfg, data.val, selector,
                           sw / sw.mean()), int(wrong.sum())


def test_jtt_jobs_through_fit_lanes(group_sizes):
    """Every jtt job's first stage trains in one `train` call before the
    main one, whose groups hold the second stages with erm and group-DRO
    jobs; each result equals its reference runs and its own `fit`."""
    l2 = LossWeights(lambda_l2=1.0)

    def cfg(seed, lr=0.2):
        return OptimConfig(learning_rate=lr, batch_size=8, epochs=3, seed=seed)

    # at these rates a first stage's final and selected epochs err on
    # different training points
    runs = [RunSpec("jtt", "jtt", cfg(seed), l2, tau=0.5, jtt=JttConfig(2, 5.0)) for seed in SEEDS]
    runs += [RunSpec("erm", "erm", cfg(4), l2),
             RunSpec("jtt_long", "jtt", cfg(4, lr=0.5), l2, tau=0.5, jtt=JttConfig(3, 3.0)),
             RunSpec("dro", "group_dro", cfg(9), l2, tau=0.5, group_dro=GroupDroConfig(0.2))]
    selector = SelectionStrategy.VAL_GP
    jobs = [(run, _task(run.optim.seed), None, None) for run in runs]
    results = fit_lanes(jobs, selector)
    # the two id_epochs=2 first stages, the id_epochs=3 one, then every
    # second stage with the erm and group_dro jobs
    assert group_sizes == [2, 1, len(runs)]
    for (run, data, _, _), result in zip(jobs, results):
        got = (result.trace, result.params)
        if run.method == "jtt":
            want, errors = _reference_jtt(run, data, selector)
            assert_same_run(got, want)
            assert result.extras["jtt"]["error_set_size"] == errors > 0
        own = fit(run, data, selector)
        assert_same_run(got, (own.trace, own.params))
        assert result.to_json_dict() == own.to_json_dict()
    assert results[-1].extras["group_dro"]["final_q"] != [0.25] * 4


def test_bad_job_refused_before_any_first_stage_trains(monkeypatch):
    """fit_lanes checks every other job's lane before it trains the jtt
    first stages: a reg_mtl job whose aux set is too wide for its task
    raises ShapeError before any step."""
    stepped = []

    def counting_step(*args):
        stepped.append(1)
        return sgd_step(*args)

    monkeypatch.setattr(grouprobe.optim, "sgd_step", counting_step)
    cfg = OptimConfig(learning_rate=0.1, batch_size=8, epochs=2, seed=4)
    task, aux = _task(4), seed_data(4)[2]
    wide = AuxDataset(np.column_stack([aux.noised, aux.noised[:, :1]]),
                      np.column_stack([aux.targets, aux.targets[:, :1]]))
    jobs = [(RunSpec("jtt", "jtt", cfg, tau=0.5, jtt=JttConfig(2)), task, None, None),
            (RunSpec("mtl", "reg_mtl", cfg, LossWeights(alpha_aux=1.0), tau=0.5), task, wide,
             None)]
    with pytest.raises(ShapeError):
        fit_lanes(jobs, SelectionStrategy.NO_GP)
    assert stepped == []


def test_empty_aux_job_refused_before_any_lane_trains(monkeypatch):
    """A reg_mtl job whose aux set has no rows is refused when its lane is
    built, before the erm job in an earlier group takes a step."""
    stepped = []

    def counting_step(*args):
        stepped.append(1)
        return sgd_step(*args)

    monkeypatch.setattr(grouprobe.optim, "sgd_step", counting_step)
    cfg = OptimConfig(learning_rate=0.1, batch_size=8, epochs=2, seed=4)
    task, aux = _task(4), seed_data(4)[2]
    jobs = [(RunSpec("erm", "erm", cfg, tau=0.5), task, None, None),
            (RunSpec("mtl", "reg_mtl", cfg, LossWeights(alpha_aux=1.0), tau=0.5), task,
             aux.take(np.arange(0)), None)]
    with pytest.raises(InvalidInputError, match="cannot batch an empty dataset"):
        fit_lanes(jobs, SelectionStrategy.NO_GP)
    assert stepped == []


def test_lowest_lane_diverged_at_the_earliest_step_raises(monkeypatch):
    """Each step calls sgd_step once per lane, in lane order; a lane that
    fails at an earlier step raises before any lane that fails later, and
    among lanes failing at one step the lowest index raises."""
    group = [_erm_lane(tag=f"lane{r}") for r in range(4)]
    per_step = len(group)

    def failing(fail_at):
        calls = []

        def step(*args):
            calls.append(1)
            at = divmod(len(calls) - 1, per_step)  # (step, lane)
            if at in fail_at:
                raise DivergedError("boom")
            return sgd_step(*args)
        return step

    steps_per_epoch = math.ceil(len(seed_data(4)[0]) / 8)
    for fail_at, (tag, epoch) in [
        ({(steps_per_epoch + 1, 0), (1, 3)}, ("lane3", 0)),   # lane 3 fails first
        ({(2, 2), (2, 1)}, ("lane1", 0)),                     # same step: lowest lane
        ({(steps_per_epoch, 2)}, ("lane2", 1)),
    ]:
        monkeypatch.setattr(grouprobe.optim, "sgd_step", failing(fail_at))
        with pytest.raises(DivergedError) as exc:
            train(group)
        assert (exc.value.tag, exc.value.seed, exc.value.epoch) == (tag, 4, epoch)
        assert str(exc.value) == f"boom (run {tag}, seed 4, epoch {epoch})"


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_nonfinite_loss_of_one_lane_names_it():
    # lr 1e300 with no L1 constraint: the first step lands at ~1e298, and
    # the loss of the next step overflows
    group = [_erm_lane(tag="calm"), _erm_lane(seed=9, tau=None, lr=1e300, tag="wild"),
             _erm_lane(seed=9, tag="calm2")]
    with pytest.raises(DivergedError) as exc:
        train(group)
    assert (exc.value.tag, exc.value.seed) == ("wild", 9)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_first_group_with_a_diverged_lane_raises():
    """Groups run in order of their first lane, so a diverged lane of the
    first group raises before a lower-index lane of a later group."""
    wild16 = _erm_lane(seed=9, tau=None, lr=1e300, batch=16, tag="wild16")
    wild8 = _erm_lane(seed=9, tau=None, lr=1e300, tag="wild8")
    for lanes, tag in [([_erm_lane(tag="calm"), wild16, wild8], "wild8"),
                       ([_erm_lane(tag="calm"), wild16, _erm_lane(seed=9, tag="calm2")], "wild16"),
                       ([wild16, _erm_lane(tag="calm"), wild8], "wild16")]:
        with pytest.raises(DivergedError) as exc:
            train(lanes)
        assert (exc.value.tag, exc.value.seed) == (tag, 9)


def _corrupting_terms(step, changes):
    """`joint_terms` whose call number `step` (0-based) returns with the
    entries `changes` maps (block, lane) to, each written into the last
    entry of that lane's block."""
    calls = []

    def terms(*args):
        le = joint_terms(*args)
        if len(calls) == step:
            n_lanes = np.size(le.value)
            for (block, r), value in changes.items():
                if block == "value":
                    le.value[r] = value
                else:
                    np.reshape(getattr(le, block), (n_lanes, -1))[r, -1] = value
        calls.append(1)
        return le
    return terms


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("block", ["grad_a", "grad_w_end", "grad_W_aux"])
def test_nonfinite_gradient_names_its_lane(block, monkeypatch):
    """One check per group step finds the lowest lane whose gradient or loss
    is not finite; the lanes before it step first, so an earlier lane that
    fails its projection at that step is named instead."""
    group = [_erm_lane(seed=SEEDS[r % 2], tag=f"lane{r}") for r in range(5)]
    steps_per_epoch = math.ceil(len(seed_data(4)[0]) / 8)
    k = steps_per_epoch + 2  # the third step of epoch 1
    for changes, (tag, message) in [
        ({(block, 2): np.nan, (block, 3): np.inf}, ("lane2", "non-finite gradient")),
        ({(block, 2): -np.inf, (block, 4): np.nan}, ("lane2", "non-finite gradient")),
        # lane 1's step to |a| ~ 1e306 swamps tau: its projection finds no threshold
        ({(block, 2): np.nan, (block, 3): np.nan, ("grad_a", 1): 1e308},
         ("lane1", "projection failed")),
        ({("value", 2): np.nan, (block, 2): np.nan, (block, 3): np.inf},
         ("lane2", "non-finite training loss")),
        ({("value", 3): np.inf, (block, 2): np.nan}, ("lane2", "non-finite gradient")),
    ]:
        monkeypatch.setattr(grouprobe.optim, "joint_terms", _corrupting_terms(k, changes))
        with pytest.raises(DivergedError) as exc:
            train(group)
        assert (exc.value.tag, exc.value.seed, exc.value.epoch) == (tag, 4 if tag == "lane2" else 9, 1)
        assert str(exc.value).startswith(message)
    # a lane that trains alone takes the same check
    monkeypatch.setattr(grouprobe.optim, "joint_terms", _corrupting_terms(k, {(block, 0): np.nan}))
    with pytest.raises(DivergedError) as exc:
        train([group[2]])
    assert str(exc.value) == "non-finite gradient (run lane2, seed 4, epoch 1)"


def test_validation_lengths_train_apart(group_sizes):
    """Validation runs once per group on stacked validation sets, so lanes
    whose val_data or val_aux lengths differ (or that have val_aux and
    lack it) train in separate groups, each lane as its reference run."""
    _, val_set, aux, aux_val = seed_data(9)
    short_val = val_set.take(np.arange(len(val_set) - 1))
    cfg = OptimConfig(0.01, 8, 2, seed=9)
    params = init_params(val_set.d, 0.5, [9, 101], dense_init=True)

    def aux_only(**kw):
        return replace(Lane(params, None, aux, LossWeights(), cfg, val_set,
                            SelectionStrategy.NO_GP, val_aux=aux_val), **kw)

    lanes = [_erm_lane(), replace(_erm_lane(seed=9), val_data=short_val),
             replace(_erm_lane(lr=0.05), val_aux=aux_val), _erm_lane(lr=0.03),
             aux_only(), aux_only(val_aux=aux_val.take(np.arange(len(aux_val) - 2))),
             aux_only(val_data=short_val), aux_only(val_data=short_val)]
    got = train(lanes)
    assert group_sizes == [2, 1, 1, 1, 1, 2]
    for lane, result in zip(lanes, got):
        assert_same_run(result, _reference(lane))


@st.composite
def validation_stacks(draw):
    """R lanes' (params, val_data, val_aux): each lane's sets are drawn rows
    of one of two seeds' validation sets, of one length n, some lacking a
    group; some lanes' logits are exactly 0 (a zero `a` or `w_end` block,
    signed zeros included)."""
    R = draw(st.sampled_from([1, 3, 7]))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lanes = []
    for _ in range(R):
        _, val_set, _, aux_val = seed_data(draw(st.sampled_from(SEEDS)))
        missing = draw(st.sampled_from([None, 0, 1, 2, 3]))
        rows = np.flatnonzero(val_set.group_ids != missing)
        idx = rng.choice(rows, size=n)
        a, w_end = rng.normal(size=2), rng.normal(size=2)
        zero = draw(st.sampled_from([None, "a", "w_end"]))
        if zero is not None:
            block = a if zero == "a" else w_end
            block[:] = rng.choice([0.0, -0.0], size=2)
        W_aux = rng.normal(size=(2, 2))
        lanes.append((ModelParams(a, w_end, W_aux / np.linalg.norm(W_aux)),
                      val_set.take(idx), aux_val.take(idx)))
    return lanes


def _bytes(*values) -> list[bytes]:
    return [np.asarray(v).tobytes() for v in values]


@given(validation_stacks())
@settings(max_examples=200, deadline=None)
def test_stacked_validation_matches_one_model_calls(lanes):
    """The per-epoch validation of a lane group, as `train` runs it: one
    `evaluate` call and one reconstruction loss on lane stacks.  Lane r
    equals the one-model `evaluate` and the one-lane validation loss byte
    for byte: NaN for an absent group, worst group over the present ones,
    and a zero logit as the label +1."""
    params, val_data, val_aux = zip(*lanes)
    a, w_end, W_aux = (np.array([getattr(p, k) for p in params]) for k in ("a", "w_end", "W_aux"))
    stacks = [np.array([getattr(v, k) for v in val_data])
              for k in ("features", "labels", "group_ids")]
    got = evaluate((a, w_end), tuple(stacks))
    Xt, X0 = (np.array([getattr(v, k) for v in val_aux]) for k in ("noised", "targets"))
    recon, _ = recon_value(featurize(Xt, a), X0, W_aux)
    for r, (p, v, va) in enumerate(lanes):
        want = evaluate(p, v)
        assert _bytes(got.per_group_acc[r], got.group_sizes[r], got.avg_acc[r], got.wg_acc[r],
                      got.all_groups_present[r]) == _bytes(
            want.per_group_acc, want.group_sizes, want.avg_acc, want.wg_acc,
            want.all_groups_present)
        assert _bytes(recon[r]) == _bytes(multitask_loss(p, None, va, LossWeights()).value)
        present = want.group_sizes > 0
        assert want.wg_acc == want.per_group_acc[present].min()
        assert np.isnan(want.per_group_acc[~present]).all()
        if not (p.a.any() and p.w_end.any()):
            assert want.avg_acc == (v.labels == 1).mean()
