"""Lane groups of `optim.train` against the per-run loop they replaced.

`reference_train` is the training loop as it was before lanes: one run, one
1-D `joint_terms` call and one `sgd_step` call per step, one schedule per
epoch.  It is kept here, the way `test_io_equivalence.py` keeps the old row
loops, and every lane of a `train` call, whether it shares its group with
other lanes or trains alone, must match its own reference run bit for bit:
every epoch record, the selected epoch, and the selected and final
parameters.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import grouprobe.optim
from grouprobe import (
    DivergedError,
    GroupDataSpec,
    InvalidInputError,
    Lane,
    LossWeights,
    OptimConfig,
    SelectionStrategy,
    evaluate,
    heterogeneous_batches,
    init_params,
    noise_dataset,
    sample_group_dataset,
    sgd_step,
    train,
)
from grouprobe.objectives import check_sample_weights, end_stream, joint_terms, multitask_loss
from grouprobe.optim import EpochRecord, TrainTrace, _lockstep_key

SPEC = GroupDataSpec(d_c=1, d_s=1, sigma2_core=0.6, sigma2_spur=0.1,
                     n_maj=18, n_min=6, sigma2_noise=1.0)
VAL_SPEC = GroupDataSpec(d_c=1, d_s=1, sigma2_core=0.6, sigma2_spur=0.1,
                         n_maj=8, n_min=4, sigma2_noise=1.0)
SEEDS = (4, 9)


@functools.cache
def seed_data(seed: int):
    """(train, val, aux train, aux val) of one seed; every seed's sets have
    the same sizes."""
    train_set = sample_group_dataset(SPEC, [seed, 10])
    val_set = sample_group_dataset(VAL_SPEC, [seed, 11])
    return (train_set, val_set, noise_dataset(train_set, 1.0, [seed, 12]),
            noise_dataset(val_set, 1.0, [seed, 14]))


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

    trace = TrainTrace()
    best_metric, best_params = -np.inf, None
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
                    batch_weights = (w[rows] if hook is None
                                     else functools.partial(hook, group_ids=w[rows]))
            if ai is not None:
                aux = (Xt[rows], X0[rows])
            le = joint_terms(params.a, params.w_end, params.W_aux, weights, end, aux,
                             batch_weights)
            if not math.isfinite(le.value):
                raise DivergedError("non-finite training loss", epoch=ep)
            loss_sum += le.value * size
            params = sgd_step(params, le, cfg.learning_rate)
        vm = evaluate(params, val_data)
        val_recon = (None if val_aux is None
                     else multitask_loss(params, None, val_aux, LossWeights()).value)
        rec = EpochRecord(ep, loss_sum / seen, vm.avg_acc, vm.wg_acc, vm.per_group_acc, val_recon)
        trace.records.append(rec)
        if aux_only:
            metric = -rec.val_recon_loss
        elif selector is SelectionStrategy.VAL_GP:
            metric = rec.val_wg_acc
        else:
            metric = rec.val_avg_acc
        if metric > best_metric:
            best_metric, best_params = metric, params
            trace.selected_epoch = ep
    if best_params is None:
        raise DivergedError("no epoch had a finite selection metric")
    trace.final_params = params
    return trace, best_params


def assert_same_run(got, want):
    (trace, best), (ref_trace, ref_best) = got, want
    assert trace.selected_epoch == ref_trace.selected_epoch
    assert len(trace.records) == len(ref_trace.records)
    for rec, ref in zip(trace.records, ref_trace.records):
        assert type(rec.train_loss) is float
        assert (rec.epoch, rec.train_loss, rec.val_avg_acc, rec.val_recon_loss) == (
            ref.epoch, ref.train_loss, ref.val_avg_acc, ref.val_recon_loss)
        assert rec.val_wg_acc == ref.val_wg_acc
        assert np.array_equal(rec.val_group_acc, ref.val_group_acc, equal_nan=True)
    for p, q in ((best, ref_best), (trace.final_params, ref_trace.final_params)):
        for block in ("a", "w_end", "W_aux"):
            assert np.array_equal(getattr(p, block), getattr(q, block)), block


def _reference(lane: Lane):
    return reference_train(lane.params, lane.end_data, lane.aux_data, lane.weights, lane.cfg,
                           lane.val_data, lane.selector, lane.sample_weights, lane.val_aux)


@st.composite
def lane_groups(draw, weighted=False):
    """R lanes of one method that share a lockstep key: each with its own
    data seed, learning rate, L1 constraint and loss weights, and one zero
    pattern of alpha_aux and alpha_reg.  Each erm lane draws fixed sample
    weights or none; `weighted=True` draws erm lanes, the first with fixed
    sample weights."""
    method = "erm" if weighted else draw(st.sampled_from(["erm", "reg_mtl", "aux_only"]))
    lanes = draw(st.sampled_from([1, 3, 7]))
    batch = draw(st.sampled_from([1, 5, 16, 40]))  # 40 > n: one batch per epoch
    cfg = {"batch_size": batch, "epochs": draw(st.integers(1, 3))}
    selector = draw(st.sampled_from(list(SelectionStrategy)))
    aux_on = method == "reg_mtl" and draw(st.booleans())
    reg_on = method != "erm" and draw(st.booleans())
    group = []
    for r in range(lanes):
        seed = draw(st.sampled_from(SEEDS))
        train_set, val_set, aux, aux_val = seed_data(seed)
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
        lr = draw(st.sampled_from([0.2, 0.03, 0.001]))
        group.append(Lane(
            params, None if method == "aux_only" else train_set,
            None if method == "erm" else aux, weights,
            OptimConfig(learning_rate=lr, seed=seed, **cfg), val_set, selector, sw,
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


def test_zero_patterns_and_hooks_train_apart(group_sizes):
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

    # one hook object on two lanes: each lane trains alone, and the hook
    # sees one lane's 1-D batch at a time
    seen = []

    def hook(nll, group_ids):
        seen.append((nll.shape, group_ids.shape))
        return np.ones(len(nll))

    group_sizes.clear()
    lanes = [_erm_lane(sample_weights=hook), _erm_lane(seed=9, sample_weights=hook)]
    got = train(lanes)
    assert group_sizes == [1, 1]
    assert seen and set(seen) == {((8,), (8,))}
    for lane, result in zip(lanes, got):
        assert_same_run(result, _reference(lane))
    with pytest.raises(InvalidInputError):
        train([])


def test_lowest_lane_diverged_at_the_earliest_step_raises(monkeypatch):
    """Each step calls sgd_step once per lane, in lane order; a lane that
    fails at an earlier step raises before any lane that fails later, and
    among lanes failing at one step the lowest index raises."""
    group = [_erm_lane(tag=f"lane{r}") for r in range(4)]
    per_step = len(group)

    def failing(fail_at):
        calls = []

        def step(params, grads, lr):
            calls.append(1)
            at = divmod(len(calls) - 1, per_step)  # (step, lane)
            if at in fail_at:
                raise DivergedError("boom")
            return sgd_step(params, grads, lr)
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
