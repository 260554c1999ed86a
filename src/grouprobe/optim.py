"""Projected SGD over the two-task objective, run for a fixed number of
epochs, with per-epoch validation tracking and checkpoint selection.

`train` is the one training loop.  It takes any list of runs, its lanes,
and trains the lanes that can share a step (see `_lockstep_key`) as one
group, in lockstep: each lane keeps its own data, seed, batch schedule,
loss weights, learning rate and constraint set, and a group shares one
stacked loss-and-gradient call per step (see `objectives`), which costs
little more than one run's.  Each step still makes one `sgd_step` call,
and each epoch one `heterogeneous_batches` schedule, per lane, both looked
up on this module; every lane's outputs equal its one-lane run's bit for
bit.  Around them a group makes one finiteness check of its loss values
and gradients per step (`sgd_step` makes none), and one stacked validation
per epoch.
"""

from __future__ import annotations

import csv
import functools
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, DivergedError, InvalidInputError, InvalidSpecError, ShapeError
from .evalsel import SelectionStrategy, evaluate
from .linmodel import ModelParams, normalize_frobenius, project_l1, rescale_l1
from .objectives import (
    LaneWeights,
    LossEval,
    LossWeights,
    check_sample_weights,
    end_stream,
    joint_terms,
)
from .synthgen import AuxDataset, LabeledDataset

@dataclass(frozen=True)
class OptimConfig:
    learning_rate: float
    batch_size: int
    epochs: int
    # schema-1 keys that every run artifact echoes; training is plain SGD
    # with no early stopping, so both must be 0
    patience: int = 0
    momentum: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidSpecError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise InvalidSpecError("batch_size must be >= 1")
        if self.epochs < 1:
            raise InvalidSpecError("epochs must be >= 1")
        if self.patience != 0:
            raise InvalidSpecError("patience must be 0: training has no early stopping")
        if self.momentum != 0:
            raise InvalidSpecError("momentum must be 0: training is plain SGD")
        if self.seed < 0:
            raise InvalidSpecError("seed must be a non-negative integer")


def sgd_step(params: ModelParams, grads: LossEval, lr: float) -> ModelParams:
    """One descent step followed by constraint enforcement.

    Order: parameter update, then project `a` back to its L1 set and
    renormalize W_aux.  Raises DivergedError when the step leaves parameters
    the projection cannot bring back into the constraint set, which includes
    any NaN or +-inf gradient entry: `train` names those in its one check per
    group step, and here `project_l1` finds no threshold, `rescale_l1` and
    `normalize_frobenius` scale by a NaN or zero factor that leaves NaN, and
    `feasible()` rejects a non-finite block.  Returns fresh parameters in
    that set, built without re-running the ModelParams checks.
    """
    a = params.a - lr * grads.grad_a
    w_end = params.w_end - lr * grads.grad_w_end
    W_aux = params.W_aux - lr * grads.grad_W_aux

    try:
        if params.tau is not None:
            a = rescale_l1(a, params.tau) if params.l1_boundary else project_l1(a, params.tau)
        if params.fro_radius is not None:
            W_aux = normalize_frobenius(W_aux, params.fro_radius)
    except DegenerateInputError as e:
        raise DivergedError(f"projection failed: {e}") from None
    out = params._replace_arrays(a, w_end, W_aux)
    if not out.feasible():
        raise DivergedError("parameters infeasible after projection")
    return out


def _index_schedule(n: int | None, length: int, seed, stream: int) -> np.ndarray | None:
    # `length` shuffled indices into range(n): whole permutations back to
    # back, so a shorter stream reshuffles each time a pass completes.  The
    # generator is child `stream` of SeedSequence(seed), built directly
    # rather than through spawn().
    if n is None:
        return None
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))
    return np.concatenate([rng.permutation(n) for _ in range(-(-length // n))])[:length]


def heterogeneous_batches(
    end_data: LabeledDataset | None,
    aux_data: AuxDataset | None,
    batch_size: int,
    seed,
):
    """Yield one epoch of (end_indices, aux_indices) pairs.

    The longer stream sets the pace: ceil(n/batch_size) pairs, last one
    short.  Both streams are shuffled independently; the shorter one recycles
    (with a reshuffle) until the epoch ends.  A missing stream yields None in
    its slot.
    """
    if batch_size < 1:
        raise InvalidSpecError("batch_size must be >= 1")
    n_end = len(end_data) if end_data is not None else None
    n_aux = len(aux_data) if aux_data is not None else None
    if n_end is None and n_aux is None:
        raise InvalidInputError("need at least one data stream")
    if n_end == 0 or n_aux == 0:
        raise InvalidInputError("cannot batch an empty dataset")

    driver = max(v for v in (n_end, n_aux) if v is not None)
    end_idx = _index_schedule(n_end, driver, seed, 0)
    aux_idx = _index_schedule(n_aux, driver, seed, 1)
    for start in range(0, driver, batch_size):
        stop = start + batch_size
        yield (
            end_idx[start:stop] if end_idx is not None else None,
            aux_idx[start:stop] if aux_idx is not None else None,
        )


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_avg_acc: float
    val_wg_acc: float
    val_group_acc: np.ndarray
    val_recon_loss: float | None = None


@dataclass
class TrainTrace:
    """Per-epoch records plus the selected epoch and the last epoch's parameters."""

    records: list[EpochRecord] = field(default_factory=list)
    selected_epoch: int = -1
    final_params: ModelParams | None = None

    CSV_HEADER = ["epoch", "train_loss", "val_avg_acc", "val_wg_acc", "g0", "g1", "g2", "g3"]

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.CSV_HEADER)
            for r in self.records:
                row = [r.epoch, repr(r.train_loss), repr(r.val_avg_acc), repr(r.val_wg_acc)]
                row += [repr(float(v)) for v in r.val_group_acc]
                w.writerow(row)


def _selection_metric(record: EpochRecord, selector: SelectionStrategy, aux_only: bool) -> float:
    if aux_only:
        # classification metrics are meaningless without a trained end head;
        # pick the checkpoint with the lowest validation reconstruction error
        return -record.val_recon_loss
    if selector is SelectionStrategy.VAL_GP:
        return record.val_wg_acc
    return record.val_avg_acc


@dataclass(frozen=True)
class Lane:
    """One run's inputs to `train`: start parameters, training streams, loss
    weights, optimizer settings and checkpoint selection.

    `sample_weights` needs an end stream.  It is one fixed weight per row of
    end_data (None: all ones, plain ERM), or a hook `(nll, group_ids) ->
    weights` called once per step with the batch's per-sample losses and
    group ids (the online group reweighting baseline updates its group
    distribution there).  Without an end stream, `val_aux` is required: its
    reconstruction loss selects the checkpoint.  A lane with a `tag` names
    its run (tag and seed) in a `DivergedError`.
    """

    params: ModelParams
    end_data: LabeledDataset | None
    aux_data: AuxDataset | None
    weights: LossWeights
    cfg: OptimConfig
    val_data: LabeledDataset
    selector: SelectionStrategy
    sample_weights: np.ndarray | Callable | None = None
    val_aux: AuxDataset | None = None
    tag: str | None = None


def _check_lane(lane: Lane) -> None:
    aux_only = lane.end_data is None
    if aux_only and lane.aux_data is None:
        raise InvalidInputError("need at least one data stream")
    if aux_only and lane.val_aux is None:
        raise InvalidInputError("aux-only training needs val_aux for checkpoint selection")
    if lane.val_data is None or len(lane.val_data) == 0 or (
            lane.val_aux is not None and len(lane.val_aux) == 0):
        raise InvalidInputError("validation data must be non-empty")
    if aux_only and lane.sample_weights is not None:
        raise InvalidInputError("sample weighting needs an end stream")
    streams = (lane.end_data, lane.aux_data, lane.val_data, lane.val_aux)
    if any(data is not None and data.d != lane.params.d for data in streams):
        raise ShapeError("training or validation data feature dim does not match the model")


def _lockstep_key(lane: Lane):
    # what the lanes of one group share: the step schedule's shape, the
    # stacked arrays' shapes (validation sets included), and the terms the
    # kernel runs; every end stream carries a weight column, so fixed
    # weights need no clause, but a sample-weight hook updates one run's
    # state every step, so its lane gets a key of its own
    if callable(lane.sample_weights):
        return object()
    w = lane.weights
    return (lane.cfg.batch_size, lane.cfg.epochs, lane.params.d,
            *(None if data is None else len(data)
              for data in (lane.end_data, lane.aux_data, lane.val_data, lane.val_aux)),
            w.alpha_aux != 0.0, w.alpha_reg != 0.0)


def _stream_columns(lane: Lane) -> tuple[tuple | None, tuple | None]:
    """A lane's per-row (end, aux) columns: `objectives.end_stream` plus the
    weight column (the fixed weights, all ones without them, or the group
    ids for a hook), and (noised, targets); None for a missing stream."""
    end_columns = aux_columns = None
    if lane.end_data is not None:
        sw = lane.sample_weights
        weight_column = (lane.end_data.group_ids if callable(sw)
                         else check_sample_weights(sw, len(lane.end_data)))
        end_columns = (*end_stream(lane.end_data), weight_column)
    if lane.aux_data is not None:
        aux_columns = (lane.aux_data.noised, lane.aux_data.targets)
    return end_columns, aux_columns


def _lane_stream(columns: list[tuple | None]) -> tuple[tuple | None, np.ndarray | None]:
    """One stream's columns over all lanes, and the lanes' row offsets into
    them: a single lane's own columns with no offsets, or each column's
    lanes concatenated along its rows with the (R, 1) start row of each
    lane; (None, None) for a missing stream."""
    if columns[0] is None:
        return None, None
    if len(columns) == 1:
        return columns[0], None
    n = len(columns[0][0])
    stacked = tuple(np.concatenate(c) for c in zip(*columns))
    return stacked, np.arange(len(columns))[:, None] * n


def _gather(columns: tuple | None, offsets: np.ndarray | None, schedules: list[list],
            slot: int) -> tuple | None:
    """One epoch of a stream's per-row columns, gathered once in visiting
    order with one fancy index per column, so each step reads the next
    contiguous slice: (n_steps * B, ...) for one lane, (R, n_steps * B, ...)
    for a lane stack (see `_lane_stream`)."""
    if columns is None:
        return None
    rows = [np.concatenate([batch[slot] for batch in batches]) for batches in schedules]
    index = rows[0] if offsets is None else np.array(rows) + offsets
    # np.take copies the same rows as c[index], several times faster for 2-D c
    return tuple(np.take(c, index, axis=0) for c in columns)


def _param_arrays(state: list[ModelParams]) -> tuple:
    """The kernel's parameter arguments: one lane's own arrays, or each block
    stacked across lanes."""
    if len(state) == 1:
        p, = state
        return p.a, p.w_end, p.W_aux
    # np.array of a list stacks as np.stack does, for a third of its overhead
    return (np.array([p.a for p in state]), np.array([p.w_end for p in state]),
            np.array([p.W_aux for p in state]))


def _finite_lanes(le: LossEval, n_lanes: int) -> tuple[int, str | None]:
    """The index of the lowest lane whose loss value or gradient has a NaN
    or +-inf entry, with its failure message; (n_lanes, None) when every
    entry is finite, found by one check over all lanes' blocks."""
    blocks = (le.value, le.grad_a, le.grad_w_end, le.grad_W_aux)
    if np.isfinite(np.concatenate(blocks, axis=None)).all():
        return n_lanes, None
    finite = [np.isfinite(np.reshape(b, (n_lanes, -1))).all(axis=1) for b in blocks]
    r = int(np.logical_and.reduce(finite).argmin())
    return r, "non-finite gradient" if finite[0][r] else "non-finite training loss"


def train(lanes: list[Lane]) -> list[tuple[TrainTrace, ModelParams]]:
    """Run minibatch SGD for cfg.epochs on each of R >= 1 lanes; return one
    (trace, best parameters) per lane, in lane order.

    The best parameters are those of the selected epoch, `trace.selected_epoch`;
    `trace.final_params` holds the parameters after the last epoch, and is
    the same object as the best parameters when the last epoch is selected.
    Each lane trains exactly as it would alone, bit for bit.

    Lanes that share batch size, epochs, feature dim, training and
    validation stream lengths and the zero pattern of alpha_aux and
    alpha_reg train as one group, in lockstep, with fixed sample weights or
    without (all ones); a lane with a sample-weight hook trains alone.  Groups run one after another, in
    order of their first lane.

    The loss is the joint objective of `objectives.joint_terms` (end BCE +
    weighted reconstruction + activation penalty); with no aux stream the
    aux terms use the end batch's activations only, and with no end stream
    training is pure reconstruction.  Each lane's streams are tuples of
    per-row columns, built once and, in a group of several lanes,
    concatenated across them.  Each epoch, every lane draws its own
    `heterogeneous_batches` schedule from its own data and seed, and
    `_gather` reads every column once.  Each step is one `joint_terms` call
    on the group's (R, B, d) batches (a single lane's own (B, d) arrays when
    it trains alone), one finiteness check of all lanes' loss values and
    gradients, and one `sgd_step` call per lane with that lane's learning
    rate and constraint set.

    A non-finite loss or gradient, or a failed step, raises `DivergedError`
    in the first group with a diverged lane, for its lowest-index lane that
    diverged at the earliest step.

    Validation on each lane's non-empty `val_data` (and `val_aux`) runs once
    per epoch after its final step, for the whole group at once: one stacked
    `evaluate` call and one stacked `joint_terms` reconstruction loss on
    validation stacks built once per group.  The selected
    checkpoint maximizes the selector metric (average or worst-group
    validation accuracy; the negated validation reconstruction loss without
    an end stream), earliest epoch on ties; epochs whose metric is NaN are
    never selected.
    """
    if not lanes:
        raise InvalidInputError("need at least one lane")
    for lane in lanes:
        _check_lane(lane)
    groups: dict = {}
    for r, lane in enumerate(lanes):
        groups.setdefault(_lockstep_key(lane), []).append(r)
    results = [None] * len(lanes)
    for group in groups.values():
        for r, result in zip(group, _train_group([lanes[r] for r in group])):
            results[r] = result
    return results


def _train_group(lanes: list[Lane]) -> list[tuple[TrainTrace, ModelParams]]:
    """`train` of one group of lanes with one lockstep key, in lockstep."""
    single = len(lanes) == 1
    first = lanes[0]
    hook = first.sample_weights if callable(first.sample_weights) else None
    aux_only = first.end_data is None
    batch_size, epochs = first.cfg.batch_size, first.cfg.epochs
    driver = max(len(data) for data in (first.end_data, first.aux_data) if data is not None)

    (end_columns, end_offsets), (aux_columns, aux_offsets) = (
        _lane_stream(list(c)) for c in zip(*map(_stream_columns, lanes)))
    weights = first.weights if single else LaneWeights.stack([lane.weights for lane in lanes])
    names = [{} if lane.tag is None else {"tag": lane.tag, "seed": lane.cfg.seed}
             for lane in lanes]
    learning_rates = [lane.cfg.learning_rate for lane in lanes]
    state = [lane.params for lane in lanes]
    arrays = _param_arrays(state)
    # every epoch's steps: the slice of the gathered columns each one reads
    # (along the rows of a lane stack), and its batch size
    steps = [(slice(start, start + batch_size) if single
              else (slice(None), slice(start, start + batch_size)),
              min(batch_size, driver - start)) for start in range(0, driver, batch_size)]
    # the lanes' validation columns, stacked once: (R, n_val, ...)
    val_end = tuple(np.array([getattr(lane.val_data, k) for lane in lanes])
                    for k in ("features", "labels", "group_ids"))
    val_aux = None if first.val_aux is None else tuple(
        np.array([getattr(lane.val_aux, k) for lane in lanes]) for k in ("noised", "targets"))
    traces = [TrainTrace() for _ in lanes]
    best_metric = [-np.inf] * len(lanes)
    best_params = [None] * len(lanes)

    for ep in range(epochs):
        schedules = [list(heterogeneous_batches(lane.end_data, lane.aux_data, batch_size,
                                                [lane.cfg.seed, ep]))
                     for lane in lanes]
        end_cols = _gather(end_columns, end_offsets, schedules, 0)
        aux_cols = _gather(aux_columns, aux_offsets, schedules, 1)
        if end_cols is not None:
            X, neg_y, t, w = end_cols
        if aux_cols is not None:
            Xt, X0 = aux_cols

        loss_sum = 0.0
        for rows, size in steps:
            end = aux = batch_weights = None
            if end_cols is not None:
                end = (X[rows], neg_y[rows], t[rows])
                batch_weights = (w[rows] if hook is None
                                 else functools.partial(hook, group_ids=w[rows]))
            if aux_cols is not None:
                aux = (Xt[rows], X0[rows])
            le = joint_terms(*arrays, weights, end, aux, batch_weights)
            n_finite, failure = _finite_lanes(le, len(lanes))
            lane_evals = ((le,) if single else
                          map(LossEval, le.value, le.grad_a, le.grad_w_end, le.grad_W_aux))
            # the lanes before the first non-finite one step first, so a lane
            # among them that fails its step is named
            for r, lane_eval in zip(range(n_finite), lane_evals):
                try:
                    state[r] = sgd_step(state[r], lane_eval, learning_rates[r])
                except DivergedError as e:
                    raise DivergedError(str(e), epoch=ep, **names[r]) from None
            if failure:
                raise DivergedError(failure, epoch=ep, **names[n_finite])
            loss_sum += le.value * size
            arrays = _param_arrays(state)

        train_loss = np.atleast_1d(loss_sum / driver).tolist()
        stacked = [p[None] for p in arrays] if single else arrays
        vm = evaluate(stacked[:2], val_end)
        val_recon = ([None] * len(lanes) if val_aux is None
                     else joint_terms(*stacked, LossWeights(), None, val_aux).value.tolist())
        avg_acc, wg_acc = vm.avg_acc.tolist(), vm.wg_acc.tolist()
        for r, lane in enumerate(lanes):
            rec = EpochRecord(ep, train_loss[r], avg_acc[r], wg_acc[r], vm.per_group_acc[r],
                              val_recon[r])
            traces[r].records.append(rec)
            metric = _selection_metric(rec, lane.selector, aux_only)
            if metric > best_metric[r]:
                # sgd_step returns fresh arrays, so no later step touches these
                best_metric[r] = metric
                best_params[r] = state[r]
                traces[r].selected_epoch = ep
    for r, trace in enumerate(traces):
        if best_params[r] is None:
            raise DivergedError("no epoch had a finite selection metric", **names[r])
        trace.final_params = state[r]
    return list(zip(traces, best_params))
