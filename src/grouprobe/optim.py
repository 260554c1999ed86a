"""Projected SGD over the two-task objective, run for a fixed number of
epochs, with per-epoch validation tracking and checkpoint selection.

`train` is the one training loop.  It trains the lanes (runs) that can
share a step (see `_lockstep_key`) as one group, in lockstep: one stacked
loss-and-gradient call per step (see `objectives`), one `sgd_step` call per
lane-step and one `heterogeneous_batches` schedule per lane-epoch, both
looked up on this module.  A group's parameters are three stacks, (R, d)
`a`, (R, d) `w_end` and (R, d, d) `W_aux`, from entry to exit: a lane's
`ModelParams` is read when it enters and built again only for its results.
Every lane's outputs equal its one-lane run's bit for bit.
"""

from __future__ import annotations

import csv
import functools
import operator
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, DivergedError, InvalidInputError, InvalidSpecError, ShapeError
from .evalsel import SelectionStrategy, evaluate
from .linmodel import ModelParams, in_constraint_set, normalize_frobenius, project_l1, rescale_l1
from .objectives import (
    LaneWeights,
    LossEval,
    LossWeights,
    check_sample_weights,
    end_stream,
    featurize,
    joint_terms,
    recon_value,
)
from .synthgen import N_GROUPS, AuxDataset, LabeledDataset

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


def sgd_step(params: ModelParams, arrays: tuple, grads: tuple, lr: float) -> tuple:
    """One lane's descent step followed by constraint enforcement: fresh
    (a, w_end, W_aux) from the lane's rows `arrays` and gradient rows
    `grads`, which are not written.  Of `params` only the constraint set
    (tau, l1_boundary, fro_radius) is read.

    Order: update, project `a` back to its L1 set and renormalize W_aux,
    check.  Raises DivergedError when the step leaves arrays the projection
    cannot bring back into the set, which includes any NaN or +-inf gradient
    entry: `train` names those in its one check per group step, and here
    `project_l1` finds no threshold, `rescale_l1` and `normalize_frobenius`
    scale by a NaN or zero factor that leaves NaN, and `in_constraint_set`
    rejects a non-finite block.
    """
    (a, w_end, W_aux), (grad_a, grad_w_end, grad_W_aux) = arrays, grads
    a, w_end, W_aux = a - lr * grad_a, w_end - lr * grad_w_end, W_aux - lr * grad_W_aux
    try:
        if params.tau is not None:
            a = rescale_l1(a, params.tau) if params.l1_boundary else project_l1(a, params.tau)
        if params.fro_radius is not None:
            W_aux = normalize_frobenius(W_aux, params.fro_radius)
    except DegenerateInputError as e:
        raise DivergedError(f"projection failed: {e}") from None
    if not in_constraint_set(params, a, w_end, W_aux):
        raise DivergedError("parameters infeasible after projection")
    return a, w_end, W_aux


@functools.lru_cache(maxsize=64)
def _index_schedule(n: int, length: int, seed: int | tuple[int, ...], stream: int) -> np.ndarray:
    """`length` shuffled indices into range(n), read-only: whole permutations
    back to back, so a shorter stream reshuffles each time a pass completes.
    The generator is child `stream` of SeedSequence(seed), built directly
    rather than through spawn().

    The draw is a pure function of its arguments, so it is memoized and the
    one array is shared by every caller, which is why it is read-only.  The
    64 entries hold one group-epoch's distinct draws (2 streams x the
    distinct seeds, 10 in a 5-seed recipe) several times over; they take at
    most 64 x length x 8 bytes, 0.5 MB at 1,000 rows.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))
    out = np.concatenate([rng.permutation(n) for _ in range(-(-length // n))])[:length]
    out.flags.writeable = False
    return out


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
    its slot.  `seed` is SeedSequence entropy, an int or a sequence of ints;
    the index arrays are read-only views of draws shared with every other
    call of the same rows, length, seed and stream.
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
    # the cache key: a sequence seed becomes a tuple of ints, which
    # SeedSequence reads as it reads the list; None, whose entropy is fresh
    # on every call, raises TypeError here
    key = operator.index(seed) if np.ndim(seed) == 0 else tuple(map(operator.index, seed))
    end_idx, aux_idx = (None if n is None else _index_schedule(n, driver, key, stream)
                        for stream, n in enumerate((n_end, n_aux)))
    for start in range(0, driver, batch_size):
        stop = start + batch_size
        yield (
            end_idx[start:stop] if end_idx is not None else None,
            aux_idx[start:stop] if aux_idx is not None else None,
        )


@dataclass
class TrainTrace:
    """One lane's per-epoch columns, row `ep` for epoch ep: (epochs,)
    arrays, (epochs, 4) for `val_group_acc` (NaN for a group absent from
    val_data), `val_recon_loss` None without val_aux; plus the selected
    epoch and the last epoch's parameters."""

    train_loss: np.ndarray
    val_avg_acc: np.ndarray
    val_wg_acc: np.ndarray
    val_group_acc: np.ndarray
    val_recon_loss: np.ndarray | None
    selected_epoch: int
    final_params: ModelParams

    CSV_HEADER = ["epoch", "train_loss", "val_avg_acc", "val_wg_acc", "g0", "g1", "g2", "g3"]

    def to_csv(self, path: str | Path) -> None:
        table = np.column_stack([self.train_loss, self.val_avg_acc, self.val_wg_acc,
                                 self.val_group_acc])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.CSV_HEADER)
            # tolist() gives Python floats, which csv writes as their repr
            w.writerows([ep, *row] for ep, row in enumerate(table.tolist()))


@dataclass(frozen=True)
class Lane:
    """One run's inputs to `train`: start parameters, training streams, loss
    weights, optimizer settings and checkpoint selection.

    `sample_weights` needs an end stream.  It is one fixed, finite weight
    per row of end_data (None: all ones, plain ERM), kept as the checked
    float64 column, or a hook `(nll, group_ids) -> weights` called once per
    step with this lane's per-sample losses and group ids.  A hook holds one
    lane's state, such as the group-DRO group distribution.  Without an end
    stream, `val_aux` is required: its reconstruction loss selects the
    checkpoint.  A lane with a `tag` names its run (tag and seed) in a
    `DivergedError`.  A lane checks itself when it is built: bad inputs
    raise `InvalidInputError` or `ShapeError` there, before any lane trains.
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

    def __post_init__(self):
        aux_only = self.end_data is None
        if aux_only and self.aux_data is None:
            raise InvalidInputError("need at least one data stream")
        if aux_only and self.val_aux is None:
            raise InvalidInputError("aux-only training needs val_aux for checkpoint selection")
        if self.val_data is None or len(self.val_data) == 0 or (
                self.val_aux is not None and len(self.val_aux) == 0):
            raise InvalidInputError("validation data must be non-empty")
        if aux_only and self.sample_weights is not None:
            raise InvalidInputError("sample weighting needs an end stream")
        fixed = self.sample_weights is not None and not callable(self.sample_weights)
        if fixed:
            object.__setattr__(self, "sample_weights",
                               check_sample_weights(self.sample_weights, len(self.end_data)))
        streams = (self.end_data, self.aux_data, self.val_data, self.val_aux)
        if any(data is not None and data.d != self.params.d for data in streams):
            raise ShapeError("training or validation data feature dim does not match the model")
        if any(data is not None and len(data) == 0 for data in (self.end_data, self.aux_data)):
            raise InvalidInputError("cannot batch an empty dataset")
        if fixed and not np.isfinite(self.sample_weights).all():
            raise InvalidInputError("sample_weights must be finite")


def _lockstep_key(lane: Lane):
    # what the lanes of one group share: the step schedule's shape, the
    # stacked arrays' shapes (validation sets included), and the terms the
    # kernel runs; sample weights, fixed or a hook, need no clause
    w = lane.weights
    return (lane.cfg.batch_size, lane.cfg.epochs, lane.params.d,
            *(None if data is None else len(data)
              for data in (lane.end_data, lane.aux_data, lane.val_data, lane.val_aux)),
            w.alpha_aux != 0.0, w.alpha_reg != 0.0)


def _stream_columns(lane: Lane) -> tuple[tuple | None, tuple | None]:
    """A lane's per-row (end, aux) columns: `objectives.end_stream`, the
    fixed weights (all ones without them or with a hook) and the group ids,
    and (noised, targets); None for a missing stream."""
    end_columns = aux_columns = None
    if lane.end_data is not None:
        sw = lane.sample_weights
        column = np.ones(len(lane.end_data)) if sw is None or callable(sw) else sw
        end_columns = (*end_stream(lane.end_data), column, lane.end_data.group_ids)
    if lane.aux_data is not None:
        aux_columns = (lane.aux_data.noised, lane.aux_data.targets)
    return end_columns, aux_columns


def _gather(columns: tuple | None, schedules: list[list], slot: int) -> tuple | None:
    """One epoch of a stream's per-row columns, each with the R lanes' rows
    concatenated, gathered once in visiting order with one fancy index per
    column, so each step reads the next contiguous slice of each lane's
    row: (R, n_steps * B, ...)."""
    if columns is None:
        return None
    index = np.array([np.concatenate([batch[slot] for batch in batches])
                      for batches in schedules])
    index += np.arange(len(index))[:, None] * (len(columns[0]) // len(index))  # lane offsets
    # np.take copies the same rows as c[index], several times faster for 2-D c
    return tuple(np.take(c, index, axis=0) for c in columns)


def _hook_rows(hooks: list[Callable | None], weights: np.ndarray, group_ids: np.ndarray,
               nll: np.ndarray) -> np.ndarray:
    """A step's (R, B) sample weights in a group with a hook lane: that
    lane's hook on its row of losses and group ids, checked here, and every
    other lane's fixed row."""
    return np.array([w if hook is None else check_sample_weights(hook(row, g), len(row))
                     for hook, w, g, row in zip(hooks, weights, group_ids, nll)])


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
    `trace.final_params` holds the parameters after the last epoch, and the
    trace's columns hold one row per epoch (see `TrainTrace`).  Each lane
    trains exactly as it would alone, bit for bit.

    Lanes that share batch size, epochs, feature dim, training and
    validation stream lengths and the zero pattern of alpha_aux and
    alpha_reg train as one group, in lockstep, whatever their sample weights
    (fixed, none or a hook).  Groups, of one lane or more, run one after
    another, in order of their first lane.

    The loss is the joint objective of `objectives.joint_terms` (end BCE +
    weighted reconstruction + activation penalty); with no aux stream the
    aux terms use the end batch's activations only, and with no end stream
    training is pure reconstruction.  Each lane's streams are tuples of
    per-row columns, built once and, in a group of several lanes,
    concatenated across them.  Each epoch, every lane draws its own
    `heterogeneous_batches` schedule from its own data and seed (a draw with
    the same rows, length, seed and stream as an earlier one, in this group
    or another, is made once and shared read-only), and `_gather` reads
    every column once.  Each step is one `joint_terms` call on the group's
    (R, B, d) batches, one finiteness check of all lanes' loss values and
    gradients, and one `sgd_step` call per lane, with its learning rate and
    constraint set, on its rows of the group's (R, d) `a`, (R, d) `w_end`
    and (R, d, d) `W_aux` stacks, written back in place.  The stacks are the
    parameters from entry to exit: `ModelParams` are built only for the
    results.  `_hook_rows` runs the hooks.

    Each lane checked its inputs when it was built (see `Lane`).  A
    non-finite loss or gradient, or a failed step, raises `DivergedError`
    in the first group with a diverged lane, for its lowest-index lane that
    diverged at the earliest step.

    Validation on each lane's non-empty `val_data` (and `val_aux`) runs once
    per epoch after its final step, for the whole group at once: one stacked
    `evaluate` call and one stacked `recon_value` reconstruction loss (no
    gradients) on validation stacks built once per group, which fills row
    `ep` of (epochs, R) columns; a copy of each epoch's stacks is kept.
    After the last epoch one argmax over the (epochs, R) selector metric
    (average or worst-group validation accuracy per lane; the negated
    validation reconstruction loss without an end stream) picks every
    lane's checkpoint, earliest epoch on ties; epochs whose metric is NaN
    are never selected, and the lowest lane with no other epoch raises
    `DivergedError`.
    """
    if not lanes:
        raise InvalidInputError("need at least one lane")
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
    first = lanes[0]
    hooks = [lane.sample_weights if callable(lane.sample_weights) else None for lane in lanes]
    aux_only = first.end_data is None
    batch_size, epochs = first.cfg.batch_size, first.cfg.epochs
    epoch_rows = max(len(data) for data in (first.end_data, first.aux_data) if data is not None)

    # each stream's columns with the lanes' rows concatenated
    end_columns, aux_columns = (None if c[0] is None else tuple(map(np.concatenate, zip(*c)))
                                for c in zip(*map(_stream_columns, lanes)))
    weights = LaneWeights.stack([lane.weights for lane in lanes])
    names = [{} if lane.tag is None else {"tag": lane.tag, "seed": lane.cfg.seed}
             for lane in lanes]
    learning_rates = [lane.cfg.learning_rate for lane in lanes]
    # the only parameter state: row r of each stack is lane r's, stepped in place
    a, w_end, W_aux = (np.array([getattr(lane.params, k) for lane in lanes])
                       for k in ("a", "w_end", "W_aux"))
    # every epoch's steps: the slice of each lane's gathered columns that
    # one reads, and its batch size
    steps = [((slice(None), slice(start, start + batch_size)), min(batch_size, epoch_rows - start))
             for start in range(0, epoch_rows, batch_size)]
    # the lanes' validation columns, stacked once: (R, n_val, ...)
    val_end = tuple(np.array([getattr(lane.val_data, k) for lane in lanes])
                    for k in ("features", "labels", "group_ids"))
    val_aux = None if first.val_aux is None else tuple(
        np.array([getattr(lane.val_aux, k) for lane in lanes]) for k in ("noised", "targets"))
    # row ep of each per-epoch column, and history[ep], hold epoch ep's values
    R = len(lanes)
    train_loss, avg_acc, wg_acc = np.empty((3, epochs, R))
    group_acc = np.empty((epochs, R, N_GROUPS))
    recon = None if val_aux is None else np.empty((epochs, R))
    history = []

    for ep in range(epochs):
        schedules = [list(heterogeneous_batches(lane.end_data, lane.aux_data, batch_size,
                                                [lane.cfg.seed, ep]))
                     for lane in lanes]
        end_cols = _gather(end_columns, schedules, 0)
        aux_cols = _gather(aux_columns, schedules, 1)
        if end_cols is not None:
            X, neg_y, t, w, g = end_cols
        if aux_cols is not None:
            Xt, X0 = aux_cols

        loss_sum = 0.0
        for rows, size in steps:
            end = aux = batch_weights = None
            if end_cols is not None:
                end = (X[rows], neg_y[rows], t[rows])
                batch_weights = (functools.partial(_hook_rows, hooks, w[rows], g[rows])
                                 if any(hooks) else w[rows])
            if aux_cols is not None:
                aux = (Xt[rows], X0[rows])
            le = joint_terms(a, w_end, W_aux, weights, end, aux, batch_weights)
            n_finite, failure = _finite_lanes(le, R)
            # the lanes before the first non-finite one step first, so a lane
            # among them that fails its step is named
            for r in range(n_finite):
                try:
                    a[r], w_end[r], W_aux[r] = sgd_step(
                        lanes[r].params, (a[r], w_end[r], W_aux[r]),
                        (le.grad_a[r], le.grad_w_end[r], le.grad_W_aux[r]), learning_rates[r])
                except DivergedError as e:
                    raise DivergedError(str(e), epoch=ep, **names[r]) from None
            if failure:
                raise DivergedError(failure, epoch=ep, **names[n_finite])
            loss_sum += le.value * size

        history.append((a.copy(), w_end.copy(), W_aux.copy()))
        vm = evaluate((a, w_end), val_end)
        train_loss[ep] = loss_sum / epoch_rows
        avg_acc[ep], wg_acc[ep], group_acc[ep] = vm.avg_acc, vm.wg_acc, vm.per_group_acc
        if recon is not None:
            recon[ep] = recon_value(featurize(val_aux[0], a), val_aux[1], W_aux)[0]

    # each lane's checkpoint: the earliest epoch of greatest metric, where
    # fmax maps NaN to -inf, and a -inf epoch is never selected
    val_gp = [lane.selector is SelectionStrategy.VAL_GP for lane in lanes]
    metric = np.fmax(-recon if aux_only else np.where(val_gp, wg_acc, avg_acc), -np.inf)
    unselectable = np.isneginf(metric.max(axis=0))
    if unselectable.any():
        raise DivergedError("no epoch had a finite selection metric",
                            **names[unselectable.argmax()])
    selected = metric.argmax(axis=0).tolist()

    def lane_params(r, a, w_end, W_aux):
        return replace(lanes[r].params, a=a[r], w_end=w_end[r], W_aux=W_aux[r])

    return [(TrainTrace(train_loss[:, r], avg_acc[:, r], wg_acc[:, r], group_acc[:, r],
                        None if recon is None else recon[:, r], ep,
                        lane_params(r, a, w_end, W_aux)),
             lane_params(r, *history[ep]))
            for r, ep in enumerate(selected)]
