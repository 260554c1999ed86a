"""Projected SGD over the two-task objective, run for a fixed number of
epochs, with per-epoch validation tracking and checkpoint selection."""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, DivergedError, InvalidInputError, InvalidSpecError, ShapeError
from .evalsel import SelectionStrategy, evaluate
from .linmodel import ModelParams, normalize_frobenius, project_l1, rescale_l1
from .objectives import LossEval, LossWeights, check_sample_weights, end_stream, joint_terms, multitask_loss
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
    renormalize W_aux.  Raises DivergedError on a non-finite gradient, or
    when the step leaves parameters the projection cannot bring back into
    the constraint set.  Returns fresh parameters in that set, built without
    re-running the ModelParams checks.
    """
    if not (
        np.isfinite(grads.grad_a).all()
        and np.isfinite(grads.grad_w_end).all()
        and np.isfinite(grads.grad_W_aux).all()
    ):
        raise DivergedError("non-finite gradient")
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


def _gather(columns: tuple, index_batches: list[np.ndarray]) -> tuple:
    """One epoch of a stream's per-row columns, gathered once in visiting
    order, so each step reads the next contiguous slice; None stays None."""
    rows = np.concatenate(index_batches)
    return tuple(None if c is None else c[rows] for c in columns)


def train(
    params: ModelParams,
    end_data: LabeledDataset | None,
    aux_data: AuxDataset | None,
    weights: LossWeights,
    cfg: OptimConfig,
    val_data: LabeledDataset,
    selector: SelectionStrategy,
    sample_weights=None,
    val_aux: AuxDataset | None = None,
) -> tuple[TrainTrace, ModelParams]:
    """Run minibatch SGD for cfg.epochs and return (trace, best parameters).

    The best parameters are those of the selected epoch, `trace.selected_epoch`;
    `trace.final_params` holds the parameters after the last epoch.

    The loss is the joint objective of `objectives.joint_terms` (end BCE +
    weighted reconstruction + activation penalty); with no aux stream the
    aux terms use the end batch's activations only, and with no end stream
    training is pure reconstruction.  Each stream is a tuple of per-row
    columns built once: `objectives.end_stream` plus the weight column, or
    (noised, targets).  Each epoch takes one `heterogeneous_batches`
    schedule and `_gather`s every column once; each step is one
    `joint_terms` call and one `sgd_step` call on the next slice.

    `sample_weights` needs an end stream.  It is one fixed weight per row of
    end_data, or a hook `(nll, group_ids) -> weights` called once per step
    with the batch's per-sample losses and group ids (the online group
    reweighting baseline updates its group distribution there).

    Validation on the non-empty `val_data` (and `val_aux` without an end
    stream) runs once per epoch after its final step.  The selected
    checkpoint maximizes the selector metric (average or worst-group
    validation accuracy; the negated validation reconstruction loss without
    an end stream), earliest epoch on ties; epochs whose metric is NaN are
    never selected.
    """
    aux_only = end_data is None
    if aux_only and aux_data is None:
        raise InvalidInputError("need at least one data stream")
    if aux_only and val_aux is None:
        raise InvalidInputError("aux-only training needs val_aux for checkpoint selection")
    if val_data is None or len(val_data) == 0:
        raise InvalidInputError("validation data must be non-empty")
    if aux_only and sample_weights is not None:
        raise InvalidInputError("sample weighting needs an end stream")
    if any(data is not None and data.d != params.d for data in (end_data, aux_data)):
        raise ShapeError("training data feature dim does not match the model")
    hook = sample_weights if callable(sample_weights) else None
    if not aux_only:
        weight_column = (end_data.group_ids if hook is not None
                         else check_sample_weights(sample_weights, len(end_data)))
    end_columns = None if aux_only else (*end_stream(end_data), weight_column)
    aux_columns = None if aux_data is None else (aux_data.noised, aux_data.targets)

    trace = TrainTrace()
    best_metric = -np.inf
    best_params = None

    for ep in range(cfg.epochs):
        batches = list(heterogeneous_batches(end_data, aux_data, cfg.batch_size, [cfg.seed, ep]))
        if end_columns is not None:
            X, neg_y, t, w = _gather(end_columns, [ei for ei, _ in batches])
        if aux_columns is not None:
            Xt, X0 = _gather(aux_columns, [ai for _, ai in batches])

        loss_sum = 0.0
        seen = 0
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
            try:
                params = sgd_step(params, le, cfg.learning_rate)
            except DivergedError as e:
                raise DivergedError(str(e), epoch=ep) from None

        vm = evaluate(params, val_data)
        val_recon = (None if val_aux is None
                     else multitask_loss(params, None, val_aux, LossWeights()).value)
        rec = EpochRecord(
            epoch=ep,
            train_loss=loss_sum / seen,
            val_avg_acc=vm.avg_acc,
            val_wg_acc=vm.wg_acc,
            val_group_acc=vm.per_group_acc,
            val_recon_loss=val_recon,
        )
        trace.records.append(rec)

        metric = _selection_metric(rec, selector, aux_only)
        if metric > best_metric:
            best_metric = metric
            best_params = params.copy()
            trace.selected_epoch = ep
    if best_params is None:
        raise DivergedError("no epoch had a finite selection metric")
    trace.final_params = params
    return trace, best_params
