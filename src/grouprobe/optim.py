"""Projected SGD over the two-task objective, with per-epoch validation
tracking, checkpoint selection, and optional early stopping."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DivergedError, InvalidInputError, InvalidSpecError
from .evalsel import SelectionStrategy, evaluate
from .linmodel import ModelParams, normalize_frobenius, project_l1, rescale_l1
from .objectives import (
    LossEval,
    LossWeights,
    activation_l1_penalty,
    end_loss,
    multitask_loss,
    recon_loss,
)
from .synthgen import AuxDataset, LabeledDataset

# An epoch counts as improving the selection metric only when it beats the
# best seen so far by at least this much.
IMPROVEMENT_EPS = 1e-12


@dataclass(frozen=True)
class OptimConfig:
    learning_rate: float
    batch_size: int
    epochs: int
    patience: int = 0  # 0 disables early stopping
    momentum: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidSpecError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise InvalidSpecError("batch_size must be >= 1")
        if self.epochs < 1:
            raise InvalidSpecError("epochs must be >= 1")
        if self.patience < 0:
            raise InvalidSpecError("patience must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidSpecError("momentum must be in [0, 1)")
        if self.seed < 0:
            raise InvalidSpecError("seed must be a non-negative integer")


@dataclass
class MomentumState:
    """Velocity buffers, one per parameter block."""

    v_a: np.ndarray
    v_w_end: np.ndarray
    v_W_aux: np.ndarray

    @classmethod
    def zeros(cls, d: int) -> "MomentumState":
        return cls(np.zeros(d), np.zeros(d), np.zeros((d, d)))


def sgd_step(
    params: ModelParams, grads: LossEval, cfg: OptimConfig, state: MomentumState
) -> ModelParams:
    """One descent step followed by constraint enforcement.

    Order: momentum update, parameter update, then project `a` back to its
    L1 set and renormalize W_aux.  Returns fresh parameters; `state` is
    updated in place.
    """
    if not (
        np.isfinite(grads.grad_a).all()
        and np.isfinite(grads.grad_w_end).all()
        and np.isfinite(grads.grad_W_aux).all()
    ):
        raise DivergedError("non-finite gradient")
    m = cfg.momentum
    state.v_a = m * state.v_a + grads.grad_a
    state.v_w_end = m * state.v_w_end + grads.grad_w_end
    state.v_W_aux = m * state.v_W_aux + grads.grad_W_aux

    a = params.a - cfg.learning_rate * state.v_a
    w_end = params.w_end - cfg.learning_rate * state.v_w_end
    W_aux = params.W_aux - cfg.learning_rate * state.v_W_aux

    if params.tau is not None:
        a = rescale_l1(a, params.tau) if params.l1_boundary else project_l1(a, params.tau)
    if params.fro_radius is not None:
        W_aux = normalize_frobenius(W_aux, params.fro_radius)
    out = ModelParams(a=a, w_end=w_end, W_aux=W_aux, tau=params.tau,
                      fro_radius=params.fro_radius, l1_boundary=params.l1_boundary)
    assert out.feasible(), "constraint violated after projection"
    return out


def _index_schedule(n: int | None, length: int, seed_seq) -> np.ndarray | None:
    # `length` shuffled indices into range(n): whole permutations back to
    # back, so a shorter stream reshuffles each time a pass completes
    if n is None:
        return None
    rng = np.random.default_rng(seed_seq)
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

    end_child, aux_child = np.random.SeedSequence(seed).spawn(2)
    driver = max(v for v in (n_end, n_aux) if v is not None)
    end_idx = _index_schedule(n_end, driver, end_child)
    aux_idx = _index_schedule(n_aux, driver, aux_child)
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
    stop_epoch: int = 0
    stopped_early: bool = False
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


def train(
    params: ModelParams,
    end_data: LabeledDataset | None,
    aux_data: AuxDataset | None,
    weights: LossWeights,
    cfg: OptimConfig,
    val_data: LabeledDataset | None,
    selector: SelectionStrategy,
    loss_fn=None,
    end_sample_weights=None,
    val_aux: AuxDataset | None = None,
) -> tuple[TrainTrace, ModelParams]:
    """Run minibatch SGD for cfg.epochs and return (trace, best parameters).

    The best parameters are those of the selected epoch, `trace.selected_epoch`;
    `trace.final_params` holds the parameters after the last epoch run.

    The default loss is the joint objective (end BCE + weighted
    reconstruction + activation penalty); with no aux stream the aux terms
    use the end batch's activations only, and with no end stream training is
    pure reconstruction.  `loss_fn(params, end_idx, aux_idx)` overrides the
    composition entirely (used by the reweighting baselines).

    Validation runs once per epoch after its final step.  The selected
    checkpoint maximizes the selector metric (average or worst-group
    validation accuracy; the negated validation reconstruction loss without
    an end stream), earliest epoch on ties; epochs whose metric is NaN are
    never selected.  With patience > 0, training stops after that many
    consecutive epochs that fail to improve the metric by at least
    IMPROVEMENT_EPS.
    """
    aux_only = end_data is None
    if aux_only and aux_data is None:
        raise InvalidInputError("need at least one data stream")
    if aux_only and val_aux is None:
        raise InvalidInputError("aux-only training needs val_aux for checkpoint selection")
    if not aux_only and (val_data is None or len(val_data) == 0):
        raise InvalidInputError("validation data must be non-empty")
    if end_sample_weights is not None and loss_fn is not None:
        raise InvalidInputError("pass sample weights or a custom loss, not both")

    if loss_fn is None:
        def loss_fn(p, ei, ai):
            if aux_only:
                total = recon_loss(p, aux_data.take(ai))
                if weights.alpha_reg != 0.0:
                    total.add_scaled(activation_l1_penalty(p, aux_data.noised[ai]), weights.alpha_reg)
                return total
            end_batch = end_data.take(ei)
            sw = end_sample_weights[ei] if end_sample_weights is not None else None
            if aux_data is None:
                total = end_loss(p, end_batch, weights.lambda_l2, sw)
                if weights.alpha_reg != 0.0:
                    total.add_scaled(activation_l1_penalty(p, end_batch.features), weights.alpha_reg)
                return total
            return multitask_loss(p, end_batch, aux_data.take(ai), weights, sw)

    trace = TrainTrace()
    state = MomentumState.zeros(params.d)
    best_metric = -np.inf
    best_params = None
    bad_epochs = 0

    for ep in range(cfg.epochs):
        loss_sum = 0.0
        n_sum = 0
        for ei, ai in heterogeneous_batches(end_data, aux_data, cfg.batch_size, [cfg.seed, ep]):
            le = loss_fn(params, ei, ai)
            if not math.isfinite(le.value):
                raise DivergedError("non-finite training loss", epoch=ep)
            size = len(ei) if ei is not None else len(ai)
            loss_sum += le.value * size
            n_sum += size
            try:
                params = sgd_step(params, le, cfg, state)
            except DivergedError:
                raise DivergedError("non-finite gradient", epoch=ep) from None

        if val_data is not None:
            vm = evaluate(params, val_data)
            val_avg, val_wg, val_groups = vm.avg_acc, vm.wg_acc, vm.per_group_acc
        else:
            val_avg = val_wg = float("nan")
            val_groups = np.full(4, np.nan)
        val_recon = (
            float(recon_loss(params, val_aux).value) if val_aux is not None else None
        )
        rec = EpochRecord(
            epoch=ep,
            train_loss=loss_sum / n_sum,
            val_avg_acc=val_avg,
            val_wg_acc=val_wg,
            val_group_acc=val_groups,
            val_recon_loss=val_recon,
        )
        trace.records.append(rec)

        metric = _selection_metric(rec, selector, aux_only)
        improved = metric >= best_metric + IMPROVEMENT_EPS
        if metric > best_metric:
            best_metric = metric
            best_params = params.copy()
            trace.selected_epoch = ep
        if cfg.patience > 0:
            bad_epochs = 0 if improved else bad_epochs + 1
            if bad_epochs >= cfg.patience:
                trace.stopped_early = True
                break
    trace.stop_epoch = len(trace.records)
    if best_params is None:
        raise DivergedError("no epoch had a finite selection metric")
    trace.final_params = params
    return trace, best_params
