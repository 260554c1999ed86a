"""Projected SGD over the two-task objective, with per-epoch validation
tracking, checkpoint selection, and optional early stopping."""

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
from .objectives import LossEval, LossWeights, check_sample_weights, joint_terms, recon_loss
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
    L1 set and renormalize W_aux.  With momentum 0 the velocity is the
    gradient itself.  Raises DivergedError on a non-finite gradient, or
    when the step leaves parameters the projection cannot bring back into
    the constraint set.  Returns fresh parameters in that set, built without
    re-running the ModelParams checks; `state` is updated in place.
    """
    if not (
        np.isfinite(grads.grad_a).all()
        and np.isfinite(grads.grad_w_end).all()
        and np.isfinite(grads.grad_W_aux).all()
    ):
        raise DivergedError("non-finite gradient")
    m = cfg.momentum
    if m == 0.0:
        state.v_a, state.v_w_end, state.v_W_aux = grads.grad_a, grads.grad_w_end, grads.grad_W_aux
    else:
        state.v_a = m * state.v_a + grads.grad_a
        state.v_w_end = m * state.v_w_end + grads.grad_w_end
        state.v_W_aux = m * state.v_W_aux + grads.grad_W_aux

    lr = cfg.learning_rate
    a = params.a - lr * state.v_a
    w_end = params.w_end - lr * state.v_w_end
    W_aux = params.W_aux - lr * state.v_W_aux

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
    end_sample_weights=None,
    weight_hook=None,
    val_aux: AuxDataset | None = None,
) -> tuple[TrainTrace, ModelParams]:
    """Run minibatch SGD for cfg.epochs and return (trace, best parameters).

    The best parameters are those of the selected epoch, `trace.selected_epoch`;
    `trace.final_params` holds the parameters after the last epoch run.

    The loss is the joint objective of `objectives.joint_terms` (end BCE +
    weighted reconstruction + activation penalty); with no aux stream the
    aux terms use the end batch's activations only, and with no end stream
    training is pure reconstruction.  Each epoch draws its batch schedule
    from one `heterogeneous_batches` call, gathers the rows it visits once,
    and gives every step a contiguous slice of them; each step is one
    `joint_terms` call and one `sgd_step` call.

    End-stream samples can be weighted in one of two ways, not both:
    `end_sample_weights` holds one fixed weight per row of end_data, and
    `weight_hook(nll, group_ids)` is called once per step with the batch's
    per-sample losses and group ids and returns the batch's weights (the
    online group reweighting baseline updates its group distribution there).

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
    if end_sample_weights is not None and weight_hook is not None:
        raise InvalidInputError("pass sample weights or a weight hook, not both")
    if aux_only and (end_sample_weights is not None or weight_hook is not None):
        raise InvalidInputError("sample weighting needs an end stream")
    if any(data is not None and data.d != params.d for data in (end_data, aux_data)):
        raise ShapeError("training data feature dim does not match the model")
    if not aux_only:
        end_sample_weights = check_sample_weights(end_sample_weights, len(end_data))

    trace = TrainTrace()
    state = MomentumState.zeros(params.d)
    best_metric = -np.inf
    best_params = None
    bad_epochs = 0

    for ep in range(cfg.epochs):
        batches = list(heterogeneous_batches(end_data, aux_data, cfg.batch_size, [cfg.seed, ep]))
        # gather the rows this epoch visits once, in visiting order; each
        # step then takes the next contiguous slice
        if not aux_only:
            end_rows = np.concatenate([ei for ei, _ in batches])
            X = end_data.features[end_rows]
            y = end_data.labels[end_rows].astype(np.float64)
            neg_y, t = -y, 0.5 * (y + 1.0)
            if end_sample_weights is not None:
                sw = end_sample_weights[end_rows]
            if weight_hook is not None:
                groups = end_data.group_ids[end_rows]
        if aux_data is not None:
            aux_rows = np.concatenate([ai for _, ai in batches])
            Xt, X0 = aux_data.noised[aux_rows], aux_data.targets[aux_rows]

        loss_sum = 0.0
        seen = 0
        for ei, ai in batches:
            size = len(ei) if ei is not None else len(ai)
            rows = slice(seen, seen + size)
            seen += size
            end = aux = batch_weights = None
            if not aux_only:
                end = (X[rows], neg_y[rows], t[rows])
                if end_sample_weights is not None:
                    batch_weights = sw[rows]
                elif weight_hook is not None:
                    batch_weights = functools.partial(weight_hook, group_ids=groups[rows])
            if aux_data is not None:
                aux = (Xt[rows], X0[rows])
            le = joint_terms(params.a, params.w_end, params.W_aux, weights, end, aux,
                             batch_weights)
            if not math.isfinite(le.value):
                raise DivergedError("non-finite training loss", epoch=ep)
            loss_sum += le.value * size
            try:
                params = sgd_step(params, le, cfg, state)
            except DivergedError as e:
                raise DivergedError(str(e), epoch=ep) from None

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
            train_loss=loss_sum / seen,
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
