"""Robust-training baselines over the same data, loop, and evaluation stack:
plain ERM, two-stage upweighting (JTT-style), online group reweighting
(groupDRO-style, treated as a group-supervised skyline), and the regularized
multitask trainer."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, InvalidSpecError
from .evalsel import GroupMetrics, SelectionStrategy, evaluate
from .linmodel import ModelParams, classify, init_params
from .objectives import LossWeights
from .optim import OptimConfig, TrainTrace, train
from .synthgen import N_GROUPS, AuxDataset, LabeledDataset

# Fixed tags for deriving per-role PRNG seeds from one run seed.
_INIT_SEED_TAG = 101
_SECOND_STAGE_SEED_TAG = 102


def _init_seed(cfg: OptimConfig, tag: int = _INIT_SEED_TAG):
    return [cfg.seed, tag]


@dataclass(frozen=True)
class TaskData:
    """Train/validation/test splits of one classification task."""

    train: LabeledDataset
    val: LabeledDataset
    test: LabeledDataset

    def __post_init__(self):
        if min(len(self.train), len(self.val), len(self.test)) == 0:
            raise InvalidInputError("all three splits must be non-empty")
        if not (self.train.d == self.val.d == self.test.d):
            raise InvalidInputError("splits disagree on the feature dimension")


@dataclass(frozen=True)
class JttConfig:
    """Two-stage upweighting: id_epochs of plain ERM pick the error set,
    then a fresh model trains with those points upweighted."""

    id_epochs: int
    upweight: float = 5.0

    def __post_init__(self):
        if self.id_epochs < 1:
            raise InvalidSpecError("id_epochs must be >= 1")
        if self.upweight < 1:
            raise InvalidSpecError("upweight must be >= 1")


@dataclass(frozen=True)
class GroupDroConfig:
    """Exponentiated-gradient ascent rate on the group weights."""

    group_step: float = 0.01

    def __post_init__(self):
        if self.group_step < 0:
            raise InvalidSpecError("group_step must be >= 0")


@dataclass
class FitResult:
    """One trained model with its trace, selected checkpoint, and test scores.

    Test metrics are reported twice: for the selected checkpoint and for the
    final epoch.  Checkpoint selection changes the story for some methods, so
    both views are always kept.  `extras` is JSON-safe method-specific output
    (error-set stats, final group weights); `diagnostics` holds bulky
    in-memory-only arrays such as the full group-weight trajectory.
    """

    method: str
    config: dict
    selected_epoch: int
    val_metrics: dict
    test_metrics: GroupMetrics
    final_metrics: GroupMetrics
    params: ModelParams
    trace: TrainTrace
    extras: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "config": self.config,
            "selected_epoch": self.selected_epoch,
            "val_metrics": self.val_metrics,
            "test_metrics": self.test_metrics.to_json_dict(),
            "final_metrics": self.final_metrics.to_json_dict(),
            "extras": self.extras,
        }


def _config_echo(method: str, cfg: OptimConfig, selector: SelectionStrategy, **kw) -> dict:
    return {"method": method, **asdict(cfg), "selection": selector.value, **kw}


def _package(
    method: str,
    config: dict,
    data: TaskData,
    trace: TrainTrace,
    best: ModelParams,
    extras: dict | None = None,
    diagnostics: dict | None = None,
) -> FitResult:
    # the checkpoint is the one train() selected; records are one per epoch
    rec = trace.records[trace.selected_epoch]
    val_metrics = {"avg_acc": rec.val_avg_acc, "wg_acc": rec.val_wg_acc}
    if rec.val_recon_loss is not None:
        val_metrics["recon_loss"] = rec.val_recon_loss
    return FitResult(
        method=method,
        config=config,
        selected_epoch=trace.selected_epoch,
        val_metrics=val_metrics,
        test_metrics=evaluate(best, data.test),
        final_metrics=evaluate(trace.final_params, data.test),
        params=best,
        trace=trace,
        extras=extras or {},
        diagnostics=diagnostics or {},
    )


def train_erm(
    data: TaskData,
    cfg: OptimConfig,
    selector: SelectionStrategy,
    tau: float | None = None,
    l1_boundary: bool = False,
    lambda_l2: float = 1.0,
) -> FitResult:
    """End task only: BCE + L2 on the head, no aux stream, no reweighting."""
    params = init_params(data.train.d, tau, _init_seed(cfg), l1_boundary=l1_boundary)
    weights = LossWeights(alpha_aux=0.0, alpha_reg=0.0, lambda_l2=lambda_l2)
    trace, best = train(params, data.train, None, weights, cfg, data.val, selector)
    echo = _config_echo("erm", cfg, selector, tau=tau, lambda_l2=lambda_l2)
    return _package("erm", echo, data, trace, best)


def train_jtt(
    data: TaskData,
    cfg: OptimConfig,
    jtt: JttConfig,
    selector: SelectionStrategy,
    tau: float | None = None,
    l1_boundary: bool = False,
    lambda_l2: float = 1.0,
) -> FitResult:
    """Loss-based upweighting without group labels.

    Stage 1 runs plain ERM for jtt.id_epochs; its final model's training
    errors form the set E.  Stage 2 restarts from a fresh initialization and
    minimizes the same loss with E upweighted by jtt.upweight, weights
    rescaled to mean 1.  An empty E degrades to plain ERM, flagged in extras.
    """
    stage1_cfg = replace(cfg, epochs=jtt.id_epochs, patience=0)
    p1 = init_params(data.train.d, tau, _init_seed(cfg), l1_boundary=l1_boundary)
    w0 = LossWeights(lambda_l2=lambda_l2)
    trace1, _ = train(p1, data.train, None, w0, stage1_cfg, data.val, selector)
    stage1_final = trace1.final_params

    wrong = classify(stage1_final, data.train.features) != data.train.labels
    err_counts = np.bincount(data.train.group_ids[wrong], minlength=N_GROUPS)
    extras = {
        "jtt": {
            "error_set_size": int(wrong.sum()),
            "error_group_counts": [int(v) for v in err_counts],
            "fallback_erm": bool(wrong.sum() == 0),
        }
    }

    echo = _config_echo(
        "jtt", cfg, selector, tau=tau, lambda_l2=lambda_l2,
        id_epochs=jtt.id_epochs, upweight=jtt.upweight,
    )
    p2 = init_params(data.train.d, tau, _init_seed(cfg, _SECOND_STAGE_SEED_TAG),
                     l1_boundary=l1_boundary)
    sw = None  # nothing to upweight: stage 2 is exactly ERM
    if wrong.any():
        sw = np.where(wrong, jtt.upweight, 1.0)
        sw = sw / sw.mean()
    trace2, best = train(
        p2, data.train, None, w0, cfg, data.val, selector, end_sample_weights=sw
    )
    return _package("jtt", echo, data, trace2, best, extras)


def train_group_dro(
    data: TaskData,
    cfg: OptimConfig,
    dro: GroupDroConfig,
    selector: SelectionStrategy,
    tau: float | None = None,
    l1_boundary: bool = False,
    lambda_l2: float = 1.0,
) -> FitResult:
    """Online worst-group reweighting with known train group labels.

    Keeps a distribution q over the four groups.  Each step first lifts q
    multiplicatively by exp(group_step * group batch loss) for groups present
    in the batch and renormalizes, then descends the q-weighted loss.  With
    group_step == 0, q stays uniform (group-balanced ERM).
    """
    if not (data.train.group_counts() > 0).all():
        raise InvalidInputError("group reweighting requires all four groups in training data")

    params = init_params(data.train.d, tau, _init_seed(cfg), l1_boundary=l1_boundary)
    q = np.full(N_GROUPS, 1.0 / N_GROUPS)
    q_steps: list[np.ndarray] = []
    loss_steps: list[np.ndarray] = []

    def reweight(nll, group_ids):
        # group losses exclude the L2 penalty: it does not depend on the data
        gl = np.full(N_GROUPS, np.nan)
        counts = np.bincount(group_ids, minlength=N_GROUPS)
        for g in range(N_GROUPS):
            if counts[g]:
                gl[g] = nll[group_ids == g].mean()
        present = counts > 0
        q[present] *= np.exp(dro.group_step * gl[present])
        q[:] = q / q.sum()
        q_steps.append(q.copy())
        loss_steps.append(gl)
        return q[group_ids] * len(group_ids) / counts[group_ids]

    weights = LossWeights(lambda_l2=lambda_l2)
    trace, best = train(
        params, data.train, None, weights, cfg, data.val, selector, weight_hook=reweight
    )
    echo = _config_echo(
        "group_dro", cfg, selector, tau=tau, lambda_l2=lambda_l2, group_step=dro.group_step
    )
    extras = {"group_dro": {"final_q": [float(v) for v in q]}}
    diagnostics = {"q_steps": q_steps, "group_loss_steps": loss_steps}
    return _package("group_dro", echo, data, trace, best, extras, diagnostics)


def train_reg_mtl(
    end_data: TaskData,
    aux_data: AuxDataset,
    weights: LossWeights,
    tau: float | None,
    cfg: OptimConfig,
    selector: SelectionStrategy,
    l1_boundary: bool = False,
) -> FitResult:
    """Joint end + reconstruction training under the L1 featurizer budget."""
    params = init_params(end_data.train.d, tau, _init_seed(cfg), l1_boundary=l1_boundary)
    trace, best = train(params, end_data.train, aux_data, weights, cfg, end_data.val, selector)
    echo = _config_echo(
        "reg_mtl", cfg, selector, tau=tau, lambda_l2=weights.lambda_l2,
        alpha_aux=weights.alpha_aux, alpha_reg=weights.alpha_reg,
    )
    return _package("reg_mtl", echo, end_data, trace, best)


def train_aux_only(
    data: TaskData,
    aux_train: AuxDataset,
    aux_val: AuxDataset,
    cfg: OptimConfig,
    tau: float | None,
    l1_boundary: bool = True,
    alpha_reg: float = 0.0,
    dense_init: bool = True,
) -> FitResult:
    """Reconstruction-only training; the end head is left at initialization.

    Selection picks the epoch with the lowest validation reconstruction
    error.  Test classification metrics are still reported but reflect the
    untrained head; the object of interest is the learned featurizer.

    dense_init defaults on: with no end task competing for the featurizer,
    several L1 allocations can reconstruct equally well, and a generic dense
    warm start is what lets runs land in different ones instead of having the
    identity warm start pick a single basin by construction.
    """
    params = init_params(data.train.d, tau, _init_seed(cfg),
                         l1_boundary=l1_boundary, dense_init=dense_init)
    weights = LossWeights(alpha_reg=alpha_reg)
    trace, best = train(
        params, None, aux_train, weights, cfg, data.val,
        SelectionStrategy.NO_GP, val_aux=aux_val,
    )
    echo = _config_echo("aux_only", cfg, SelectionStrategy.NO_GP, tau=tau, alpha_reg=alpha_reg)
    return _package("aux_only", echo, data, trace, best)
