"""Robust-training baselines over the same data, loop, and evaluation stack:
plain ERM, two-stage upweighting (JTT-style), online group reweighting
(groupDRO-style, treated as a group-supervised skyline), reconstruction-only
training, and the regularized multitask trainer.  A `RunSpec` names one
method and its hyperparameters, and `fit` trains any of them; `fit_lanes`
trains a list of runs through one `optim.train` call (after one for all JTT
first stages), which trains the runs that can share a step as lanes."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, InvalidSpecError
from .evalsel import GroupMetrics, SelectionStrategy, evaluate
from .linmodel import ModelParams, classify, init_params
from .objectives import LossWeights
from .optim import Lane, OptimConfig, TrainTrace, train
from .synthgen import N_GROUPS, AuxDataset, LabeledDataset

# Fixed tags for deriving per-role PRNG seeds from one run seed.
_INIT_SEED_TAG = 101
_SECOND_STAGE_SEED_TAG = 102

# Each method with the loss weights its run config echoes, in echo order:
# the end-task baselines take no aux weights, and reconstruction-only
# training never reads lambda_l2.
_ECHO_WEIGHTS = {
    "erm": ("lambda_l2",),
    "jtt": ("lambda_l2",),
    "group_dro": ("lambda_l2",),
    "reg_mtl": ("lambda_l2", "alpha_aux", "alpha_reg"),
    "aux_only": ("alpha_reg",),
}
METHODS = tuple(_ECHO_WEIGHTS)

# A run tag names the run's output files.
_TAG_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


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


@dataclass(frozen=True)
class RunSpec:
    """One training cell: a method plus its hyperparameters.

    `optim.seed` is the run seed.  The `jtt` and `group_dro` blocks are
    required on their own method and refused on any other.
    """

    tag: str
    method: str
    optim: OptimConfig
    weights: LossWeights = LossWeights()
    tau: float | None = None
    l1_boundary: bool = False
    jtt: JttConfig | None = None
    group_dro: GroupDroConfig | None = None

    def __post_init__(self):
        method, weights = self.method, self.weights
        if not self.tag or not set(self.tag) <= _TAG_CHARS:
            raise InvalidSpecError(f"tag must be non-empty and filesystem-safe, got {self.tag!r}")
        if method not in METHODS:
            raise InvalidSpecError(f"method must be one of {METHODS}, got {method!r}")
        if method in ("erm", "jtt", "group_dro") and (
            weights.alpha_aux != 0 or weights.alpha_reg != 0
        ):
            raise InvalidSpecError(f"{method} does not take aux loss weights")
        if method == "aux_only" and weights.alpha_aux != 0:
            raise InvalidSpecError("aux_only ignores alpha_aux; leave it at 0")
        for name in ("jtt", "group_dro"):
            if getattr(self, name) is not None and method != name:
                raise InvalidSpecError(f"{name} block is only valid for method {name!r}")
            if getattr(self, name) is None and method == name:
                raise InvalidSpecError(f"method {name!r} needs a {name} block")
        if self.tau is not None and not self.tau > 0:
            raise InvalidSpecError("tau must be positive or null")
        if self.l1_boundary and self.tau is None:
            raise InvalidSpecError("l1_boundary requires tau")


@dataclass
class FitResult:
    """One trained model with its trace, selected checkpoint, and test scores.

    Test metrics are reported twice: for the selected checkpoint and for the
    final epoch.  Checkpoint selection changes the story for some methods, so
    both views are always kept.  `params` is the selected checkpoint, and
    `val_metrics` its row of the trace's validation columns.  `extras` is
    JSON-safe method-specific output (error-set stats, final group weights).
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


def _group_reweighting(group_step: float):
    """The group-DRO weight hook for `optim.train`, and the group
    distribution q that each call of the hook updates in place."""
    q = np.full(N_GROUPS, 1.0 / N_GROUPS)

    def reweight(nll, group_ids):
        # group losses exclude the L2 penalty: it does not depend on the data
        gl = np.full(N_GROUPS, np.nan)
        counts = np.bincount(group_ids, minlength=N_GROUPS)
        for g in range(N_GROUPS):
            if counts[g]:
                gl[g] = nll[group_ids == g].mean()
        present = counts > 0
        q[present] *= np.exp(group_step * gl[present])
        q[:] = q / q.sum()
        return q[group_ids] * len(group_ids) / counts[group_ids]

    return reweight, q


def fit(
    run: RunSpec,
    data: TaskData,
    selector: SelectionStrategy,
    aux: AuxDataset | None = None,
    aux_val: AuxDataset | None = None,
) -> FitResult:
    """Train `run` on data.train, seeded by run.optim.seed, and score it on
    data.test.

    Every method starts from an `init_params` draw under run.tau and
    run.l1_boundary and trains through `optim.train` with run.weights:

    - erm: end task only, BCE + L2 on the head; no aux stream, no
      reweighting.
    - jtt: loss-based upweighting without group labels.  Stage 1 runs plain
      ERM for jtt.id_epochs; its final model's training errors form the set
      E.  Stage 2 restarts from a fresh initialization and minimizes the
      same loss with E upweighted by jtt.upweight, weights rescaled to mean
      1.  An empty E degrades to plain ERM, flagged in extras.
    - group_dro: online worst-group reweighting with known train group
      labels.  Keeps a distribution q over the four groups.  Each step first
      lifts q multiplicatively by exp(group_step * group batch loss) for
      groups present in the batch and renormalizes, then descends the
      q-weighted loss.  With group_step == 0, q stays uniform (group-balanced
      ERM).
    - reg_mtl: joint end + reconstruction of `aux` under the L1 featurizer
      budget.
    - aux_only: reconstruction of `aux` only; the end head is left at
      initialization.  Selection is always NO_GP, whatever `selector` says:
      it picks the epoch with the lowest reconstruction error on `aux_val`.
      Test classification metrics are still reported but reflect the
      untrained head; the object of interest is the learned featurizer.  The
      featurizer starts from a dense draw: with no end task competing for
      it, several L1 allocations can reconstruct equally well, and a generic
      dense warm start is what lets runs land in different ones instead of
      having the identity warm start pick a single basin by construction.

    Only reg_mtl and aux_only read `aux`, and only aux_only reads `aux_val`.
    The result's config echoes the method, run.optim, the selection, tau,
    the method's loss weights and its own block.  A diverged run raises
    `DivergedError` naming run.tag and the seed.
    """
    return fit_lanes([(run, data, aux, aux_val)], selector)[0]


def fit_lanes(jobs: list[tuple[RunSpec, TaskData, AuxDataset | None, AuxDataset | None]],
              selector: SelectionStrategy) -> list[FitResult]:
    """`fit` of each (run, data, aux, aux_val) job, with the jobs trained
    through one `optim.train` call, which runs those that can share a step
    in lockstep; one result per job, in order, each equal to its own `fit`
    bit for bit.  Before it, one more `train` call trains the first stage
    of every jtt job, after every other job's `Lane` is built; a `Lane`
    checks itself when built, so a bad job is refused before any lane
    trains.  A jtt second stage (fixed weights) and a group_dro job (a
    per-step weight hook) share a step with erm jobs of the same shape.
    """
    for run, data, _, _ in jobs:  # refused before any job trains
        if run.method == "group_dro" and not (data.train.group_counts() > 0).all():
            raise InvalidInputError("group reweighting requires all four groups in training data")
    # every lane but the jtt second stages, which need their first stage
    prepared = [None if run.method == "jtt" else _lane(run, data, selector, aux, aux_val)
                for run, data, aux, aux_val in jobs]
    # the first stages: plain ERM for id_epochs from each run's initialization
    jtt = [(r, run, data) for r, (run, data, _, _) in enumerate(jobs) if run.method == "jtt"]
    stage1 = train([Lane(_init(run, data, _INIT_SEED_TAG), data.train, None, run.weights,
                         replace(run.optim, epochs=run.jtt.id_epochs), data.val, selector,
                         tag=run.tag) for _, run, data in jtt]) if jtt else []
    for (r, run, data), (trace, _) in zip(jtt, stage1):
        prepared[r] = _lane(run, data, selector, None, None, trace.final_params)
    trained = train([lane for lane, _, _, _ in prepared])
    results = []
    for (run, data, _, _), (_, config, extras, q), (trace, best) in zip(jobs, prepared, trained):
        if q is not None:
            extras["group_dro"] = {"final_q": [float(v) for v in q]}
        e = trace.selected_epoch
        val_metrics = {"avg_acc": float(trace.val_avg_acc[e]), "wg_acc": float(trace.val_wg_acc[e])}
        if trace.val_recon_loss is not None:
            val_metrics["recon_loss"] = float(trace.val_recon_loss[e])
        results.append(FitResult(
            method=run.method,
            config=config,
            selected_epoch=e,
            val_metrics=val_metrics,
            test_metrics=evaluate(best, data.test),
            final_metrics=evaluate(trace.final_params, data.test),
            params=best,
            trace=trace,
            extras=extras,
        ))
    return results


def _init(run: RunSpec, data: TaskData, tag: int) -> ModelParams:
    return init_params(data.train.d, run.tau, [run.optim.seed, tag],
                       l1_boundary=run.l1_boundary, dense_init=run.method == "aux_only")


def _lane(run: RunSpec, data: TaskData, selector: SelectionStrategy,
          aux: AuxDataset | None, aux_val: AuxDataset | None,
          stage1_params: ModelParams | None = None
          ) -> tuple[Lane, dict, dict, np.ndarray | None]:
    """The `optim.train` lane of one `fit` job, with the result's config echo,
    its extras so far and, for group_dro, the group distribution its hook
    updates; a jtt job's lane is its second stage, after `stage1_params`."""
    method, cfg = run.method, run.optim
    aux_only = method == "aux_only"
    if aux_only:
        selector = SelectionStrategy.NO_GP
    block = run.jtt or run.group_dro
    config = {
        "method": method, **asdict(cfg), "selection": selector.value, "tau": run.tau,
        **{k: getattr(run.weights, k) for k in _ECHO_WEIGHTS[method]},
        **(asdict(block) if block else {}),
    }

    # a jtt second stage restarts from a draw of its own
    params = _init(run, data, _SECOND_STAGE_SEED_TAG if method == "jtt" else _INIT_SEED_TAG)
    sample_weights, extras, q = None, {}, None
    if method == "jtt":
        wrong = classify(stage1_params, data.train.features) != data.train.labels
        err_counts = np.bincount(data.train.group_ids[wrong], minlength=N_GROUPS)
        extras["jtt"] = {
            "error_set_size": int(wrong.sum()),
            "error_group_counts": [int(v) for v in err_counts],
            "fallback_erm": bool(wrong.sum() == 0),
        }
        # with no errors every weight is exactly 1.0: stage 2 is plain ERM bit for bit
        sw = np.where(wrong, run.jtt.upweight, 1.0)
        sample_weights = sw / sw.mean()
    elif method == "group_dro":
        sample_weights, q = _group_reweighting(run.group_dro.group_step)

    lane = Lane(params, None if aux_only else data.train,
                aux if method in ("reg_mtl", "aux_only") else None,
                run.weights, cfg, data.val, selector, sample_weights,
                aux_val if aux_only else None, tag=run.tag)
    return lane, config, extras, q
