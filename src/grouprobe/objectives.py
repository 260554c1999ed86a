"""Losses with hand-derived gradients.

No autodiff anywhere: each loss returns its value together with exact
gradients for (a, w_end, W_aux), which keeps every update auditable against
finite differences.

Each term has one array-level kernel (`end_terms`, `recon_terms`,
`penalty_terms`), and `joint_terms` composes them into the training
objective on raw minibatch arrays; `optim.train` calls it once per SGD step,
and `recon_value`, the reconstruction value alone, once per epoch to validate.
`multitask_loss`, the one-model entry, validates a model and its batches,
then calls `joint_terms` on a stack of that one model.

Lanes: the kernels take a stack of R parameter sets, `a` and `w_end` (R, d)
and `W_aux` (R, d, d), and give one value and one gradient per lane, with
that leading axis: (R,), (R, d), (R, d), (R, d, d).  A data batch is (B, d),
shared by every lane, or (R, B, d), one batch per lane (its per-sample
columns are then (R, B)); a shared batch broadcasts against the lane axis,
and kernels read the batch size B from `shape[-2]`.  Loss weights are a
`LaneWeights` of (R,) columns, one weight per lane (columns of one entry
are shared by every lane); the lanes of a stack share one zero pattern of
alpha_aux and alpha_reg, so each weighted term is on for every lane or for
none.  Lane r of a call equals the R = 1 call on lane r's parameters,
batch and weights, bit for bit.  The end loss is always weighted: sample
weights default to 1.0, and multiplication by 1.0 is exact, so an
unweighted loss is the all-ones case bit for bit.  A callable sample weight
(the group-DRO hook) maps the (R, B) per-sample losses to weights that
broadcast against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, ShapeError
from .linmodel import ModelParams
from .synthgen import AuxDataset, LabeledDataset


@dataclass(frozen=True)
class LossWeights:
    """Mixing weights of the joint objective; all must be >= 0."""

    alpha_aux: float = 0.0
    alpha_reg: float = 0.0
    lambda_l2: float = 0.0

    def __post_init__(self):
        for name in ("alpha_aux", "alpha_reg", "lambda_l2"):
            if getattr(self, name) < 0:
                raise InvalidInputError(f"{name} must be >= 0")


class LaneWeights(NamedTuple):
    """The loss weights of a lane stack as (R,) columns, read like
    `LossWeights`; lanes share one zero pattern of alpha_aux and alpha_reg."""

    alpha_aux: np.ndarray
    alpha_reg: np.ndarray
    lambda_l2: np.ndarray

    @classmethod
    def stack(cls, weights) -> "LaneWeights":
        """The columns of a sequence of `LossWeights`, one per lane."""
        return cls(*(np.array([getattr(w, k) for w in weights]) for k in cls._fields))


@dataclass
class LossEval:
    """A loss value and its gradients in model-parameter layout: of one
    model, or one value and one gradient per lane of a stack."""

    value: float | np.ndarray
    grad_a: np.ndarray
    grad_w_end: np.ndarray
    grad_W_aux: np.ndarray


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # The stable branches 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z))
    # below: exp(-|z|) is whichever exponential the branch needs.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def check_sample_weights(weights, n: int) -> np.ndarray:
    """Validate per-sample weights for n samples; None means all ones."""
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ShapeError("sample_weights must match the batch length")
    if (w < 0).any():
        raise InvalidInputError("sample_weights must be >= 0")
    return w


# -- array-level kernels -----------------------------------------------------
#
# The kernels trust their inputs: shapes agree, batches are non-empty, and
# the caller has computed the featurizer output H = X * a once for every
# term that reads it (see `featurize`).  Every product over the batch axis
# is a matvec, vecmat or matmul and every batch sum is over trailing axes,
# so lane r of a stack runs the float operations of the R = 1 call on it.


def featurize(X, v):
    """X * v for a stack of R vectors v (R, d): (R, n, d), with X shared
    (n, d) or one batch per lane (R, n, d)."""
    return X * v[:, None, :]


def _scale(c, g):
    """Each lane of g times its entry of the weight column c."""
    return c.reshape(-1, *(1,) * (g.ndim - 1)) * g


def end_terms(X, H, neg_y, t, w_end, lambda_l2, sample_weights=1.0):
    """Weighted BCE data term plus L2 head penalty of R lanes: (value,
    grad_a, grad_w_end), (R,), (R, d) and (R, d).

    H = X * a is (R, B, d).  neg_y is -y and t = (y+1)/2 for labels y in
    {-1,+1}, (B,) or (R, B); lambda_l2 is an (R,) column.
    sample_weights is 1.0 (unweighted), an array of per-sample weights shaped
    like neg_y, or a function from the (R, B) per-sample losses to weights
    that broadcast against them, which the caller checks.
    """
    n = X.shape[-2]
    z = np.matvec(H, w_end)
    nll = np.logaddexp(0.0, neg_y * z)
    if callable(sample_weights):
        sample_weights = sample_weights(nll)
    # d nll / d z = sigmoid(z) - t
    r = _sigmoid(z) - t
    g = sample_weights * r / n
    value = (np.add.reduce(sample_weights * nll, axis=-1) / n
             + 0.5 * lambda_l2 * np.vecdot(w_end, w_end))
    grad_w_end = np.vecmat(g, H) + _scale(lambda_l2, w_end)
    grad_a = np.vecmat(g, featurize(X, w_end))
    return value, grad_a, grad_w_end


def recon_value(H, X0, W_aux):
    """Reconstruction term for H = Xt * a, no gradients: (value, residual)."""
    R = H @ W_aux - X0
    return np.add.reduce(R * R, axis=(-2, -1)) / (2.0 * H.shape[-2]), R


def recon_terms(Xt, H, X0, W_aux):
    """Reconstruction term for H = Xt * a: (value, grad_a, grad_W_aux)."""
    n = Xt.shape[-2]
    value, R = recon_value(H, X0, W_aux)
    grad_W_aux = H.mT @ R / n
    grad_a = np.add.reduce((R @ W_aux.mT) * Xt, axis=-2) / n
    return value, grad_a, grad_W_aux


def penalty_terms(X, H):
    """Activation L1 penalty for H = X * a, the batch mean of |H| / d:
    (value, grad_a), whose subgradient is 0 where an entry of H is 0."""
    n, d = X.shape[-2:]
    value = np.add.reduce(np.abs(H), axis=(-2, -1)) / (n * d)
    grad_a = np.add.reduce(np.sign(H) * X, axis=-2) / (n * d)
    return value, grad_a


def joint_terms(a, w_end, W_aux, weights: LaneWeights, end=None, aux=None,
                sample_weights=1.0) -> LossEval:
    """The training objective on raw minibatch arrays for a stack of R
    parameter sets, with shared or per-lane batches, per-lane weight columns,
    and an (R,) value and (R, ...) gradients (see the module docstring).

    `end` is (X, -y, (y+1)/2) of the labeled batch and `aux` is
    (noised, targets) of the reconstruction batch; either may be None, not
    both.  With both streams this is end BCE + alpha_aux * reconstruction +
    alpha_reg * (end batch penalty + aux batch penalty).  Without an aux
    stream it is end BCE + alpha_reg * end batch penalty; without an end
    stream, reconstruction + alpha_reg * aux batch penalty.  Terms with a
    zero weight are skipped, and terms are added in that order.
    """
    alpha_aux, alpha_reg = weights.alpha_aux, weights.alpha_reg
    aux_on, reg_on = alpha_aux.any(), alpha_reg.any()
    grad_w_end = grad_W_aux = None  # zero unless a term below sets them
    penalized = []  # (X, X * a) of each batch the activation penalty reads
    if end is not None:
        X, neg_y, t = end
        H = featurize(X, a)
        value, grad_a, grad_w_end = end_terms(X, H, neg_y, t, w_end, weights.lambda_l2,
                                              sample_weights)
        penalized.append((X, H))
    if aux is not None and (end is None or aux_on or reg_on):
        Xt, X0 = aux
        Ht = featurize(Xt, a)
        if end is None:
            value, grad_a, grad_W_aux = recon_terms(Xt, Ht, X0, W_aux)
        elif aux_on:
            rv, ra, rW = recon_terms(Xt, Ht, X0, W_aux)
            value += alpha_aux * rv
            grad_a = grad_a + _scale(alpha_aux, ra)
            grad_W_aux = _scale(alpha_aux, rW)
        penalized.append((Xt, Ht))
    if reg_on:
        for Xp, Hp in penalized:
            pv, pa = penalty_terms(Xp, Hp)
            value += alpha_reg * pv
            grad_a = grad_a + _scale(alpha_reg, pa)
    return LossEval(value, grad_a, np.zeros(w_end.shape) if grad_w_end is None else grad_w_end,
                    np.zeros(W_aux.shape) if grad_W_aux is None else grad_W_aux)


# -- the validated loss ------------------------------------------------------


def end_stream(batch: LabeledDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `end` argument of `joint_terms` for a labeled batch: (X, -y, (y+1)/2)."""
    y = batch.labels.astype(np.float64)
    return batch.features, -y, 0.5 * (y + 1.0)


def multitask_loss(params: ModelParams, end_batch: LabeledDataset | None,
                   aux_batch: AuxDataset | None, weights: LossWeights,
                   end_sample_weights=None) -> LossEval:
    """The joint objective of one model on dataset batches: validated here,
    computed by `joint_terms` on the stack of this one model, and returned
    with a Python float value and (d,), (d,), (d, d) gradients.

    With an end batch: end BCE (log(1 + exp(-y z)) in log-sum-exp form, any
    per-sample weights scaling it) + lambda_l2/2 ||w_end||^2 + alpha_aux *
    reconstruction + alpha_reg * each batch's mean |a*x| / d.  The aux batch
    is unused, and may be None, when alpha_aux == alpha_reg == 0.  Without
    an end batch: reconstruction 1/(2B) sum ||x - W_aux^T (a*xt)||^2 +
    alpha_reg * the aux batch's penalty.
    """
    if end_batch is None:
        if aux_batch is None:
            raise InvalidInputError("an end batch or an aux batch is required")
        if end_sample_weights is not None:
            raise InvalidInputError("sample weights need an end batch")
    elif weights.alpha_aux == 0.0 and weights.alpha_reg == 0.0:
        aux_batch = None
    elif aux_batch is None:
        raise InvalidInputError("aux batch required when alpha_aux or alpha_reg is nonzero")
    for batch in (end_batch, aux_batch):
        if batch is not None and len(batch) == 0:
            raise InvalidInputError("empty batch")
        if batch is not None and batch.d != params.d:
            raise ShapeError("batch feature dim does not match the model")
    end = w = None
    if end_batch is not None:
        end = end_stream(end_batch)
        w = check_sample_weights(end_sample_weights, len(end_batch))
    aux = None if aux_batch is None else (aux_batch.noised, aux_batch.targets)
    le = joint_terms(params.a[None], params.w_end[None], params.W_aux[None],
                     LaneWeights.stack([weights]), end, aux, w)
    return LossEval(float(le.value[0]), le.grad_a[0], le.grad_w_end[0], le.grad_W_aux[0])
