"""Losses with hand-derived gradients.

No autodiff anywhere: each loss returns its value together with exact
gradients for (a, w_end, W_aux), which keeps every update auditable against
finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class LossEval:
    """A loss value and its gradients in model-parameter layout."""

    value: float
    grad_a: np.ndarray
    grad_w_end: np.ndarray
    grad_W_aux: np.ndarray

    @classmethod
    def zeros(cls, d: int) -> "LossEval":
        return cls(0.0, np.zeros(d), np.zeros(d), np.zeros((d, d)))

    def add_scaled(self, other: "LossEval", scale: float) -> None:
        self.value += scale * other.value
        self.grad_a += scale * other.grad_a
        self.grad_w_end += scale * other.grad_w_end
        self.grad_W_aux += scale * other.grad_W_aux


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Piecewise form avoids overflow in exp for large |z|.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_weights_vector(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ShapeError("sample_weights must match the batch length")
    if (w < 0).any():
        raise InvalidInputError("sample_weights must be >= 0")
    return w


def end_loss(
    params: ModelParams,
    batch: LabeledDataset,
    lambda_l2: float = 0.0,
    sample_weights=None,
) -> LossEval:
    """Binary cross-entropy of the end head plus an L2 penalty on w_end.

    Targets are t = (y+1)/2 for labels y in {-1,+1}; the per-sample loss is
    log(1 + exp(-y z)) computed in log-sum-exp form, so values stay finite
    out to |z| ~ 50 and far beyond.  Optional per-sample weights multiply the
    data term only (the penalty is weight-free).
    """
    if lambda_l2 < 0:
        raise InvalidInputError("lambda_l2 must be >= 0")
    n = len(batch)
    if n == 0:
        raise InvalidInputError("empty batch")
    w = _check_weights_vector(sample_weights, n)
    X = batch.features
    if X.shape[1] != params.d:
        raise ShapeError("batch feature dim does not match the model")
    y = batch.labels.astype(np.float64)
    t = 0.5 * (y + 1.0)

    H = X * params.a
    z = H @ params.w_end
    nll = np.logaddexp(0.0, -y * z)
    value = float(np.mean(w * nll)) + 0.5 * lambda_l2 * float(params.w_end @ params.w_end)

    # d nll / d z = sigmoid(z) - t
    g = w * (_sigmoid(z) - t) / n
    grad_w_end = H.T @ g + lambda_l2 * params.w_end
    grad_a = (X * params.w_end).T @ g
    return LossEval(value, grad_a, grad_w_end, np.zeros((params.d, params.d)))


def recon_loss(params: ModelParams, batch: AuxDataset) -> LossEval:
    """Mean squared reconstruction error, 1/(2B) sum ||x - W_aux^T (a*xt)||^2."""
    n = len(batch)
    if n == 0:
        raise InvalidInputError("empty batch")
    Xt = batch.noised
    if Xt.shape[1] != params.d:
        raise ShapeError("batch feature dim does not match the model")
    X0 = batch.targets

    H = Xt * params.a
    R = H @ params.W_aux - X0  # residual, one row per sample
    value = float((R * R).sum()) / (2.0 * n)
    grad_W_aux = H.T @ R / n
    grad_a = ((R @ params.W_aux.T) * Xt).sum(axis=0) / n
    return LossEval(value, grad_a, np.zeros(params.d), grad_W_aux)


def activation_l1_penalty(params: ModelParams, X: np.ndarray) -> LossEval:
    """Batch-mean L1 norm of the featurizer output a*x, divided by the
    featurizer parameter count d.

    The subgradient at coordinates where a_j x_j == 0 is taken to be 0.
    """
    n = X.shape[0]
    if n == 0:
        raise InvalidInputError("empty batch")
    H = X * params.a
    value = float(np.abs(H).sum()) / (n * params.d)
    grad_a = (np.sign(H) * X).sum(axis=0) / (n * params.d)
    return LossEval(value, grad_a, np.zeros(params.d), np.zeros((params.d, params.d)))


def multitask_loss(
    params: ModelParams,
    end_batch: LabeledDataset,
    aux_batch: AuxDataset,
    weights: LossWeights,
    end_sample_weights=None,
) -> LossEval:
    """Joint objective: end BCE + alpha_aux * reconstruction + alpha_reg *
    activation L1 penalty, the last summed over the two task batches (the
    end batch's mean penalty plus the aux batch's).

    With alpha_aux == alpha_reg == 0 this equals end_loss exactly.
    """
    total = end_loss(params, end_batch, weights.lambda_l2, end_sample_weights)
    if (weights.alpha_aux != 0.0 or weights.alpha_reg != 0.0) and aux_batch is None:
        raise InvalidInputError("aux batch required when alpha_aux or alpha_reg is nonzero")
    if aux_batch is not None and weights.alpha_aux != 0.0:
        total.add_scaled(recon_loss(params, aux_batch), weights.alpha_aux)
    if aux_batch is not None and weights.alpha_reg != 0.0:
        total.add_scaled(activation_l1_penalty(params, end_batch.features), weights.alpha_reg)
        total.add_scaled(activation_l1_penalty(params, aux_batch.noised), weights.alpha_reg)
    return total
