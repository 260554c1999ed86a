"""Closed-form references and numeric cross-checks.

Everything here is independent of the training stack: a Gaussian-CDF pair,
the per-coordinate denoising regression weight in closed form and by Monte
Carlo, central finite differences, and two analytic bounds (worst-group
error of a spurious-aligned halfspace; core feature mass forced by a
worst-group error target under transfer).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateInputError, DivergedError, InvalidInputError, ShapeError
from .linmodel import ModelParams


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-float(x) / math.sqrt(2.0))


def normal_cdf_inv(p: float) -> float:
    """Inverse standard normal CDF, `statistics.NormalDist().inv_cdf`
    (Wichura's AS241): within a few ulp of the root of normal_cdf(x) = p,
    far tails included; requires p strictly inside (0, 1).
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise InvalidInputError("p must be strictly inside (0, 1)")
    return statistics.NormalDist().inv_cdf(p)


@dataclass(frozen=True)
class BayesWeightInputs:
    """Moments of one feature coordinate for the denoising regression.

    sigma2 is the conditional feature variance, mu2_pos/mu2_neg the squared
    conditional means under y=+1/y=-1 (labels equally likely), sigma2_noise
    the variance of the additive input corruption.
    """

    sigma2: float
    mu2_pos: float
    mu2_neg: float
    sigma2_noise: float

    def __post_init__(self):
        for name in ("sigma2", "mu2_pos", "mu2_neg", "sigma2_noise"):
            if getattr(self, name) < 0:
                raise InvalidInputError(f"{name} must be >= 0")


def _second_moment(inp: BayesWeightInputs) -> float:
    return inp.sigma2 + 0.5 * (inp.mu2_pos + inp.mu2_neg)


def bayes_weight(inp: BayesWeightInputs) -> float:
    """Optimal per-coordinate weight for predicting x from x + noise.

    Equals E[x^2] / (E[x^2] + sigma2_noise), i.e. the usual shrinkage of a
    scalar linear denoiser.  Always in [0, 1].
    """
    m2 = _second_moment(inp)
    denom = m2 + inp.sigma2_noise
    if denom == 0.0:
        raise DegenerateInputError("all moments zero: the weight is undefined")
    return m2 / denom


def numeric_bayes_weight(inp: BayesWeightInputs, samples: int, seed) -> float:
    """Monte Carlo counterpart of bayes_weight.

    Draws (y, x, noise), then returns the minimizer of the empirical squared
    error sum((x - w*(x+noise))^2), which is the moment ratio
    sum(x*xt) / sum(xt^2).  The sign of the conditional means does not affect
    either moment, so only their squares are needed.
    """
    if samples < 10_000:
        raise InvalidInputError("need at least 10_000 samples for a stable estimate")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    y = rng.integers(0, 2, size=samples) * 2 - 1
    mu = np.where(y > 0, math.sqrt(inp.mu2_pos), -math.sqrt(inp.mu2_neg))
    x = mu + rng.normal(0.0, math.sqrt(inp.sigma2), size=samples)
    xt = x + rng.normal(0.0, math.sqrt(inp.sigma2_noise), size=samples)
    denom = float(xt @ xt)
    if denom == 0.0:
        raise DegenerateInputError("degenerate sample: all corrupted inputs are zero")
    return float(x @ xt) / denom


def finite_diff_grad(f: Callable[[np.ndarray], np.ndarray], theta: np.ndarray,
                     h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    `f` maps a (k, n) stack of points to their k values, for a theta of n
    coordinates.  All 2n probes, theta + h e_i for each i and then
    theta - h e_i for each i, go to it in one call.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if h <= 0:
        raise InvalidInputError("h must be positive")
    n = theta.size
    probes = np.tile(theta, (2, n, 1))
    diag = np.arange(n)
    probes[0, diag, diag] += h
    probes[1, diag, diag] -= h
    values = np.asarray(f(probes.reshape(2 * n, n)), dtype=np.float64)
    if values.shape != (2 * n,):
        raise ShapeError(f"f must return one value per point: expected {2 * n}, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise DivergedError("non-finite loss during finite differencing")
    return (values[:n] - values[n:]) / (2.0 * h)


def finite_diff_param_grads(
    values: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    params: ModelParams,
    h: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Central-difference gradients w.r.t. (a, w_end, W_aux) of a model loss.

    `values(a, w_end, W_aux)` returns the loss of k stacked parameter sets,
    given as (k, d), (k, d) and (k, d, d) arrays, such as the `.value` of
    `objectives.joint_terms`.  The constraint fields of `params` are not
    read: the probes are unconstrained points.
    """
    d = params.d

    def stacked(theta: np.ndarray) -> np.ndarray:
        return values(theta[:, :d].copy(), theta[:, d : 2 * d].copy(),
                      theta[:, 2 * d :].reshape(-1, d, d))

    theta0 = np.concatenate([params.a, params.w_end, params.W_aux.ravel()])
    g = finite_diff_grad(stacked, theta0, h)
    return g[:d], g[d : 2 * d], g[2 * d :].reshape(d, d)


@dataclass(frozen=True)
class BoundInputs:
    """Inputs shared by the two analytic bounds.

    gamma: core feature mass of the solution under study.
    sigma_spur: standard deviation (not variance) of the spurious features.
    eta: scale of the conditional feature means.
    tau: L1 budget of the featurizer.
    lam: L1 mass the featurizer puts on each spurious coordinate.
    d_c, d_s: core/spurious dimension counts.
    eps: worst-group error target (only for the transfer bound).
    """

    gamma: float
    sigma_spur: float
    eta: float
    tau: float
    lam: float
    d_c: int
    d_s: int
    eps: float | None = None

    def __post_init__(self):
        for name in ("gamma", "sigma_spur", "eta", "tau", "lam", "eps"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise InvalidInputError(f"{name} must be finite, got {v}")


def worst_group_error_bound(inp: BoundInputs) -> float:
    """Worst-group misclassification bound for a core-dominated halfspace.

    Strictly positive inputs required; the result always lies in (0, 0.5)
    because the CDF argument is strictly negative.
    """
    for name in ("gamma", "sigma_spur", "eta", "tau", "lam"):
        if getattr(inp, name) <= 0:
            raise InvalidInputError(f"{name} must be strictly positive")
    if inp.d_c < 1 or inp.d_s < 1:
        raise InvalidInputError("d_c and d_s must each be >= 1")
    mass = inp.d_c * inp.tau + inp.d_s * inp.lam
    arg = -(inp.eta / (inp.gamma * inp.sigma_spur)) * math.sqrt(
        inp.gamma**2 + mass * (mass + 2.0 * inp.gamma)
    )
    return normal_cdf(arg)


class TransferBound(NamedTuple):
    value: float
    vacuous: bool


def transfer_core_mass_lower_bound(inp: BoundInputs) -> TransferBound:
    """Minimum core L1 mass consistent with worst-group error <= eps after
    transfer to a task with flipped feature roles.

    Requires d_c > d_s and eps in (0, 0.5).  A negative value carries no
    information and is flagged vacuous rather than clamped.
    """
    if inp.eps is None or not 0.0 < inp.eps < 0.5:
        raise InvalidInputError("eps must be set and strictly inside (0, 0.5)")
    for name in ("gamma", "sigma_spur", "eta", "tau"):
        if getattr(inp, name) <= 0:
            raise InvalidInputError(f"{name} must be strictly positive")
    if inp.d_c <= inp.d_s:
        raise InvalidInputError("the bound needs d_c > d_s")
    z = normal_cdf_inv(inp.eps)
    value = (
        math.sqrt(inp.sigma_spur**2 * inp.eta**2 * z**2 + inp.gamma**2) - inp.d_s * inp.tau
    ) / (inp.d_c - inp.d_s)
    return TransferBound(value=value, vacuous=value < 0.0)
