"""Two-head linear model with a shared diagonal featurizer.

The featurizer is elementwise: h = a * x.  A linear end head scores
classification logits w_end . h; a matrix aux head reconstructs inputs as
W_aux^T h.  Capacity is controlled by an L1 constraint on `a` (a ball by
default, optionally the exact sphere), and W_aux is held at a fixed
Frobenius norm, 1 unless a model sets another.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidSpecError, ShapeError

# Slack allowed when checking feasibility of the L1 constraint after projection.
L1_FEASIBILITY_TOL = 1e-9
# Standard deviation of the Gaussian draw that initializes w_end.
W_END_INIT_SCALE = 0.01


@dataclass
class ModelParams:
    """Parameters plus the constraint set they live in.

    tau is the L1 budget for `a` (None disables the constraint).  When
    l1_boundary is set, `a` is rescaled to the sphere ||a||_1 == tau after
    every step instead of projected into the ball.  fro_radius (positive)
    is the Frobenius norm W_aux is renormalized to after every step.
    """

    a: np.ndarray
    w_end: np.ndarray
    W_aux: np.ndarray
    tau: float | None = None
    fro_radius: float = 1.0
    l1_boundary: bool = False

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.w_end = np.asarray(self.w_end, dtype=np.float64)
        self.W_aux = np.asarray(self.W_aux, dtype=np.float64)
        d = self.a.shape[0]
        if self.a.ndim != 1 or self.w_end.shape != (d,) or self.W_aux.shape != (d, d):
            raise ShapeError("expected a,(d,), w_end,(d,), W_aux,(d,d)")
        if self.tau is not None:
            _check_real("tau", self.tau)
            if self.tau <= 0:
                raise InvalidSpecError("tau must be positive when set")
        _check_real("fro_radius", self.fro_radius)
        if self.fro_radius <= 0:
            raise InvalidSpecError("fro_radius must be positive")
        if self.l1_boundary and self.tau is None:
            raise InvalidSpecError("l1_boundary requires tau")

    @property
    def d(self) -> int:
        return self.a.shape[0]

    def feasible(self) -> bool:
        """`in_constraint_set` of this model's own arrays."""
        return in_constraint_set(self, self.a, self.w_end, self.W_aux)


def _check_real(name: str, v) -> None:
    # a bool is an int to Python, but neither it nor a string is a radius
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise InvalidSpecError(f"{name} must be a real number, got {v!r}")


def in_constraint_set(params: ModelParams, a: np.ndarray, w_end: np.ndarray, W_aux: np.ndarray) -> bool:
    """True when every entry of (a, w_end, W_aux) is finite and the norm
    constraints of `params` (tau, l1_boundary, fro_radius; its arrays are
    not read) hold up to L1_FEASIBILITY_TOL, relative to bounds above 1.
    A norm that passes its bound is finite, so a constrained block needs no
    separate finiteness pass."""
    if params.tau is None:
        if not np.isfinite(a).all():
            return False
    else:
        l1 = np.abs(a).sum()
        slack = L1_FEASIBILITY_TOL * max(1.0, params.tau)
        if not (abs(l1 - params.tau) <= slack if params.l1_boundary else l1 <= params.tau + slack):
            return False
    if not np.isfinite(w_end).all():
        return False
    return abs(_fro_norm(W_aux) - params.fro_radius) <= 1e-9 * max(1.0, params.fro_radius)


def classify(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Hard labels in {-1,+1} of the end logits w_end . (a * x) of a batch
    x (..., d); the zero logit maps to +1."""
    z = (x * params.a) @ params.w_end
    return np.where(z >= 0, 1, -1).astype(np.int64)


def project_l1(v: np.ndarray, tau: float) -> np.ndarray:
    """Euclidean projection of v onto the L1 ball of radius tau.

    Sort-and-soft-threshold: when v is outside the ball, the projection is
    sign(v) * max(|v| - theta, 0) for the unique theta > 0 putting the result
    on the boundary.  Idempotent; never flips the sign of a coordinate.
    """
    if tau <= 0:
        raise InvalidSpecError("tau must be positive")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError("project_l1 expects a 1-D array")
    av = np.abs(v)
    if av.sum() <= tau:
        return v.copy()
    u = np.sort(av)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, v.size + 1)
    try:
        rho = np.nonzero(u * k > css - tau)[0][-1]
    except IndexError:
        # k = 1 always qualifies in exact arithmetic; here |v| swamped tau
        raise DegenerateInputError(f"cannot project onto the L1 ball of radius {tau}: "
                                   "it is below the float64 resolution of v") from None
    theta = (css[rho] - tau) / (rho + 1.0)
    return np.sign(v) * np.maximum(av - theta, 0.0)


def rescale_l1(v: np.ndarray, tau: float) -> np.ndarray:
    """Rescale v onto the L1 sphere ||v||_1 == tau (boundary mode).

    The zero vector has no preferred direction and is returned unchanged.
    """
    if tau <= 0:
        raise InvalidSpecError("tau must be positive")
    v = np.asarray(v, dtype=np.float64)
    l1 = np.abs(v).sum()
    if l1 == 0.0:
        return v.copy()
    return v * (tau / l1)


def _fro_norm(W: np.ndarray) -> float:
    # np.linalg.norm's own computation for a float matrix, without its
    # argument dispatch: the same bits
    x = W.ravel(order="K")
    return math.sqrt(x.dot(x))


def normalize_frobenius(W: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Rescale W to Frobenius norm `radius`, preserving direction."""
    if radius <= 0:
        raise InvalidSpecError("radius must be positive")
    W = np.asarray(W, dtype=np.float64)
    norm = _fro_norm(W)
    if norm == 0.0:
        raise DegenerateInputError("cannot normalize the zero matrix: no direction")
    return W * (radius / norm)


def init_params(
    d: int,
    tau: float | None,
    seed,
    l1_boundary: bool = False,
    dense_init: bool = False,
) -> ModelParams:
    """Standard initialization.

    a starts uniform at tau/d per coordinate (all-ones when unconstrained),
    which lies inside the ball and exactly on the sphere.  w_end is small
    Gaussian.  W_aux starts at the identity scaled to the default
    fro_radius, Frobenius norm 1: a neutral reconstruction warm start whose
    basin of attraction is then set by the data statistics rather than by
    an arbitrary dense draw.  With dense_init the warm start is instead a
    seeded dense Gaussian matrix at the same norm; reconstruction then has
    no preferred coordinate pairing at step 0, so when several allocations
    of `a` are feasible the one reached depends on the draw.
    """
    if d < 1:
        raise InvalidSpecError("d must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    a = np.full(d, (tau / d) if tau is not None else 1.0, dtype=np.float64)
    w_end = rng.normal(0.0, W_END_INIT_SCALE, size=d)
    if dense_init:
        W = rng.normal(0.0, 1.0, size=(d, d))
    else:
        W = np.eye(d)
    return ModelParams(a=a, w_end=w_end, W_aux=normalize_frobenius(W), tau=tau,
                       l1_boundary=l1_boundary)
