"""Two-head linear model with a shared diagonal featurizer.

The featurizer is elementwise: h = a * x.  A linear end head scores
classification logits w_end . h; a matrix aux head reconstructs inputs as
W_aux^T h.  Capacity is controlled by an L1 constraint on `a` (a ball by
default, optionally the exact sphere) and a Frobenius-norm constraint on
W_aux.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, GrouprobeError, InvalidInputError, InvalidSpecError, ShapeError

# Slack allowed when checking feasibility of the L1 constraint after projection.
L1_FEASIBILITY_TOL = 1e-9
# Standard deviation of the Gaussian draw that initializes w_end.
W_END_INIT_SCALE = 0.01


@dataclass
class ModelParams:
    """Parameters plus the constraint set they live in.

    tau is the L1 budget for `a` (None disables the constraint).  When
    l1_boundary is set, `a` is rescaled to the sphere ||a||_1 == tau after
    every step instead of projected into the ball.  fro_radius is the
    Frobenius norm W_aux is renormalized to (None disables).
    """

    a: np.ndarray
    w_end: np.ndarray
    W_aux: np.ndarray
    tau: float | None = None
    fro_radius: float | None = 1.0
    l1_boundary: bool = False

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.w_end = np.asarray(self.w_end, dtype=np.float64)
        self.W_aux = np.asarray(self.W_aux, dtype=np.float64)
        d = self.a.shape[0]
        if self.a.ndim != 1 or self.w_end.shape != (d,) or self.W_aux.shape != (d, d):
            raise ShapeError("expected a,(d,), w_end,(d,), W_aux,(d,d)")
        if self.tau is not None and self.tau <= 0:
            raise InvalidSpecError("tau must be positive when set")
        if self.fro_radius is not None and self.fro_radius <= 0:
            raise InvalidSpecError("fro_radius must be positive when set")
        if self.l1_boundary and self.tau is None:
            raise InvalidSpecError("l1_boundary requires tau")

    @property
    def d(self) -> int:
        return self.a.shape[0]

    def _replace_arrays(self, a: np.ndarray, w_end: np.ndarray, W_aux: np.ndarray) -> "ModelParams":
        # The same constraint set with new float64 arrays of this model's
        # shapes (an SGD step's output): skips the constructor's checks.
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, a=a, w_end=w_end, W_aux=W_aux)
        return out

    def feasible(self, tol: float = L1_FEASIBILITY_TOL) -> bool:
        """True when every entry is finite and both norm constraints hold up
        to `tol`.

        A norm that passes its bound is finite, so a constrained block needs
        no separate finiteness pass.
        """
        if self.tau is None:
            if not np.isfinite(self.a).all():
                return False
        else:
            l1 = np.abs(self.a).sum()
            slack = tol * max(1.0, self.tau)
            if not (abs(l1 - self.tau) <= slack if self.l1_boundary else l1 <= self.tau + slack):
                return False
        if not np.isfinite(self.w_end).all():
            return False
        if self.fro_radius is None:
            return bool(np.isfinite(self.W_aux).all())
        return abs(_fro_norm(self.W_aux) - self.fro_radius) <= 1e-9 * max(1.0, self.fro_radius)

    # -- JSON round trip ---------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "a": self.a.tolist(),
            "w_end": self.w_end.tolist(),
            "W_aux": self.W_aux.tolist(),
            "tau": self.tau,
            "fro_radius": self.fro_radius,
        }
        if self.l1_boundary:
            out["l1_boundary"] = True
        return out

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=1) + "\n")

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelParams":
        if not isinstance(d, dict):
            raise InvalidInputError("model params must be a JSON object")
        missing = [k for k in ("a", "w_end", "W_aux", "tau", "fro_radius") if k not in d]
        if missing:
            raise InvalidInputError(f"model params lack keys {missing}")
        unknown = sorted(set(d) - {"a", "w_end", "W_aux", "tau", "fro_radius", "l1_boundary"})
        if unknown:
            raise InvalidInputError(f"model params: unknown keys {unknown}")
        # Python and numpy would read JSON true/false as the numbers 1 and 0
        for k in ("a", "w_end", "W_aux", "tau", "fro_radius"):
            if _holds_bool(d[k]):
                raise InvalidInputError(f"model params: {k} must be numeric, got true/false")
        try:
            arrays = {k: np.array(d[k], dtype=np.float64) for k in ("a", "w_end", "W_aux")}
        except (TypeError, ValueError, OverflowError) as e:
            raise InvalidInputError(f"model params: non-numeric array entry ({e})") from None
        if any(d[k] is not None and not isinstance(d[k], (int, float)) for k in ("tau", "fro_radius")):
            raise InvalidInputError("model params: tau and fro_radius must be numbers or null")
        # Python's json reads NaN and Infinity
        bad = [k for k in ("a", "w_end", "W_aux") if not np.isfinite(arrays[k]).all()]
        bad += [k for k in ("tau", "fro_radius") if isinstance(d[k], float) and not math.isfinite(d[k])]
        if bad:
            raise InvalidInputError(f"model params: non-finite values in {bad}")
        boundary = d.get("l1_boundary", False)
        if not isinstance(boundary, bool):
            raise InvalidInputError(f"model params: l1_boundary must be true or false, got {boundary!r}")
        return cls(**arrays, tau=d["tau"], fro_radius=d["fro_radius"], l1_boundary=boundary)

    @classmethod
    def load_json(cls, path: str | Path) -> "ModelParams":
        try:
            return cls.from_json_dict(json.loads(Path(path).read_text()))
        except GrouprobeError as e:
            raise type(e)(f"{path}: {e}") from None


def _holds_bool(v) -> bool:
    return isinstance(v, bool) or (isinstance(v, list) and any(map(_holds_bool, v)))


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
    fro_radius: float | None = 1.0,
    l1_boundary: bool = False,
    dense_init: bool = False,
) -> ModelParams:
    """Standard initialization.

    a starts uniform at tau/d per coordinate (all-ones when unconstrained),
    which lies inside the ball and exactly on the sphere.  w_end is small
    Gaussian.  W_aux starts at the identity scaled to fro_radius: a neutral
    reconstruction warm start whose basin of attraction is then set by the
    data statistics rather than by an arbitrary dense draw.  With dense_init
    the warm start is instead a seeded dense Gaussian matrix; reconstruction
    then has no preferred coordinate pairing at step 0, so when several
    allocations of `a` are feasible the one reached depends on the draw.
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
    if fro_radius is not None:
        W = normalize_frobenius(W, fro_radius)
    return ModelParams(a=a, w_end=w_end, W_aux=W, tau=tau,
                       fro_radius=fro_radius, l1_boundary=l1_boundary)
