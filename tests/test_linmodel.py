import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grouprobe import (
    ConfigError,
    DegenerateInputError,
    InvalidSpecError,
    ModelParams,
    ShapeError,
    classify,
    init_params,
    normalize_frobenius,
    project_l1,
    read_params,
    rescale_l1,
)
from grouprobe.experiments import params_json


def brute_force_project_2d(v: np.ndarray, tau: float, n_grid: int = 20001) -> np.ndarray:
    """Nearest point of the 2-D L1 ball by dense search over its boundary.

    Only valid for points outside the ball, where the projection must lie on
    the boundary |x| + |y| = tau.  Grid resolution bounds the error by
    tau * sqrt(2) / n_grid.
    """
    assert abs(v[0]) + abs(v[1]) > tau
    t = np.linspace(0.0, tau, n_grid)
    edges = [
        np.stack([tau - t, t], axis=1),
        np.stack([-(tau - t), t], axis=1),
        np.stack([tau - t, -t], axis=1),
        np.stack([-(tau - t), -t], axis=1),
    ]
    pts = np.concatenate(edges, axis=0)
    d2 = ((pts - v) ** 2).sum(axis=1)
    return pts[np.argmin(d2)]


class TestProjectL1:
    def test_matches_2d_brute_force(self):
        rng = np.random.default_rng(606)
        for _ in range(100):
            tau = float(rng.uniform(0.05, 3.0))
            v = rng.normal(0.0, 2.0, size=2)
            if abs(v).sum() <= tau:
                v *= (tau * 2.0) / abs(v).sum()
            got = project_l1(v, tau)
            want = brute_force_project_2d(v, tau)
            assert np.linalg.norm(got - want) < 1e-3

    def test_fuzzed_idempotent_and_feasible(self):
        rng = np.random.default_rng(707)
        for _ in range(10_000):
            d = int(rng.integers(1, 65))
            v = rng.normal(0.0, rng.uniform(0.1, 10.0), size=d)
            tau = float(rng.uniform(0.01, 20.0))
            p = project_l1(v, tau)
            assert np.abs(p).sum() <= tau + 1e-9
            assert np.array_equal(project_l1(p, tau), p) or np.allclose(
                project_l1(p, tau), p, atol=1e-12
            )

    def test_inside_ball_unchanged(self):
        v = np.array([0.1, -0.2, 0.05])
        out = project_l1(v, 1.0)
        assert np.array_equal(out, v)
        assert out is not v

    def test_sign_pattern_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.normal(size=6) * 3
            p = project_l1(v, 0.5)
            assert np.all(p * v >= 0.0)

    def test_tau_below_float64_resolution_raises(self):
        # with |v| ~ 1e16, css - tau rounds to css and no threshold qualifies
        with pytest.raises(DegenerateInputError, match="float64 resolution"):
            project_l1(np.array([1e16, 0.0]), 0.1)

    def test_bad_args(self):
        with pytest.raises(InvalidSpecError):
            project_l1(np.ones(3), 0.0)
        with pytest.raises(ShapeError):
            project_l1(np.ones((2, 2)), 1.0)

    @given(
        v=arrays(np.float64, st.integers(1, 16),
                 elements=st.floats(-50, 50, allow_nan=False)),
        tau=st.floats(0.01, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_projection_properties(self, v, tau):
        p = project_l1(v, tau)
        assert np.abs(p).sum() <= tau + 1e-9
        assert np.all(p * v >= 0.0)
        # projection never moves a point further than the original violation
        assert np.linalg.norm(p - v) <= max(0.0, np.abs(v).sum() - tau) + 1e-9


class TestRescaleL1:
    def test_lands_on_sphere(self):
        v = np.array([1.0, -3.0, 0.5])
        out = rescale_l1(v, 2.0)
        assert abs(np.abs(out).sum() - 2.0) < 1e-12
        # direction preserved
        assert np.allclose(out / np.abs(out).sum() * np.abs(v).sum(), v)

    def test_zero_vector_passthrough(self):
        z = np.zeros(3)
        assert np.array_equal(rescale_l1(z, 1.0), z)

    def test_bad_tau(self):
        with pytest.raises(InvalidSpecError):
            rescale_l1(np.ones(2), -1.0)


class TestNormalizeFrobenius:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(5, 5))
        out = normalize_frobenius(W, 1.0)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_colinear(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(4, 4))
        out = normalize_frobenius(W, 2.5)
        cos = (W.ravel() @ out.ravel()) / (np.linalg.norm(W) * np.linalg.norm(out))
        assert abs(cos - 1.0) < 1e-12

    def test_identity_2x2(self):
        out = normalize_frobenius(np.eye(2), 1.0)
        assert np.allclose(np.diag(out), 1.0 / np.sqrt(2.0))

    def test_already_normalized_unchanged(self):
        W = np.eye(3) / np.sqrt(3.0)
        assert np.allclose(normalize_frobenius(W, 1.0), W, atol=1e-15)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize_frobenius(np.zeros((2, 2)), 1.0)
        with pytest.raises(InvalidSpecError):
            normalize_frobenius(np.eye(2), 0.0)


class TestForward:
    def test_classify_elementwise_featurizer(self):
        p = ModelParams(a=[2.0, -1.0], w_end=[1.0, 1.0], W_aux=np.eye(2), fro_radius=None)
        X = np.array([[1.0, 3.0], [0.5, -2.0]])
        # h = a * x = [[2, -3], [1, 2]], so the logits w_end . h are -1 and 3
        assert classify(p, X).tolist() == [-1, 1]

    def test_classify_is_sign_of_fused_logit(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(1, 8))
            p = init_params(d, None, int(rng.integers(2**31)), fro_radius=None)
            p.a = rng.normal(size=d)
            p.w_end = rng.normal(size=d)
            X = rng.normal(size=(7, d))
            fused = X @ (p.a * p.w_end)
            clear = np.abs(fused) > 1e-9  # the two roundings agree away from 0
            assert np.array_equal(classify(p, X)[clear], np.where(fused >= 0, 1, -1)[clear])

    def test_classify_zero_logit_positive(self):
        p = init_params(2, None, 0, fro_radius=None)
        p.a = np.zeros(2)
        labels = classify(p, np.ones((3, 2)))
        assert labels.tolist() == [1, 1, 1]


class TestModelParams:
    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            ModelParams(np.ones(2), np.ones(3), np.eye(2))
        with pytest.raises(ShapeError):
            ModelParams(np.ones(2), np.ones(2), np.eye(3))

    def test_constraint_validation(self):
        with pytest.raises(InvalidSpecError):
            ModelParams(np.ones(2), np.ones(2), np.eye(2), tau=-1.0)
        with pytest.raises(InvalidSpecError):
            ModelParams(np.ones(2), np.ones(2), np.eye(2), fro_radius=0.0)
        with pytest.raises(InvalidSpecError):
            ModelParams(np.ones(2), np.ones(2), np.eye(2), tau=None, l1_boundary=True)

    def test_feasible(self):
        p = init_params(3, 1.5, 0)
        assert p.feasible()
        q = replace(p, a=np.array([10.0, 0.0, 0.0]))
        assert not q.feasible()

    def test_json_round_trip_exact(self, tmp_path):
        p = init_params(3, 0.7, 123, l1_boundary=True)
        p.w_end = np.array([0.1, -1.0 / 3.0, 7.25e-9])
        path = tmp_path / "params.json"
        path.write_text(params_json(p))
        q = read_params(path)
        assert np.array_equal(p.a, q.a)
        assert np.array_equal(p.w_end, q.w_end)
        assert np.array_equal(p.W_aux, q.W_aux)
        assert q.tau == p.tau and q.fro_radius == p.fro_radius
        assert q.l1_boundary is True

    def test_json_rewrite_is_byte_identical(self, tmp_path):
        # -0.0 in an array is kept, and an integer entry loads as a float
        path = tmp_path / "params.json"
        path.write_text('{"a": [1, -0.0], "w_end": [-0.0, 2.5], "W_aux": [[0.6, -0.0], [0.0, 0.8]], '
                        '"tau": null, "fro_radius": 1.0}')
        p = read_params(path)
        assert np.signbit(p.a[1]) and np.signbit(p.w_end[0]) and np.signbit(p.W_aux[0, 1])
        assert p.a.dtype == p.w_end.dtype == p.W_aux.dtype == np.float64
        path.write_text(params_json(p))
        assert params_json(read_params(path)) == path.read_text()

    def test_json_unknown_key_rejected(self, tmp_path):
        d = json.loads(params_json(init_params(2, 0.7, 1)))
        d["l1_boundry"] = True
        path = tmp_path / "params.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="l1_boundry"):
            read_params(path)


class TestInitParams:
    def test_uniform_budget_split(self):
        p = init_params(4, 2.0, 9)
        assert np.allclose(p.a, 0.5)
        assert abs(np.abs(p.a).sum() - 2.0) < 1e-12

    def test_unconstrained_starts_at_ones(self):
        p = init_params(3, None, 9, fro_radius=None)
        assert np.array_equal(p.a, np.ones(3))

    def test_recon_head_identity_warm_start(self):
        p = init_params(3, 1.0, 9)
        assert np.allclose(p.W_aux, np.eye(3) / np.sqrt(3.0))

    def test_dense_init_seeded(self):
        a = init_params(4, 1.0, 9, dense_init=True)
        b = init_params(4, 1.0, 9, dense_init=True)
        c = init_params(4, 1.0, 10, dense_init=True)
        assert np.array_equal(a.W_aux, b.W_aux)
        assert not np.array_equal(a.W_aux, c.W_aux)
        assert abs(np.linalg.norm(a.W_aux) - 1.0) < 1e-12
        # off-diagonal structure distinguishes it from the warm start
        assert np.abs(a.W_aux - np.diag(np.diag(a.W_aux))).sum() > 0.1

    def test_head_scale(self):
        p = init_params(500, None, 0, fro_radius=None)
        assert np.abs(p.w_end).max() < 0.1

    def test_feasible_on_sphere(self):
        p = init_params(5, 0.3, 1, l1_boundary=True)
        assert p.feasible()

    def test_bad_dim(self):
        with pytest.raises(InvalidSpecError):
            init_params(0, 1.0, 0)


def _feasible_reference(p: ModelParams, tol: float) -> bool:
    """ModelParams.feasible as first written: a finiteness pass over every
    entry, then the two norm bounds."""
    ok = np.isfinite(p.a).all() and np.isfinite(p.w_end).all() and np.isfinite(p.W_aux).all()
    if not ok:
        return False
    if p.tau is not None:
        l1 = np.abs(p.a).sum()
        if p.l1_boundary:
            ok = ok and abs(l1 - p.tau) <= tol * max(1.0, p.tau)
        else:
            ok = ok and l1 <= p.tau + tol * max(1.0, p.tau)
    if p.fro_radius is not None:
        ok = ok and abs(np.linalg.norm(p.W_aux) - p.fro_radius) <= 1e-9 * max(1.0, p.fro_radius)
    return bool(ok)


_EDGE = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308,
                         np.finfo(float).max, 5e-324])
_ENTRY = st.one_of(_EDGE, st.floats(-10.0, 10.0), st.floats(allow_nan=True, allow_infinity=True))
# scales that put a block just inside, on, or just outside its bound
_SCALE = st.sampled_from([None, 1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 1e-6, 0.5, 2.0])


@st.composite
def _params_case(draw):
    d = draw(st.integers(1, 3))
    a = draw(arrays(np.float64, d, elements=_ENTRY))
    w_end = draw(arrays(np.float64, d, elements=_ENTRY))
    W = draw(arrays(np.float64, (d, d), elements=_ENTRY))
    tau = draw(st.sampled_from([None, 0.1, 1.0, 10.0, 1e300]))
    boundary = tau is not None and draw(st.booleans())
    fro = draw(st.sampled_from([None, 1.0, 0.5, 3.0]))
    with np.errstate(all="ignore"):
        l1, norm = np.abs(a).sum(), np.linalg.norm(W)
        scale = draw(_SCALE)
        if tau is not None and scale is not None and np.isfinite(l1) and l1 > 0:
            a = a * (tau / l1) * scale
        scale = draw(_SCALE)
        if fro is not None and scale is not None and np.isfinite(norm) and norm > 0:
            W = W * (fro / norm) * scale
    p = ModelParams(a=a, w_end=w_end, W_aux=W, tau=tau, fro_radius=fro, l1_boundary=boundary)
    return p, draw(st.sampled_from([1e-9, 0.0, 1e-3]))


@given(_params_case())
@settings(max_examples=600, deadline=None)
def test_feasible_matches_reference_formula(case):
    p, tol = case
    with np.errstate(all="ignore"):
        assert p.feasible(tol) is _feasible_reference(p, tol)
