import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grouprobe import (
    AuxDataset,
    InvalidInputError,
    LabeledDataset,
    LossEval,
    LossWeights,
    ModelParams,
    ShapeError,
    init_params,
    multitask_loss,
)
from grouprobe.objectives import (
    LaneWeights,
    featurize,
    _scale,
    _sigmoid,
    end_terms,
    joint_terms,
    penalty_terms,
    recon_terms,
)
from grouprobe.oracle import finite_diff_param_grads


def away_from_zero(rng, shape, lo=0.2, hi=1.5):
    return rng.uniform(lo, hi, size=shape) * rng.choice((-1.0, 1.0), size=shape)


def random_instance(rng, d=None, n=None):
    """A model/batch pair whose activations sit away from L1 kinks, so
    finite differences of every loss term are valid."""
    d = d or int(rng.integers(1, 6))
    n = n or int(rng.integers(2, 9))
    X = away_from_zero(rng, (n, d))
    y = rng.choice((-1, 1), size=n).astype(np.int64)
    s = y.copy()
    g = np.where(y > 0, 0, 1)
    end_batch = LabeledDataset(X, y, s, g)
    aux_batch = AuxDataset(away_from_zero(rng, (n, d)), rng.normal(size=(n, d)))
    params = init_params(d, None, int(rng.integers(2**31)))
    params.a = away_from_zero(rng, d)
    params.w_end = rng.normal(size=d)
    params.W_aux = rng.normal(size=(d, d))
    return params, end_batch, aux_batch


def end_only(params, batch, lambda_l2=0.0, sample_weights=None):
    """The validated end loss: multitask_loss with no aux batch."""
    return multitask_loss(params, batch, None, LossWeights(lambda_l2=lambda_l2), sample_weights)


def recon_only(params, batch):
    """The validated reconstruction loss: multitask_loss with no end batch."""
    return multitask_loss(params, None, batch, LossWeights())


def one_lane(params):
    """A model's (a, w_end, W_aux) as a stack of one lane."""
    return params.a[None], params.w_end[None], params.W_aux[None]


def lane_zero(le):
    """Lane 0 of a stacked LossEval, in model-parameter layout."""
    return LossEval(le.value[0], le.grad_a[0], le.grad_w_end[0], le.grad_W_aux[0])


# Each loss term from its own kernel, called on the model as a stack of one
# lane and returned in model-parameter layout: the term-by-term oracles for
# the composed objective.

def end_term(params, batch, lambda_l2=0.0, **sample_weights):
    X = batch.features
    y = batch.labels.astype(np.float64)
    a, w_end, _ = one_lane(params)
    value, grad_a, grad_w_end = end_terms(X, featurize(X, a), -y, 0.5 * (y + 1.0), w_end,
                                          np.array([lambda_l2]), **sample_weights)
    return LossEval(float(value[0]), grad_a[0], grad_w_end[0], np.zeros((params.d, params.d)))


def recon_term(params, batch):
    Xt = batch.noised
    a, _, W_aux = one_lane(params)
    value, grad_a, grad_W_aux = recon_terms(Xt, featurize(Xt, a), batch.targets, W_aux)
    return LossEval(float(value[0]), grad_a[0], np.zeros(params.d), grad_W_aux[0])


def penalty_term(params, X):
    value, grad_a = penalty_terms(X, featurize(X, params.a[None]))
    return LossEval(float(value[0]), grad_a[0], np.zeros(params.d), np.zeros((params.d, params.d)))


class TestEndLoss:
    def test_hand_value_single_sample(self):
        params = init_params(2, None, 0)
        params.a = np.array([1.0, 1.0])
        params.w_end = np.array([0.5, -0.25])
        X = np.array([[2.0, 4.0]])
        batch = LabeledDataset(X, [1], [1], [0])
        z = 2.0 * 0.5 + 4.0 * (-0.25)  # 0.0
        expect = math.log(1.0 + math.exp(-1.0 * z))
        out = end_only(params, batch)
        assert abs(out.value - expect) < 1e-15

    def test_l2_penalty_added(self):
        params = init_params(2, None, 3)
        X = np.array([[0.3, -0.2], [1.0, 0.4]])
        batch = LabeledDataset(X, [1, -1], [1, -1], [0, 1])
        base = end_only(params, batch, 0.0).value
        pen = end_only(params, batch, 2.0).value
        assert abs(pen - base - 1.0 * float(params.w_end @ params.w_end)) < 1e-15

    def test_stable_at_extreme_logits(self):
        params = init_params(1, None, 0)
        params.a = np.array([1.0])
        params.w_end = np.array([1.0])
        batch = LabeledDataset(np.array([[1e4], [-1e4]]), [-1, 1], [-1, 1], [1, 0])
        out = end_only(params, batch)
        assert math.isfinite(out.value)
        assert out.value == pytest.approx(1e4, rel=1e-12)

    def test_reparameterization_invariance(self):
        # with no L2 penalty only the product a * w_end matters
        rng = np.random.default_rng(2)
        params, batch, _ = random_instance(rng, d=4, n=6)
        c = rng.uniform(0.5, 2.0, size=4)
        scaled = replace(params, w_end=params.w_end * c, a=params.a / c)
        assert end_only(scaled, batch).value == pytest.approx(
            end_only(params, batch).value, abs=1e-12
        )

    def test_sample_weights(self):
        rng = np.random.default_rng(3)
        params, batch, _ = random_instance(rng, d=3, n=5)
        ones = end_only(params, batch, 0.7, sample_weights=np.ones(5))
        plain = end_only(params, batch, 0.7)
        assert ones.value == pytest.approx(plain.value, abs=1e-15)
        assert np.allclose(ones.grad_a, plain.grad_a, atol=1e-15)
        with pytest.raises(ShapeError):
            end_only(params, batch, sample_weights=np.ones(4))
        with pytest.raises(InvalidInputError):
            end_only(params, batch, sample_weights=-np.ones(5))

    def test_penalty_excluded_from_weighting(self):
        rng = np.random.default_rng(4)
        params, batch, _ = random_instance(rng, d=2, n=4)
        heavy = end_only(params, batch, 1.0, sample_weights=np.full(4, 3.0))
        plain = end_only(params, batch, 1.0)
        pen = 0.5 * float(params.w_end @ params.w_end)
        assert heavy.value - pen == pytest.approx(3.0 * (plain.value - pen), rel=1e-12)

    def test_rejects_empty_and_mismatched(self):
        params = init_params(2, None, 0)
        batch = LabeledDataset(np.ones((1, 3)), [1], [1], [0])
        with pytest.raises(ShapeError):
            end_only(params, batch)
        with pytest.raises(InvalidInputError):
            end_only(params, batch.take(np.array([], dtype=np.int64)))
        with pytest.raises(InvalidInputError):
            end_only(params, batch.take(np.array([0])), lambda_l2=-1.0)


class TestReconLoss:
    def test_zero_iff_exact(self):
        params = init_params(2, None, 0)
        params.a = np.ones(2)
        params.W_aux = np.eye(2)
        X = np.array([[1.0, -2.0], [0.5, 3.0]])
        exact = AuxDataset(X, X)
        assert recon_only(params, exact).value == 0.0
        off = AuxDataset(X, X + 0.1)
        assert recon_only(params, off).value > 0.0

    def test_hand_value(self):
        params = init_params(1, None, 0)
        params.a = np.array([2.0])
        params.W_aux = np.array([[3.0]])
        batch = AuxDataset(np.array([[1.0]]), np.array([[4.0]]))
        # residual 2*3*1 - 4 = 2; loss = 4 / 2
        assert recon_only(params, batch).value == pytest.approx(2.0, abs=1e-15)

    def test_rejects_empty(self):
        params = init_params(2, None, 0)
        with pytest.raises(InvalidInputError):
            recon_only(params, AuxDataset(np.ones((2, 2)), np.ones((2, 2))).take(np.array([], dtype=np.int64)))

    def test_rejects_mismatched(self):
        params = init_params(2, None, 0)
        with pytest.raises(ShapeError):
            recon_only(params, AuxDataset(np.ones((2, 3)), np.ones((2, 3))))


class TestActivationPenalty:
    def test_hand_value(self):
        params = init_params(2, None, 0)
        params.a = np.array([1.0, -2.0])
        X = np.array([[3.0, 1.0], [0.0, -1.0]])
        # per-row L1 of a*x: |3| + |-2| = 5 and |0| + |2| = 2; mean/d = 7/4
        out = penalty_term(params, X)
        assert out.value == pytest.approx(7.0 / 4.0, abs=1e-15)

    def test_zero_subgradient_at_kink(self):
        params = init_params(2, None, 0)
        params.a = np.array([0.0, 1.0])
        X = np.array([[5.0, 1.0]])
        out = penalty_term(params, X)
        assert out.grad_a[0] == 0.0


class TestMultitask:
    def test_recomposition(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            params, end_batch, aux_batch = random_instance(rng)
            w = LossWeights(alpha_aux=float(rng.uniform(0.1, 3)),
                            alpha_reg=float(rng.uniform(0.1, 3)),
                            lambda_l2=float(rng.uniform(0, 2)))
            total = multitask_loss(params, end_batch, aux_batch, w)
            parts = (
                end_term(params, end_batch, w.lambda_l2).value
                + w.alpha_aux * recon_term(params, aux_batch).value
                + w.alpha_reg * penalty_term(params, end_batch.features).value
                + w.alpha_reg * penalty_term(params, aux_batch.noised).value
            )
            assert total.value == pytest.approx(parts, rel=1e-12)

    def test_degenerates_to_end_loss(self):
        rng = np.random.default_rng(9)
        params, end_batch, aux_batch = random_instance(rng)
        w = LossWeights(lambda_l2=0.5)
        mt = multitask_loss(params, end_batch, aux_batch, w)
        eo = end_term(params, end_batch, 0.5)
        assert mt.value == eo.value
        assert np.array_equal(mt.grad_a, eo.grad_a)
        assert np.array_equal(mt.grad_W_aux, eo.grad_W_aux)

    def test_monotone_in_weights(self):
        rng = np.random.default_rng(10)
        params, end_batch, aux_batch = random_instance(rng)
        vals = [
            multitask_loss(params, end_batch, aux_batch,
                           LossWeights(alpha_aux=a, alpha_reg=r)).value
            for a, r in [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0)]
        ]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_aux_batch_required_when_weighted(self):
        rng = np.random.default_rng(11)
        params, end_batch, _ = random_instance(rng)
        with pytest.raises(InvalidInputError):
            multitask_loss(params, end_batch, None, LossWeights(alpha_aux=1.0))

    @pytest.mark.parametrize("alpha_reg", [0.0, 0.8])
    def test_without_end_batch_is_the_aux_kernel(self, alpha_reg):
        """No end batch: reconstruction plus alpha_reg times the aux batch's
        penalty, as joint_terms computes it; alpha_aux and lambda_l2 are unused."""
        rng = np.random.default_rng(12)
        for _ in range(10):
            params, _, aux_batch = random_instance(rng)
            w = LossWeights(alpha_aux=1.7, alpha_reg=alpha_reg, lambda_l2=0.4)
            got = multitask_loss(params, None, aux_batch, w)
            want = lane_zero(joint_terms(*one_lane(params), LaneWeights.stack([w]), end=None,
                                         aux=(aux_batch.noised, aux_batch.targets)))
            assert got.value == want.value
            for g, h in ((got.grad_a, want.grad_a), (got.grad_w_end, want.grad_w_end),
                         (got.grad_W_aux, want.grad_W_aux)):
                assert np.array_equal(g, h)

    def test_needs_a_batch(self):
        params = init_params(2, None, 0)
        with pytest.raises(InvalidInputError):
            multitask_loss(params, None, None, LossWeights())

    def test_sample_weights_need_end_batch(self):
        rng = np.random.default_rng(13)
        params, _, aux_batch = random_instance(rng, n=4)
        with pytest.raises(InvalidInputError):
            multitask_loss(params, None, aux_batch, LossWeights(), np.ones(4))

    def test_weights_validated(self):
        with pytest.raises(InvalidInputError):
            LossWeights(alpha_aux=-0.1)
        with pytest.raises(InvalidInputError):
            LossWeights(lambda_l2=-1.0)


def _lanewise(fn, params):
    """The stacked loss values finite_diff_param_grads asks for, from a
    public loss called once per lane."""
    def values(a, w_end, W_aux):
        return np.array([fn(ModelParams(a=a[r], w_end=w_end[r], W_aux=W_aux[r],
                                        tau=params.tau, fro_radius=params.fro_radius)).value
                         for r in range(len(a))])
    return values


class TestGradients:
    @pytest.mark.parametrize("loss_name", ["end", "recon", "penalty", "multitask"])
    def test_matches_finite_differences(self, loss_name):
        rng = np.random.default_rng(hash(loss_name) % 2**31)
        for _ in range(5):
            params, end_batch, aux_batch = random_instance(rng)
            w = LossWeights(alpha_aux=1.3, alpha_reg=0.7, lambda_l2=0.9)
            fn = {
                "end": lambda p: end_only(p, end_batch, w.lambda_l2),
                "recon": lambda p: recon_only(p, aux_batch),
                "penalty": lambda p: penalty_term(p, end_batch.features),
                "multitask": lambda p: multitask_loss(p, end_batch, aux_batch, w),
            }[loss_name]
            le = fn(params)
            fa, fw, fW = finite_diff_param_grads(_lanewise(fn, params), params)
            for got, want in ((le.grad_a, fa), (le.grad_w_end, fw), (le.grad_W_aux, fW)):
                rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-2)
                assert rel.max() < 1e-5

    def test_all_fields_finite_and_shaped(self):
        rng = np.random.default_rng(14)
        params, end_batch, aux_batch = random_instance(rng, d=3, n=4)
        le = multitask_loss(params, end_batch, aux_batch,
                            LossWeights(alpha_aux=1.0, alpha_reg=1.0, lambda_l2=1.0))
        assert math.isfinite(le.value)
        assert le.grad_a.shape == (3,)
        assert le.grad_w_end.shape == (3,)
        assert le.grad_W_aux.shape == (3, 3)
        assert np.isfinite(le.grad_a).all()
        assert np.isfinite(le.grad_W_aux).all()


def _sigmoid_reference(z):
    """The logistic function as first written: a boolean-mask scatter of
    the two stable branches."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@given(arrays(np.float64, st.integers(0, 40),
              elements=st.floats(allow_nan=True, allow_infinity=True)))
@settings(max_examples=300, deadline=None)
def test_sigmoid_matches_masked_reference(z):
    with np.errstate(all="ignore"):
        got, want = _sigmoid(z), _sigmoid_reference(z)
    assert np.array_equal(got, want, equal_nan=True)
    # a NaN logit means divergence; only the sign of a NaN may differ
    num = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[num]), np.signbit(want[num]))


def _weighted(sw):
    """The sample-weight argument of a kernel call: none (the default, all
    ones) for sw None, else sw."""
    return {} if sw is None else {"sample_weights": sw}


_VALUE = st.floats(-4.0, 4.0, allow_subnormal=False)
_WEIGHT = st.one_of(st.just(0.0), st.floats(0.0, 5.0))


@st.composite
def _kernel_case(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 9))
    pad = draw(st.integers(0, 3))  # the batch is a slice of a longer epoch array
    X = draw(arrays(np.float64, (n + pad, d), elements=_VALUE))[pad:]
    y = draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    Xt = draw(arrays(np.float64, (n + pad, d), elements=_VALUE))[pad:]
    X0 = draw(arrays(np.float64, (n + pad, d), elements=_VALUE))[pad:]
    params = ModelParams(
        a=draw(arrays(np.float64, d, elements=_VALUE)),
        w_end=draw(arrays(np.float64, d, elements=_VALUE)),
        W_aux=draw(arrays(np.float64, (d, d), elements=_VALUE)),
    )
    weights = LossWeights(alpha_aux=draw(_WEIGHT), alpha_reg=draw(_WEIGHT),
                          lambda_l2=draw(_WEIGHT))
    sw = draw(st.one_of(st.none(), arrays(np.float64, n, elements=st.floats(0.0, 3.0))))
    streams = draw(st.sampled_from(["end", "aux", "joint"]))
    end_batch = LabeledDataset(X, y, y, np.where(y > 0, 0, 1))
    return params, end_batch, AuxDataset(Xt, X0), weights, sw, streams


@given(_kernel_case())
@settings(max_examples=300, deadline=None)
def test_training_kernel_matches_term_kernels(case):
    """The per-step kernel on raw arrays equals the term kernels composed
    term by term, and the validated loss on the same batches, bit for bit,
    for every stream combination."""
    params, end_batch, aux_batch, w, sw, streams = case
    yf = end_batch.labels.astype(np.float64)
    end = (end_batch.features, -yf, 0.5 * (yf + 1.0)) if streams != "aux" else None
    aux = (aux_batch.noised, aux_batch.targets) if streams != "end" else None
    got = lane_zero(joint_terms(*one_lane(params), LaneWeights.stack([w]), end, aux,
                                **_weighted(sw)))

    if streams == "aux":
        terms = [(1.0, recon_term(params, aux_batch))]
        pens = [aux_batch.noised]
    else:
        terms = [(1.0, end_term(params, end_batch, w.lambda_l2, **_weighted(sw)))]
        if streams == "joint" and w.alpha_aux != 0.0:
            terms.append((w.alpha_aux, recon_term(params, aux_batch)))
        pens = [end_batch.features] + ([aux_batch.noised] if streams == "joint" else [])
    if w.alpha_reg != 0.0:
        terms += [(w.alpha_reg, penalty_term(params, X)) for X in pens]
    value = terms[0][1].value
    grads = [terms[0][1].grad_a, terms[0][1].grad_w_end, terms[0][1].grad_W_aux]
    for scale, le in terms[1:]:
        value += scale * le.value
        grads = [g + scale * h for g, h in
                 zip(grads, (le.grad_a, le.grad_w_end, le.grad_W_aux))]

    assert got.value == value
    for g, want in zip((got.grad_a, got.grad_w_end, got.grad_W_aux), grads):
        assert np.array_equal(g, want)
    if streams != "end":
        joint = streams == "joint"
        mt = multitask_loss(params, end_batch if joint else None, aux_batch, w,
                            sw if joint else None)
        assert mt.value == got.value
        for g, h in zip((got.grad_a, got.grad_w_end, got.grad_W_aux),
                        (mt.grad_a, mt.grad_w_end, mt.grad_W_aux)):
            assert np.array_equal(g, h)


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _row_normalized(nll):
    """A sample-weight hook that reads every loss of its lane's row: each
    row's 1 + loss, divided by that row's mean."""
    w = 1.0 + nll
    return w / w.mean(axis=-1, keepdims=True)


@st.composite
def _lane_case(draw):
    """A stack of R lanes: R parameter sets; one batch shared by every lane
    or one batch per lane; loss weights as (R,) columns of distinct nonzero
    entries, each of alpha_aux and alpha_reg on for every lane or for none,
    or as columns of one entry shared by every lane; and no sample weights,
    fixed ones, or a hook."""
    d = draw(st.integers(1, 5))
    n = draw(st.sampled_from([1, 7, 8, 9, 64, 256]))
    lanes = draw(st.integers(1, 5))
    per_lane = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = (lanes, n) if per_lane else (n,)
    X, Xt, X0 = (rng.uniform(-4.0, 4.0, size=batch + (d,)) for _ in range(3))
    y = rng.choice((-1.0, 1.0), size=batch)
    a = rng.uniform(-4.0, 4.0, size=(lanes, d))
    w_end = rng.uniform(-4.0, 4.0, size=(lanes, d))
    W_aux = rng.uniform(-4.0, 4.0, size=(lanes, d, d))
    if draw(st.booleans()):
        weights = LaneWeights.stack([LossWeights(alpha_aux=draw(_WEIGHT), alpha_reg=draw(_WEIGHT),
                                                 lambda_l2=draw(_WEIGHT))])
    else:
        distinct = st.lists(st.floats(0.1, 5.0), min_size=lanes, max_size=lanes, unique=True)
        weights = LaneWeights(*(np.array(draw(distinct)) if on else np.zeros(lanes)
                                for on in (draw(st.booleans()), draw(st.booleans()), True)))
    streams = draw(st.sampled_from(["end", "aux", "joint"]))
    end = (X, -y, 0.5 * (y + 1.0)) if streams != "aux" else None
    aux = (Xt, X0) if streams != "end" else None
    sw = None
    if end is not None:
        sw = draw(st.sampled_from([None, "fixed", _row_normalized]))
        if sw == "fixed":
            sw = rng.uniform(0.0, 3.0, size=draw(st.sampled_from([(n,), (lanes, n)])))
    return (a, w_end, W_aux), weights, end, aux, sw, per_lane


@given(_lane_case())
@settings(max_examples=300, deadline=None)
def test_stacked_lanes_match_single_calls(case):
    """Lanes do not affect each other: lane r of an R-lane call equals the
    R = 1 call on lane r's parameters, batch, weight columns and sample
    weights, bit for bit, in the value and all three gradients."""
    params, weights, end, aux, sw, per_lane = case
    got = joint_terms(*params, weights, end, aux, **_weighted(sw))
    lanes = len(params[0])
    assert got.value.shape == (lanes,)
    assert got.grad_a.shape == got.grad_w_end.shape == params[0].shape
    assert got.grad_W_aux.shape == params[2].shape

    def lane(x, r, stacked):
        """Lane r's part of x as a stack of one, when x is stacked."""
        return x[r:r + 1] if stacked else x

    for r in range(lanes):
        one = joint_terms(
            *(lane(p, r, True) for p in params),
            LaneWeights(*(lane(c, r, len(c) == lanes) for c in weights)),
            *(None if b is None else tuple(lane(x, r, per_lane) for x in b) for b in (end, aux)),
            **_weighted(sw if callable(sw) or sw is None else lane(sw, r, sw.ndim == 2)))
        for g, h in zip((got.value, got.grad_a, got.grad_w_end, got.grad_W_aux),
                        (one.value, one.grad_a, one.grad_w_end, one.grad_W_aux)):
            assert _same_bits(g[r:r + 1], h)


def _unweighted_end_terms(X, H, neg_y, t, w_end, lambda_l2):
    """`end_terms` as an unweighted formula: the mean BCE with no weight
    factor.  The kernel has one weighted formula, and its default weights
    must reproduce this bit for bit."""
    n = X.shape[-2]
    z = np.matvec(H, w_end)
    nll = np.logaddexp(0.0, neg_y * z)
    r = _sigmoid(z) - t
    data = nll.sum(axis=-1) / n
    g = r / n
    value = data + 0.5 * lambda_l2 * np.vecdot(w_end, w_end)
    grad_w_end = np.vecmat(g, H) + _scale(lambda_l2, w_end)
    grad_a = np.vecmat(g, featurize(X, w_end))
    return value, grad_a, grad_w_end


@st.composite
def _end_case(draw):
    """An (R, B) lane stack of the end term, R = 1 or 3, with zeroed
    features, signed-zero heads and logits beyond +-700 among the draws."""
    d = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 3, 7, 8, 64]))
    lanes = draw(st.sampled_from([1, 3]))
    per_lane = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = (lanes, d)
    batch = (lanes, n) if per_lane else (n,)
    X = rng.uniform(-4.0, 4.0, size=batch + (d,))
    zeros = draw(st.sampled_from(["none", "column", "all"]))
    if zeros == "column":
        X[..., draw(st.integers(0, d - 1))] = draw(st.sampled_from([0.0, -0.0]))
    elif zeros == "all":
        X = rng.choice((0.0, -0.0), size=X.shape)
    y = rng.choice((-1.0, 1.0), size=batch)
    a = rng.uniform(-4.0, 4.0, size=params)
    if draw(st.booleans()):
        w_end = rng.choice((0.0, -0.0), size=params)
    else:
        w_end = rng.uniform(-4.0, 4.0, size=params) * draw(st.sampled_from([1.0, 100.0, 1e4]))
    weights = LaneWeights.stack([LossWeights(lambda_l2=draw(st.sampled_from([0.0, 0.5])))
                                 for _ in range(lanes)])
    return X, y, a, w_end, weights


@given(_end_case())
@settings(max_examples=300, deadline=None)
def test_default_weights_match_unweighted_formula(case):
    """With no sample weights, the end kernel and the training kernel equal
    the unweighted formula bit for bit, signed zeros included, in the value
    and all three gradients."""
    X, y, a, w_end, weights = case
    neg_y, t = -y, 0.5 * (y + 1.0)
    H = featurize(X, a)
    want = _unweighted_end_terms(X, H, neg_y, t, w_end, weights.lambda_l2)
    got = end_terms(X, H, neg_y, t, w_end, weights.lambda_l2)
    assert all(_same_bits(g, h) for g, h in zip(got, want))
    W_aux = np.zeros(a.shape + a.shape[-1:])
    le = joint_terms(a, w_end, W_aux, weights, end=(X, neg_y, t))
    for g, h in zip((le.value, le.grad_a, le.grad_w_end, le.grad_W_aux),
                    (*want, np.zeros(W_aux.shape))):
        assert _same_bits(g, h)


# sha256 of each term kernel's output bytes (value, then each gradient, in
# return order) over `_pinned_instances`.  The kernels' float operations,
# and so their bits, are part of the byte-identical artifact contract; the
# grad-check report cannot pin them, as its one varying field is set by the
# joint objective's gradients.  A deliberate change to a kernel's
# arithmetic re-records these with the `_kernel_digests` of the new code.
KERNEL_SHA256 = {
    "end_terms": "797b58cd2b8c210872e38ee2de1d2b422053d9148a43a68369d7b9bead943cb4",
    "recon_terms": "665612280bd8515a977b289c10624c0579d9f53ece5c7c6e22c8389e5dd20bde",
    "penalty_terms": "76cecfbc5683a85b3b66c08d18efc9326e74396efb7c79e3b906fbcfcd6d0b95",
}


def _pinned_instances():
    """Seeded stacks of 3 lanes on 7 rows of 4 features: a shared (B, d)
    batch and one batch per lane (R, B, d), as the training loop passes,
    each with unit and with per-row sample weights."""
    for seed, per_lane in ((0, False), (1, True), (2, True)):
        rng = np.random.default_rng([seed, 2024])
        R, B, d = 3, 7, 4
        batch = (R, B) if per_lane else (B,)
        X, Xt, X0 = (rng.uniform(-2.0, 2.0, size=batch + (d,)) for _ in range(3))
        y = rng.choice((-1.0, 1.0), size=batch)
        a, w_end = rng.uniform(-1.0, 1.0, size=(2, R, d))
        W_aux = rng.normal(size=(R, d, d))
        lambda_l2 = rng.uniform(0.0, 2.0, size=R)
        for sw in (1.0, rng.uniform(0.0, 3.0, size=(R, B))):
            yield X, Xt, X0, -y, 0.5 * (y + 1.0), a, w_end, W_aux, lambda_l2, sw


def _kernel_digests() -> dict[str, str]:
    digests = {name: hashlib.sha256() for name in KERNEL_SHA256}
    for X, Xt, X0, neg_y, t, a, w_end, W_aux, lambda_l2, sw in _pinned_instances():
        H, Ht = featurize(X, a), featurize(Xt, a)
        outputs = {"end_terms": end_terms(X, H, neg_y, t, w_end, lambda_l2, sw),
                   "recon_terms": recon_terms(Xt, Ht, X0, W_aux),
                   "penalty_terms": penalty_terms(X, H)}
        for name, out in outputs.items():
            for block in out:
                assert block.dtype == np.float64 and block.shape[0] == 3, name
                digests[name].update(block.tobytes())
    return {name: h.hexdigest() for name, h in digests.items()}


def test_term_kernel_bits_are_pinned():
    """The value and gradient bytes of `end_terms`, `recon_terms` and
    `penalty_terms` on seeded stacked instances: a reassociated product or
    sum inside a kernel changes them."""
    assert _kernel_digests() == KERNEL_SHA256
