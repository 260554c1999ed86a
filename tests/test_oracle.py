import math

import mpmath
import numpy as np
import pytest

from grouprobe import (
    BayesWeightInputs,
    BoundInputs,
    DegenerateInputError,
    DivergedError,
    InvalidInputError,
    ModelParams,
    ShapeError,
    bayes_weight,
    finite_diff_grad,
    finite_diff_param_grads,
    normal_cdf,
    normal_cdf_inv,
    numeric_bayes_weight,
    transfer_core_mass_lower_bound,
    worst_group_error_bound,
)

mpmath.mp.dps = 50


def mp_ncdf(x) -> mpmath.mpf:
    return mpmath.ncdf(mpmath.mpf(repr(float(x))))


def mp_ncdf_root(p: float) -> float:
    """The root of ncdf(x) = p for the exact double p, by bisection on
    [-40, 0] after mapping p > 1/2 to the lower tail (1 - p is exact in
    mpf)."""
    q, sign = mpmath.mpf(p), 1
    if q > 0.5:
        q, sign = 1 - q, -1
    lo, hi = mpmath.mpf(-40), mpmath.mpf(0)
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mpmath.ncdf(mid) < q else (lo, mid)
    return sign * float((lo + hi) / 2)


class TestNormalCdf:
    def test_against_mpmath(self):
        for x in [-8.0, -3.5, -1.2, -0.3, 0.0, 0.7, 2.0, 5.5, 9.0]:
            ref = float(mp_ncdf(x))
            got = normal_cdf(x)
            # 1e-15 absolute everywhere; erfc keeps tails to a few ulp relative
            assert got == pytest.approx(ref, rel=1e-13, abs=1e-15)

    def test_known_points(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(1e9) == 1.0
        assert normal_cdf(-40.0) == pytest.approx(0.0, abs=1e-300)

    def test_inverse_roundtrip(self):
        for p in [0.01, 0.1, 0.3, 0.49] + list(np.linspace(0.001, 0.999, 25)):
            assert normal_cdf(normal_cdf_inv(p)) == pytest.approx(p, abs=1e-10)

    def test_inverse_against_mpmath(self):
        # the far tails too: 1 - 2**-53 is the largest double below 1 and
        # 5e-324 the smallest above 0
        for p in [0.01, 0.1, 0.25, 0.5, 0.9, 0.975, 1 - 1e-10, 1 - 2**-53, 5e-324]:
            assert normal_cdf_inv(p) == pytest.approx(mp_ncdf_root(p), rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.3])
    def test_inverse_domain(self, p):
        with pytest.raises(InvalidInputError):
            normal_cdf_inv(p)


class TestBayesWeight:
    def test_hand_values(self):
        core = BayesWeightInputs(sigma2=0.6, mu2_pos=1.0, mu2_neg=1.0, sigma2_noise=1.0)
        spur = BayesWeightInputs(sigma2=0.1, mu2_pos=1.0, mu2_neg=1.0, sigma2_noise=1.0)
        assert bayes_weight(core) == pytest.approx(1.6 / 2.6, abs=1e-15)
        assert bayes_weight(spur) == pytest.approx(1.1 / 2.1, abs=1e-15)

    def test_noiseless_is_one(self):
        inp = BayesWeightInputs(sigma2=0.3, mu2_pos=0.5, mu2_neg=0.5, sigma2_noise=0.0)
        assert bayes_weight(inp) == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            bayes_weight(BayesWeightInputs(0.0, 0.0, 0.0, 0.0))

    def test_negative_moment_rejected(self):
        with pytest.raises(InvalidInputError):
            BayesWeightInputs(sigma2=-0.1, mu2_pos=1.0, mu2_neg=1.0, sigma2_noise=1.0)

    def test_monotone_in_variance(self):
        grid = [0.05, 0.1, 0.3, 0.6, 1.0, 2.0]
        vals = [bayes_weight(BayesWeightInputs(v, 1.0, 1.0, 1.0)) for v in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_noise(self):
        grid = [0.1, 0.5, 1.0, 2.0, 5.0]
        vals = [bayes_weight(BayesWeightInputs(0.6, 1.0, 1.0, v)) for v in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.uniform(0.0, 4.0, size=4)
            if v.sum() == 0:
                continue
            assert 0.0 <= bayes_weight(BayesWeightInputs(*v)) <= 1.0


class TestNumericBayesWeight:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(21)
        for i in range(3):
            inp = BayesWeightInputs(*rng.uniform(0.1, 2.0, size=4))
            est = numeric_bayes_weight(inp, 200_000, [5, i])
            assert est == pytest.approx(bayes_weight(inp), abs=0.02)

    def test_noiseless_estimate(self):
        inp = BayesWeightInputs(sigma2=0.6, mu2_pos=1.0, mu2_neg=1.0, sigma2_noise=0.0)
        assert numeric_bayes_weight(inp, 50_000, 0) == pytest.approx(1.0, abs=1e-9)

    def test_sample_floor(self):
        inp = BayesWeightInputs(0.6, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            numeric_bayes_weight(inp, 9_999, 0)

    def test_error_shrinks_with_samples(self):
        inp = BayesWeightInputs(0.6, 1.0, 1.0, 1.0)
        truth = bayes_weight(inp)
        err = lambda n: np.std([numeric_bayes_weight(inp, n, [7, k]) - truth
                                for k in range(10)])
        # 100x the samples should cut the spread by about 10x
        assert err(10_000) / err(1_000_000) > 3.0


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda t: np.vecdot(t, t), np.array([1.0, 2.0]))
        assert np.allclose(g, [2.0, 4.0], atol=1e-6)

    def test_bad_step(self):
        with pytest.raises(InvalidInputError):
            finite_diff_grad(lambda t: np.zeros(len(t)), np.zeros(2), h=0.0)

    def test_nonfinite_loss(self):
        with pytest.raises(DivergedError):
            finite_diff_grad(lambda t: np.full(len(t), np.inf), np.zeros(2))

    def test_one_value_per_point(self):
        with pytest.raises(ShapeError):
            finite_diff_grad(lambda t: t.sum(), np.zeros(2))

    def test_matches_one_probe_at_a_time(self):
        # the stacked probes are the points a per-coordinate loop would visit
        rng = np.random.default_rng(4)
        theta, h = rng.normal(size=7), 1e-6

        def f(t):
            return np.sin(t).sum(axis=-1) * np.cos(t[..., 0])

        want = np.empty_like(theta)
        for i in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[i] += h
            dn[i] -= h
            want[i] = (float(f(up)) - float(f(dn))) / (2.0 * h)
        assert np.array_equal(finite_diff_grad(f, theta, h), want)

    def test_param_grads_on_quadratic(self):
        p = ModelParams(a=np.array([1.0, -2.0]), w_end=np.array([0.5, 0.0]),
                        W_aux=np.arange(4.0).reshape(2, 2), tau=None, fro_radius=None)

        def loss(a, w_end, W_aux):
            return np.vecdot(a, a) + np.vecdot(w_end, w_end) + (W_aux ** 2).sum(axis=(-2, -1))

        ga, gw, gW = finite_diff_param_grads(loss, p)
        assert np.allclose(ga, 2 * p.a, atol=1e-5)
        assert np.allclose(gw, 2 * p.w_end, atol=1e-5)
        assert np.allclose(gW, 2 * p.W_aux, atol=1e-5)


def mp_worst_group_bound(inp: BoundInputs) -> float:
    g = mpmath.mpf(repr(inp.gamma))
    mass = inp.d_c * mpmath.mpf(repr(inp.tau)) + inp.d_s * mpmath.mpf(repr(inp.lam))
    arg = -(mpmath.mpf(repr(inp.eta)) / (g * mpmath.mpf(repr(inp.sigma_spur)))) * mpmath.sqrt(
        g ** 2 + mass * (mass + 2 * g)
    )
    return float(mpmath.ncdf(arg))


class TestWorstGroupBound:
    def test_hand_value(self):
        inp = BoundInputs(gamma=1.0, sigma_spur=1.0, eta=1.0, tau=0.1, lam=0.1,
                          d_c=1, d_s=1)
        # argument is -sqrt(1 + 0.2 * 2.2) = -1.2
        assert worst_group_error_bound(inp) == pytest.approx(normal_cdf(-1.2), abs=1e-15)
        assert worst_group_error_bound(inp) == pytest.approx(0.11507, abs=5e-6)

    def test_against_mpmath(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            inp = BoundInputs(
                gamma=float(rng.uniform(0.1, 3.0)),
                sigma_spur=float(rng.uniform(0.1, 2.0)),
                eta=float(rng.uniform(0.1, 3.0)),
                tau=float(rng.uniform(0.01, 5.0)),
                lam=float(rng.uniform(0.01, 5.0)),
                d_c=int(rng.integers(1, 6)),
                d_s=int(rng.integers(1, 6)),
            )
            assert worst_group_error_bound(inp) == pytest.approx(
                mp_worst_group_bound(inp), abs=1e-12)

    def test_range(self):
        # draws keep the CDF argument above the double underflow point
        # (Phi(x) rounds to 0.0 for x below about -37)
        rng = np.random.default_rng(9)
        for _ in range(200):
            inp = BoundInputs(
                gamma=float(rng.uniform(0.5, 2.0)),
                sigma_spur=float(rng.uniform(0.5, 2.0)),
                eta=float(rng.uniform(0.1, 1.5)),
                tau=float(rng.uniform(0.05, 0.5)),
                lam=float(rng.uniform(0.05, 0.5)),
                d_c=int(rng.integers(1, 3)),
                d_s=int(rng.integers(1, 3)),
            )
            b = worst_group_error_bound(inp)
            assert 0.0 < b < 0.5

    def test_vanishes_with_margin_scale(self):
        base = dict(gamma=1.0, sigma_spur=1.0, tau=0.5, lam=0.5, d_c=2, d_s=1)
        b1 = worst_group_error_bound(BoundInputs(eta=1.0, **base))
        b2 = worst_group_error_bound(BoundInputs(eta=10.0, **base))
        b3 = worst_group_error_bound(BoundInputs(eta=100.0, **base))
        assert b1 > b2 > b3
        assert b3 < 1e-12

    @pytest.mark.parametrize("field", ["gamma", "sigma_spur", "eta", "tau", "lam"])
    def test_positive_inputs_required(self, field):
        kw = dict(gamma=1.0, sigma_spur=1.0, eta=1.0, tau=0.1, lam=0.1, d_c=1, d_s=1)
        kw[field] = 0.0
        with pytest.raises(InvalidInputError):
            worst_group_error_bound(BoundInputs(**kw))

    @pytest.mark.parametrize("field", ["gamma", "sigma_spur", "eta", "tau", "lam", "eps"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_inputs_rejected(self, field, value):
        # NaN passes every `<= 0` range check, and inf turns the bounds NaN
        kw = dict(gamma=1.0, sigma_spur=1.0, eta=1.0, tau=0.1, lam=0.1, d_c=2, d_s=1, eps=0.3)
        kw[field] = value
        with pytest.raises(InvalidInputError, match=f"{field} must be finite"):
            BoundInputs(**kw)


class TestTransferBound:
    def test_limit_at_half(self):
        inp = BoundInputs(gamma=2.0, sigma_spur=1.0, eta=1.0, tau=0.3, lam=0.0,
                          d_c=3, d_s=1, eps=0.5 - 1e-13)
        out = transfer_core_mass_lower_bound(inp)
        assert out.value == pytest.approx((2.0 - 1 * 0.3) / (3 - 1), abs=1e-9)
        assert not out.vacuous

    def test_against_mpmath(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            inp = BoundInputs(
                gamma=float(rng.uniform(0.1, 3.0)),
                sigma_spur=float(rng.uniform(0.1, 2.0)),
                eta=float(rng.uniform(0.1, 3.0)),
                tau=float(rng.uniform(0.01, 2.0)),
                lam=0.0,
                d_c=int(rng.integers(2, 6)),
                d_s=1,
                eps=float(rng.uniform(0.01, 0.49)),
            )
            z = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(repr(inp.eps)) - 1)
            ref = (mpmath.sqrt(
                mpmath.mpf(repr(inp.sigma_spur)) ** 2 * mpmath.mpf(repr(inp.eta)) ** 2 * z ** 2
                + mpmath.mpf(repr(inp.gamma)) ** 2
            ) - inp.d_s * mpmath.mpf(repr(inp.tau))) / (inp.d_c - inp.d_s)
            out = transfer_core_mass_lower_bound(inp)
            assert out.value == pytest.approx(float(ref), abs=1e-9)
            assert out.vacuous == (out.value < 0)

    def test_large_budget_goes_vacuous(self):
        inp = BoundInputs(gamma=0.5, sigma_spur=1.0, eta=1.0, tau=50.0, lam=0.0,
                          d_c=2, d_s=1, eps=0.4)
        out = transfer_core_mass_lower_bound(inp)
        assert out.vacuous
        assert out.value < 0

    def test_dimension_requirement(self):
        inp = BoundInputs(gamma=1.0, sigma_spur=1.0, eta=1.0, tau=0.1, lam=0.0,
                          d_c=1, d_s=1, eps=0.1)
        with pytest.raises(InvalidInputError):
            transfer_core_mass_lower_bound(inp)

    @pytest.mark.parametrize("eps", [None, 0.0, 0.5, 0.7])
    def test_eps_domain(self, eps):
        inp = BoundInputs(gamma=1.0, sigma_spur=1.0, eta=1.0, tau=0.1, lam=0.0,
                          d_c=2, d_s=1, eps=eps)
        with pytest.raises(InvalidInputError):
            transfer_core_mass_lower_bound(inp)


def test_param_grads_evaluate_all_probes_in_one_call():
    d = 3
    p = ModelParams(a=np.arange(1.0, 4.0), w_end=np.ones(d), W_aux=np.eye(d),
                    tau=None, fro_radius=None)
    calls = []

    def values(a, w_end, W_aux):
        calls.append((a.shape, w_end.shape, W_aux.shape))
        return np.vecdot(a, a) + np.vecdot(w_end, w_end) + (W_aux ** 2).sum(axis=(-2, -1))

    ga, gw, gW = finite_diff_param_grads(values, p)
    probes = 2 * (2 * d + d * d)
    assert calls == [((probes, d), (probes, d), (probes, d, d))]
    assert np.allclose(ga, 2 * p.a, atol=1e-5)
    assert np.allclose(gw, 2 * p.w_end, atol=1e-5)
    assert np.allclose(gW, 2 * p.W_aux, atol=1e-5)
