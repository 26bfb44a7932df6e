import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import erfc, ndtr, ndtri

from pmean.moments import b_p
from pmean.numcore import DomainError, RngStream
from pmean.stable import (StableLaw, cf_exponent, stable_cdf, stable_quantile,
                          stable_sample, support_lower_bound)

CPLUS = math.sqrt(2 / math.pi)
LEVY_LAW = StableLaw(-2.0, b_p(-2.0))  # b_{-2} = sqrt(2/pi): the standard Levy law


def levy_cdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0, 0.0, 2.0 * (1.0 - ndtr(1.0 / np.sqrt(np.maximum(x, 1e-300)))))


class TestLaw:
    def test_index_range(self):
        for p in (-0.6, -1.0, -2.0, -10.0):
            law = StableLaw(p, b_p(p))
            assert 0.0 < law.alpha < 2.0
        with pytest.raises(DomainError):
            StableLaw(-0.4, 0.0)
        with pytest.raises(DomainError):
            StableLaw(1.0, 0.0)

    def test_levy_density(self):
        law = StableLaw(-2.0, 0.0)
        x = 1.7
        assert abs(law.levy_density(x) - CPLUS * 0.5 * x ** -1.5) < 1e-14
        assert law.levy_density(-1.0) == 0.0


class TestCfExponent:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_against_direct_levy_integral(self):
        # two routes: the closed form vs direct quadrature of the Levy integral
        # (the direct oscillatory integral carries its own O(1e-3) error for
        # heavy tails, so the tolerance is loose; exactness is pinned by the
        # Levy closed-form CDF match below)
        for p in (-0.7, -1.0, -2.0):
            law = StableLaw(p, b_p(p))
            a = law.alpha
            dens = lambda x: CPLUS * a * x ** (-1.0 - a)
            for u in (0.5, 2.0):
                re = integrate.quad(lambda x: (math.cos(u * x) - 1) * dens(x),
                                    0, np.inf, limit=800)[0]
                im1 = integrate.quad(lambda x: (math.sin(u * x) - u * x) * dens(x),
                                     0, 1, limit=400)[0]
                im2 = integrate.quad(lambda x: math.sin(u * x) * dens(x),
                                     1, np.inf, limit=800)[0]
                direct = complex(1j * law.b * u + re + 1j * (im1 + im2))
                assert abs(cf_exponent(law, u) - direct) < 5e-3

    def test_conjugate_symmetry(self):
        law = StableLaw(-1.5, b_p(-1.5))
        u = 1.3
        assert abs(cf_exponent(law, -u) - np.conj(cf_exponent(law, u))) < 1e-14


class TestCdf:
    def test_levy_support(self):
        for x in (-1.0, 0.0, -1e-9):
            assert stable_cdf(LEVY_LAW, x) == 0.0

    def test_levy_probe_points(self):
        for x in (0.1, 0.5, 1.0, 2.198, 10.0, 254.31):
            assert abs(stable_cdf(LEVY_LAW, x) - float(levy_cdf(x))) < 1e-6

    def test_levy_named_values(self):
        assert abs(stable_cdf(LEVY_LAW, 2.198) - 0.5) < 1e-4
        assert abs(stable_cdf(LEVY_LAW, 0.26032) - 0.05) < 1e-5

    def test_monotone_in_x(self):
        for p in (-0.7, -1.0, -3.0):
            law = StableLaw(p, b_p(p))
            xs = np.linspace(-3, 30, 25) if law.alpha >= 1 else np.linspace(0.01, 30, 25)
            F = stable_cdf(law, xs)
            assert np.all(np.diff(F) >= -1e-12)
            assert np.all((F >= 0) & (F <= 1))


class TestQuantile:
    def test_levy_closed_form_inversion(self):
        assert abs(stable_quantile(LEVY_LAW, 0.5) - 1.0 / ndtri(0.75) ** 2) < 1e-6
        assert abs(stable_quantile(LEVY_LAW, 0.95) - 254.3144445) < 1e-3
        assert abs(stable_quantile(LEVY_LAW, 0.05) - 0.2603177716) < 1e-8

    def test_roundtrip(self):
        for p in (-2.0, -0.7, -1.0, -3.0):
            law = StableLaw(p, b_p(p))
            for q in (0.05, 0.5, 0.95):
                assert abs(stable_cdf(law, stable_quantile(law, q)) - q) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            stable_quantile(LEVY_LAW, 0.0)
        with pytest.raises(DomainError):
            stable_quantile(LEVY_LAW, 1.0)


class TestTableConstant:
    def test_k_in_unit_interval(self):
        for p in (-3.0, -2.0, -1.5):
            law = StableLaw(p, b_p(p))
            K = (stable_quantile(law, 0.95) / stable_quantile(law, 0.05)) ** (1.0 / p)
            assert 0.0 < K < 1.0

    def test_k_minus_two(self):
        law = StableLaw(-2.0, b_p(-2.0))
        K = (stable_quantile(law, 0.95) / stable_quantile(law, 0.05)) ** -0.5
        assert abs(K - 0.0320) < 5e-4


class TestSampler:
    def test_deterministic(self):
        a = stable_sample(LEVY_LAW, 1000, RngStream(9, 2))
        b = stable_sample(LEVY_LAW, 1000, RngStream(9, 2))
        assert np.array_equal(a, b)

    def test_ks_against_levy_closed_form(self):
        s = stable_sample(LEVY_LAW, 100_000, RngStream(3, 0))
        xs = np.sort(s)
        F = levy_cdf(xs)
        i = np.arange(1, xs.size + 1)
        ks = max(np.max(np.abs(F - i / xs.size)), np.max(np.abs(F - (i - 1) / xs.size)))
        assert ks <= 0.01

    @pytest.mark.parametrize("p", [-0.7, -1.0, -1.5])
    def test_ks_against_cdf(self, p):
        # index-1 and alpha in (1,2): validation is sampler-vs-CDF only
        law = StableLaw(p, b_p(p))
        s = stable_sample(law, 60_000, RngStream(4, 1))
        sub = np.sort(np.random.default_rng(0).choice(s, size=2500, replace=False))
        F = stable_cdf(law, sub)
        i = np.arange(1, sub.size + 1)
        ks = max(np.max(np.abs(F - i / sub.size)), np.max(np.abs(F - (i - 1) / sub.size)))
        assert ks <= 0.04  # 1% KS critical value at n=2500 is 0.0326

    def test_support(self):
        s = stable_sample(LEVY_LAW, 20_000, RngStream(5, 0))
        lo = support_lower_bound(LEVY_LAW)
        assert np.all(s > lo - 1e-9)
        assert 0.0 <= lo <= 0.02

    def test_support_two_sided(self):
        assert support_lower_bound(StableLaw(-0.7, b_p(-0.7))) == -math.inf

    def test_bad_n(self):
        with pytest.raises(DomainError):
            stable_sample(LEVY_LAW, 0, RngStream(0, 0))


# ---------------------------------------------------------------------------
# Zolotarev's integral: closed form, oracle and properties
# ---------------------------------------------------------------------------

def s1_cdf_mp(a, y, dps=30):
    """F(y) of the standardized S1(a, beta=1) law at dps digits: Nolan's
    Theorem 1 in the textbook theta variable, split at theta*, by mpmath's
    adaptive tanh-sinh quadrature."""
    with mp.workdps(dps):
        a, y = mp.mpf(a), mp.mpf(y)
        if a == 1:
            lo, logc = -mp.pi / 2, -mp.pi * y / 2

            def log_v(th):
                return (mp.log(abs(2 / mp.pi * (mp.pi / 2 + th) / mp.cos(th)))
                        + (mp.pi / 2 + th) * mp.tan(th))
        else:
            if y == 0:
                return mp.mpf(0) if a < 1 else 1 / a
            if a < 1 and y < 0:
                return mp.mpf(0)
            beta = 1 if y > 0 else -1
            th0 = mp.atan(beta * mp.tan(mp.pi * a / 2)) / a
            lo, logc = -th0, a / (a - 1) * mp.log(abs(y))

            def log_v(th):
                return (mp.log(mp.cos(a * th0)) / (a - 1)
                        + a / (a - 1) * mp.log(abs(mp.cos(th) / mp.sin(a * (th0 + th))))
                        + mp.log(abs(mp.cos(a * th0 + (a - 1) * th) / mp.cos(th))))
        hi = mp.pi / 2

        def h(th):
            return logc + log_v(th)

        rising = h(lo + (hi - lo) / 4) < h(hi - (hi - lo) / 4)
        left, right = lo, hi
        for _ in range(3 * dps):
            mid = (left + right) / 2
            if (h(mid) < 0) == rising:
                left = mid
            else:
                right = mid
        star = (left + right) / 2

        def g(th):
            # a node that rounds onto an end carries a weight below the precision
            if th <= lo or th >= hi:
                return mp.mpf(0)
            e = h(th)
            return mp.mpf(0) if e > 300 else mp.exp(-mp.exp(e))

        tiny = mp.mpf(10) ** (-dps // 2)
        pts = [lo, star, hi] if min(star - lo, hi - star) > tiny else [lo, hi]
        integral = mp.quad(g, pts) / mp.pi
        return 1 - integral if a > 1 and y > 0 else integral


def law_cdf_mp(law, x, dps=30):
    """The CDF of zeta_{p,b} at x at dps digits, through the affine map onto
    S1(alpha, beta=1) evaluated from the law's parameters in mpmath."""
    with mp.workdps(dps):
        a, b, cplus = mp.mpf(law.alpha), mp.mpf(law.b), mp.sqrt(2 / mp.pi)
        if a == 1:
            C = cplus * mp.pi / 2
            scale, shift = C, b + cplus * (1 - mp.euler) + 2 / mp.pi * C * mp.log(C)
        else:
            C = cplus * mp.gamma(1 - a)
            scale, shift = (C * mp.cos(mp.pi * a / 2)) ** (1 / a), b + cplus * a / (a - 1)
        return s1_cdf_mp(a, (mp.mpf(x) - shift) / scale, dps)


# the seven stable rows' indices: p = -5, -2, -1.5, -1, -0.7, -0.6, -0.55
INDEX_GRID = (0.2, 0.5, 2 / 3, 1.0, 1 / 0.7, 1 / 0.6, 1 / 0.55)

# Stable indices at least 1e-3 from 1, or exactly 1: zeta_{p,b_p} sits near
# -gamma tan(pi alpha / 2), which diverges as alpha -> 1 from either side.
INDICES = st.one_of(st.just(1.0), st.floats(0.2, 0.999), st.floats(1.001, 1.9))
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def _law(alpha):
    return StableLaw(-1.0 / alpha, b_p(-1.0 / alpha))


class TestZolotarev:
    def test_levy_closed_form(self):
        x = np.geomspace(1e-3, 1e8, 400)
        err = np.abs(stable_cdf(LEVY_LAW, x) - erfc(1.0 / np.sqrt(2.0 * x)))
        assert err.max() <= 1e-13

    def test_array_equals_scalar_calls(self):
        # more points than one block, to cross a block boundary
        for alpha in INDEX_GRID:
            law = _law(alpha)
            lo, hi = stable_quantile(law, 1e-4), stable_quantile(law, 1 - 1e-4)
            x = np.linspace(lo - 1.0, hi, 600)
            F = stable_cdf(law, x)
            one = np.array([stable_cdf(law, float(v)) for v in x])
            assert np.max(np.abs(F - one)) <= 1e-13
            assert stable_cdf(law, x.reshape(20, 30)).shape == (20, 30)

    def test_against_mpmath_oracle(self):
        for alpha in INDEX_GRID:
            law = _law(alpha)
            for q in (0.003, 0.4, 0.97):
                x = stable_quantile(law, q)
                assert abs(stable_cdf(law, x) - float(law_cdf_mp(law, x))) <= 1e-12

    def test_oracle_matches_levy(self):
        with mp.workdps(30):
            # the double-precision drift b puts the support end 4.4e-17 off 0
            end = mp.mpf(LEVY_LAW.b) - mp.sqrt(2 / mp.pi)
            for x in (0.05, 1.0, 300.0):
                exact = mp.erfc(1 / mp.sqrt(2 * (mp.mpf(x) - end)))
                assert abs(law_cdf_mp(LEVY_LAW, x) - exact) < 1e-25

    def test_support_end_is_the_shift(self):
        for alpha in (0.2, 0.5, 2 / 3, 0.9):
            law = _law(alpha)
            lo = support_lower_bound(law)
            assert stable_cdf(law, lo) == 0.0
            assert stable_cdf(law, stable_quantile(law, 1e-9)) > 0.0

    @PROPERTY
    @given(INDICES, st.lists(st.floats(-0.5, 1.5), min_size=2, max_size=40))
    def test_monotone_within_unit_interval(self, alpha, u):
        law = _law(alpha)
        lo, hi = stable_quantile(law, 1e-3), stable_quantile(law, 1 - 1e-3)
        F = stable_cdf(law, lo + (hi - lo) * np.sort(u))
        assert np.all((F >= 0.0) & (F <= 1.0))
        assert np.all(np.diff(F) >= 0.0)

    @PROPERTY
    @given(st.floats(0.2, 0.999), st.floats(0.0, 1e6))
    def test_zero_at_and_below_support(self, alpha, depth):
        law = _law(alpha)
        lo = support_lower_bound(law)
        assert stable_cdf(law, lo - depth) == 0.0
        assert stable_cdf(law, np.array([lo, lo - depth])).tolist() == [0.0, 0.0]

    @PROPERTY
    @given(INDICES, st.floats(1e-6, 1 - 1e-6))
    def test_quantile_round_trip(self, alpha, q):
        law = _law(alpha)
        assert abs(stable_cdf(law, stable_quantile(law, q)) - q) <= 1e-8
