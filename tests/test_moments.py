import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from pmean.moments import (ExtendedP, Regime, b_p, c_crit_inf, lambda_inf, lambda_p,
                           lambda_p_zero, lambda_pm, limit_law, log_moment, mu_tilde,
                           regime_row)
from pmean.numcore import DomainError, gauss_expect

SQRT_2_OVER_PI = math.sqrt(2 / math.pi)
EULER = 0.5772156649015329


def exact_abs_mean(s):
    """Closed form E|Z+s| = s(2 Phi(s) - 1) + 2 phi(s)."""
    return s * (2 * ndtr(s) - 1) + 2 * math.exp(-0.5 * s * s) / math.sqrt(2 * math.pi)


class TestLambdaP:
    def test_examples(self):
        assert abs(lambda_p(2, 0.0) - 1.0) < 1e-12
        assert abs(lambda_p(1, 0.0) - SQRT_2_OVER_PI) < 1e-12
        assert abs(lambda_p(1, 10.0) - exact_abs_mean(10.0)) < 1e-8

    def test_closed_form_zero(self):
        for p in (-0.9, -0.4, 0.5, 1.0, 2.0, 3.0, 4.0, 7.0):
            assert abs(lambda_p(p, 0.0) - lambda_p_zero(p)) < 1e-10
        assert abs(lambda_p_zero(4.0) - 3.0) < 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            lambda_p(-1.0, 0.5)
        with pytest.raises(DomainError):
            lambda_p_zero(-1.2)

    def test_monotone_in_abs_s(self):
        grid = [0.0, 0.5, 1.0, 2.0, 4.0]
        inc = [lambda_p(1.5, s) for s in grid]
        assert all(a < b for a, b in zip(inc, inc[1:]))
        dec = [lambda_p(-0.5, s) for s in grid]
        assert all(a > b for a, b in zip(dec, dec[1:]))
        assert lambda_p(0.7, -1.3) == lambda_p(0.7, 1.3)

    def test_quadratic_lower_bound_p_ge_2(self):
        for p in (2.0, 3.0, 5.0):
            lam0 = lambda_p_zero(p)
            for s in np.linspace(-3, 3, 25):
                gap = lambda_p(p, s) - lam0 - 0.5 * p * lam0 * s * s
                if p == 2.0:
                    assert abs(gap) < 1e-9
                else:
                    assert gap >= -1e-9

    def test_convexity_in_squared_argument(self):
        tgrid = np.linspace(0.3, 9.0, 16)
        for p, sign in ((-0.5, 1), (3.0, 1), (0.5, -1), (1.5, -1)):
            vals = np.array([lambda_p(p, math.sqrt(t)) for t in tgrid])
            second = np.diff(vals, 2)
            assert np.all(sign * second >= -1e-9)

    def test_small_s_expansion(self):
        for p in (-0.5, 1.0, 3.0):
            lam0 = lambda_p_zero(p)
            ratios = []
            for s in (0.1, 0.01, 0.001):
                ratios.append((lambda_p(p, s) - lam0) / (0.5 * p * lam0 * s * s))
            devs = [abs(r - 1.0) for r in ratios]
            assert devs[0] > devs[1] > devs[2] - 1e-12
            assert devs[0] <= 0.02

    def test_large_s(self):
        assert abs(lambda_p(3.0, 20.0) / 20.0 ** 3 - 1.0) <= 0.01


class TestLambdaPM:
    def test_examples(self):
        assert abs(lambda_pm(2, 2, 0.0) - 2.0) < 1e-10
        assert abs(lambda_pm(1, 2, 0.0) - (1 - 2 / math.pi)) < 1e-10

    def test_variance_identity_against_direct_integral(self):
        # the m=2 identity lambda_{p,2} = lambda_{2p} - lambda_p^2 checked
        # against direct quadrature of E||Z+s|^p - lambda_p(s)|^2
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = rng.uniform(-0.45, 2.5)
            s = rng.uniform(-2.0, 2.0)
            c = lambda_p(p, s)
            pts = (0.0, -c ** (1 / p) if p != 0 else 0.0, c ** (1 / p) if p != 0 else 0.0)
            direct = gauss_expect(lambda y, p=p, c=c: (abs(y) ** p - c) ** 2, s, points=pts)
            assert abs(lambda_pm(p, 2, s) - direct) < 1e-7
            assert abs(lambda_pm(p, 2, s) - (lambda_p(2 * p, s) - c ** 2)) < 1e-9

    def test_nonnegative_and_domain(self):
        assert lambda_pm(0.5, 3, 1.0) >= 0.0
        with pytest.raises(DomainError):
            lambda_pm(-0.6, 2, 0.0)
        with pytest.raises(DomainError):
            lambda_pm(1.0, 0.0, 0.0)


class TestLogMoments:
    def test_values_at_zero(self):
        assert abs(log_moment(2, 0.0) - math.pi ** 2 / 8) < 1e-8
        assert abs(log_moment(1, 0.0) + (EULER + math.log(2)) / 2) < 1e-10

    def test_large_s(self):
        assert abs(log_moment(1, 1000.0) / math.log(1000.0) - 1.0) < 1e-4

    def test_monotone_and_nonnegative(self):
        vals = [log_moment(1, s) for s in (0.0, 0.5, 1.0, 3.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert log_moment(2, 1.3) >= 0.0
        assert log_moment(3, 1.3) >= 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            log_moment(4, 0.0)


class TestMuTilde:
    def test_value_d1(self):
        # tail piece is an exponential-integral identity: E1(1/2)/sqrt(2 pi)
        from scipy.special import exp1
        exact = 2 * (ndtr(1.0) - 0.5) + exp1(0.5) / math.sqrt(2 * math.pi)
        assert abs(mu_tilde(1, 0.0) - exact) < 1e-3
        assert abs(mu_tilde(1, 0.0) - exact) < 1e-9  # quadrature is much better

    def test_log_growth(self):
        phi0 = 1 / math.sqrt(2 * math.pi)
        ratios = [mu_tilde(d, 0.0) / (2 * phi0 * math.log(d)) for d in (10**3, 10**6, 10**9)]
        assert ratios[0] > ratios[1] > ratios[2] > 1.0

    def test_strictly_decreasing_in_s(self):
        assert mu_tilde(10, 3.0) < mu_tilde(10, 1.0) < mu_tilde(10, 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            mu_tilde(0, 0.0)


class TestCritInf:
    def test_value(self):
        assert abs(c_crit_inf(100, 0.05) - 3.532537523990822) < 1e-12

    def test_normalized_limit(self):
        assert abs(c_crit_inf(10**6, 0.05) / math.sqrt(2 * math.log(10**6)) - 1.0) < 0.08

    def test_increasing_in_d(self):
        vals = [c_crit_inf(d, 0.05) for d in (10**2, 10**3, 10**4)]
        assert vals[0] < vals[1] < vals[2]

    def test_degenerate(self):
        with pytest.raises(DomainError):
            c_crit_inf(2, 0.9)
        with pytest.raises(DomainError):
            c_crit_inf(1, 0.05)


class TestLambdaInf:
    def test_null_scaling_trend(self):
        # d * lambda_inf(d, a, 0) -> -ln(1-a); the Mills-ratio deficit decays
        # like 1/ln d, so at d = 1e4 the gap is still ~10%
        target = -math.log(0.95)
        gaps = [abs(d * lambda_inf(d, 0.05, 0.0) - target) / target
                for d in (10**4, 10**8, 10**12)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] <= 0.05

    def test_increasing_in_shift(self):
        assert lambda_inf(10**4, 0.05, 2.0) > lambda_inf(10**4, 0.05, 0.0)
        assert lambda_inf(10**4, 0.05, -1.0) == lambda_inf(10**4, 0.05, 1.0)

    def test_far_shift(self):
        d = 10**4
        s = 2.0 * math.sqrt(2 * math.log(d))
        assert lambda_inf(d, 0.05, s) > 5.0


class TestExtendedP:
    def test_regimes_exhaustive(self):
        cases = {
            -math.inf: Regime.NEG_INF, -3.0: Regime.BELOW_NEG_ONE, -1.0: Regime.NEG_ONE,
            -0.7: Regime.NEG_ONE_TO_NEG_HALF, -0.5: Regime.NEG_HALF,
            -0.2: Regime.NEG_HALF_TO_ZERO, 0.0: Regime.ZERO, 1.5: Regime.ZERO_TO_INF,
            math.inf: Regime.POS_INF,
        }
        for v, reg in cases.items():
            assert ExtendedP.of(v).regime is reg

    def test_boundary_snap_warns(self):
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            ep = ExtendedP.of(-0.5 + 1e-14)
        assert ep.value == -0.5
        assert any("snapped" in str(x.message) for x in w)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            ExtendedP.of(float("nan"))


class TestRegimeTable:
    def test_k_examples(self):
        assert abs(regime_row(math.inf, 0.05, 100).K(0.95)
                   - (math.log(0.95) - math.log(0.05))) < 1e-12
        assert abs(regime_row(-math.inf, 0.05, 100).K(0.95)
                   - math.log(0.95) / math.log(0.05)) < 1e-12
        assert abs(regime_row(2.0, 0.05, 100).K(0.95)
                   - 4.652348614706696) < 1e-9

    def test_f_at_zero_by_row(self):
        # the two exponential rows have f(0) = 1; all other rows vanish at 0
        d = 50
        for p, expect in [(-math.inf, 1.0), (-2.0, 1.0), (-1.0, 0.0), (-0.7, 0.0),
                          (-0.5, 0.0), (-0.25, 0.0), (0.0, 0.0), (1.0, 0.0),
                          (math.inf, 0.0)]:
            row = regime_row(p, 0.05, d)
            assert abs(float(row.f(0.0)) - expect) < 1e-10
            assert row.f_at_zero == expect

    def test_k_positive(self):
        for ab in [(0.05, 0.95), (0.01, 0.5), (0.2, 0.8)]:
            for p in (-math.inf, -2.0, -1.0, -0.7, -0.5, -0.25, 0.0, 1.0, 2.0, math.inf):
                assert regime_row(p, ab[0], 100).K(ab[1]) > 0.0

    def test_kappa_positive_nondecreasing(self):
        for p in (-math.inf, -2.0, -1.0, -0.7, -0.5, -0.25, 0.0, 1.0, math.inf):
            row = regime_row(p, 0.05, 100)
            ks = [row.kappa(d) for d in (10, 100, 1000)]
            assert ks[0] > 0 and ks[0] <= ks[1] <= ks[2]

    def test_d_capture(self):
        # f for p = -1 and p = inf depends on d (and alpha for p = inf)
        f_small = regime_row(-1.0, 0.05, 10).f
        f_large = regime_row(-1.0, 0.05, 10000).f
        assert abs(float(f_small(1.0)) - float(f_large(1.0))) > 1e-3
        g_small = regime_row(math.inf, 0.05, 100).f
        g_large = regime_row(math.inf, 0.05, 10**6).f
        assert abs(float(g_small(2.0)) - float(g_large(2.0))) > 1e-6

    def test_law_quantile_inverts_cdf(self):
        for p in (-math.inf, -2.0, -1.0, -0.7, -0.5, -0.25, 0.0, 1.0, math.inf):
            law = limit_law(p, 100)
            for q in (0.05, 0.5, 0.9):
                assert abs(float(law.cdf(law.quantile(q))) - q) < 1e-8, (p, q)

    def test_power_inverts_K(self):
        for p in (-math.inf, -2.0, -1.0, -0.7, -0.5, -0.25, 0.0, 1.0, 3.0, math.inf):
            row = regime_row(p, 0.05, 100)
            for beta in (0.2, 0.8):
                assert abs(row.power(row.K(beta)) - beta) < 1e-8, (p, beta)

    def test_shift_sum_deduplicates(self):
        row = regime_row(3.0, 0.05, 8)
        theta = np.array([0.5, -0.5, 0.0, 1.5, -1.5, 1.5, 0.0, 0.5])
        calls = []
        traced = dataclasses.replace(row, f=lambda s: calls.append(np.size(s)) or row.f(s))
        want = sum(float(row.f(abs(v))) for v in theta)
        assert abs(traced.shift_sum(theta)(1.0) - want) < 1e-12 * want
        assert calls == [3]

    def test_alpha_beta_validation(self):
        with pytest.raises(DomainError):
            regime_row(1.0, 0.95, 10).K(0.05)

    def test_neg_half_needs_d_at_least_2(self):
        with pytest.raises(DomainError, match="vanishes at d=1"):
            regime_row(-0.5, 0.05, 1)
        assert regime_row(-0.5, 0.05, 2).kappa(2) > 0.0

    def test_b_p(self):
        assert b_p(-1.0) == -SQRT_2_OVER_PI
        assert abs(b_p(-2.0) - SQRT_2_OVER_PI) < 1e-15
        with pytest.raises(DomainError):
            b_p(-0.3)
