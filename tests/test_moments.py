import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr

from pmean.moments import (LOG_MEAN_ZERO, LOG_VAR_ZERO, Regime, _lambda_p_batch,
                           _log_mean_batch, _mu_tilde_batch, b_p, c_crit_inf, extended_p,
                           lambda_inf, lambda_p, lambda_p_zero, lambda_pm, limit_law,
                           log_moment, mu_tilde, regime_of, regime_row)
from pmean.numcore import DomainError, gauss_expect
from pmean.hypotest import level_set

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
        # against a 30-digit integral of E||Z+s|^p - lambda_p(s)|^2
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = rng.uniform(-0.45, 2.5)
            s = rng.uniform(-2.0, 2.0)
            c = lambda_p(p, s)
            with mpmath.workdps(30):
                pm, sm = mpmath.mpf(p), mpmath.mpf(s)
                # y = +-t^k, with k = 1/(2p+1) for p < 0, takes the |y|^{2p}
                # singularity out of the integrand
                k = 1 / (2 * pm + 1) if p < 0 else mpmath.mpf(1)
                direct = float(sum(mpmath.quad(
                    lambda t: (t ** (k * pm) - c) ** 2 * mpmath.npdf(sg * t ** k - sm)
                    * k * t ** (k - 1), [0, abs(sm) ** (1 / k), 14 ** (1 / k)])
                    for sg in (1, -1)))
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


# The batched kernels against 30-digit mpmath oracles: E|Z+s|^p from 1F1,
# E ln|Z+s| from its Poisson series, mu_tilde by direct integration, each
# with its asymptotic series in 1/s where s is large.
ORACLE_P = (-0.9, -0.7, -0.5, -0.3, 0.5, 1.0, 3.0)
ORACLE_D = (1, 100, 10**4, 10**6)
ORACLE_S = (0.0, 1e-10, 1e-4, 0.05, 0.3, 0.9, 1.5, 2.0, 4.5, 8.99, 9.0, 9.01, 12.0, 40.0,
            1e3, 1e6, 1e9, 1e20, 1e100, 1e300)
# the spike's coordinate sqrt(d) t at the planning scales t
SPIKE_T = (0.02, 1.0, 3.0)


def _grid(d):
    return np.array(sorted(set(ORACLE_S) | {math.sqrt(d) * t for t in SPIKE_T}))


def _mp_lambda(p, s):
    p, s = mpmath.mpf(p), mpmath.mpf(s)
    return (2 ** (p / 2) * mpmath.gamma((p + 1) / 2) / mpmath.sqrt(mpmath.pi)
            * mpmath.hyp1f1(-p / 2, 0.5, -s * s / 2))


def _mp_log_mean(s):
    s = mpmath.mpf(s)
    if s > 20:
        return mpmath.log(s) - sum(mpmath.fac2(2 * k - 1) / (2 * k * s ** (2 * k))
                                   for k in range(1, 30))
    # ln (Z+s)^2 is ln 2 + ln of a chi^2_{1+2J} variate with J ~ Poisson(s^2/2)
    lam = s * s / 2
    weight, total = mpmath.exp(-lam), mpmath.log(2)
    for j in range(int(lam + 12 * mpmath.sqrt(lam) + 40)):
        total += weight * mpmath.digamma(j + 0.5)
        weight *= lam / (j + 1)
    return total / 2


def _mp_mu_tilde(d, s):
    s, c = mpmath.mpf(s), mpmath.mpf(1) / d
    if s > 20:
        return sum(mpmath.fac2(2 * k - 1) / s ** (2 * k + 1) for k in range(30))
    inside = d * (mpmath.ncdf(c - s) - mpmath.ncdf(-c - s))
    cuts = sorted({c} | {x for x in (s - 5, s, s + 5, s + 10, s + 20, s + 40) if x > c})
    return inside + mpmath.quad(lambda y: (mpmath.npdf(y - s) + mpmath.npdf(y + s)) / y,
                                cuts + [mpmath.inf])


def _assert_oracle(got, want):
    assert not np.any(np.isnan(got))
    for g, w in zip(got, want):
        if math.isinf(w):
            assert g == w
        else:
            assert abs(g - w) <= 1e-12 * abs(w), (g, w)


class TestBatchedKernels:
    @pytest.mark.parametrize("p", ORACLE_P)
    def test_lambda_p_oracle(self, p):
        s = np.array(sorted(set().union(*(_grid(d) for d in ORACLE_D))))
        with mpmath.workdps(30):
            want = [float(_mp_lambda(p, v)) for v in s]
        _assert_oracle(_lambda_p_batch(p, s), want)

    @pytest.mark.parametrize("d", ORACLE_D)
    def test_mu_tilde_oracle(self, d):
        s = _grid(d)
        with mpmath.workdps(30):
            want = [float(_mp_mu_tilde(d, v)) for v in s]
        _assert_oracle(_mu_tilde_batch(d, s), want)

    def test_log_mean_oracle(self):
        s = np.array(sorted(set().union(*(_grid(d) for d in ORACLE_D))))
        with mpmath.workdps(30):
            want = [float(_mp_log_mean(v)) for v in s]
        _assert_oracle(_log_mean_batch(s), want)

    def test_no_nan_to_the_largest_double(self):
        s = np.array([1e154, 1.35e154, 1e200, 1e308, np.finfo(float).max])
        for p in ORACLE_P + (7.0, 40.0):
            v = _lambda_p_batch(p, s)
            assert np.all((v > 0) & ~np.isnan(v))
            assert np.all(np.isfinite(v)) if p < 0 else np.all(v[1:] >= v[:-1])
        assert np.all(np.isfinite(_log_mean_batch(s)))
        assert np.all((_mu_tilde_batch(10**6, s) >= 0) & np.isfinite(_mu_tilde_batch(10**6, s)))

    def test_closed_forms_at_zero(self):
        # the s = 0 branch is the closed form through pmean.special's erf and
        # exp1, and within 4e-16 of its 40-digit value
        from pmean.special import erf, exp1
        for d in (1, 2, 7, 100, 10**4, 10**6):
            want = d * erf(1 / (d * math.sqrt(2))) + exp1(0.5 / d / d) / math.sqrt(2 * math.pi)
            assert mu_tilde(d, 0.0) == want
            assert limit_law(-1.0, d).center == want
            with mpmath.workdps(40):
                exact = (d * mpmath.erf(1 / (d * mpmath.sqrt(2)))
                         + mpmath.e1(mpmath.mpf(0.5) / d / d) / mpmath.sqrt(2 * mpmath.pi))
            assert abs(want - exact) <= 4e-16 * exact
        assert log_moment(1, 0.0) == LOG_MEAN_ZERO == -(EULER + math.log(2)) / 2
        law = limit_law(0.0, 100)
        assert law.center == LOG_MEAN_ZERO
        assert law.scale == math.sqrt(100 * LOG_VAR_ZERO) and LOG_VAR_ZERO == math.pi ** 2 / 8

    def test_shape_and_sign(self):
        s = np.array([[0.5, -0.5], [-3.0, 20.0]])
        for kernel in (lambda v: _lambda_p_batch(0.5, v), lambda v: _mu_tilde_batch(50, v),
                       _log_mean_batch):
            out = kernel(s)
            assert out.shape == s.shape
            assert np.array_equal(out, kernel(np.abs(s)))
            assert np.ndim(kernel(1.5)) == 0

    def test_agrees_with_adaptive_quadrature(self):
        # gauss_expect integrates the defining integrands on another method
        for s in (0.0, 0.4, 2.5, 8.0):
            assert abs(float(_lambda_p_batch(-0.6, s))
                       - gauss_expect(lambda y: abs(y) ** -0.6, s, points=(0.0,))) < 1e-9
            assert abs(float(_mu_tilde_batch(30, s)) - gauss_expect(
                lambda y: min(1.0 / abs(y), 30.0) if y else 30.0, s,
                points=(-1 / 30, 0.0, 1 / 30))) < 1e-9
            assert abs(float(_log_mean_batch(s)) - gauss_expect(
                lambda y: math.log(abs(y)) if y else -math.inf, s, points=(0.0,))) < 1e-9

    def test_blocks_bound_memory(self):
        # 20000 distinct shifts: one rule over all of them at once would hold
        # arrays of 20000 x 281 doubles (45 MB each)
        import tracemalloc
        s = np.linspace(0.0, 12.0, 20_000)
        tracemalloc.start()
        try:
            _mu_tilde_batch(10**6, s)
            _log_mean_batch(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


# E|Z+s|^p against 40-digit mpmath for s from 0.1 to 1e8, with points on both
# sides of the seam where _lambda_p_batch passes from the 1F1 series to the
# asymptotic one: within 4e-15 relative for p <= 30 and 1e-14 beyond, wherever
# the value is a normal double.
WIDE_P = (-0.99, -0.7, -0.3, 0.25, 1.0, 3.0, 7.3, 25.5, 50.2, 100.7, 149.0)


def _seam(p):
    """The shift past which _lambda_p_batch no longer sums the 1F1 series."""
    from pmean import moments
    calls = []

    def near(s):
        calls.clear()
        _lambda_p_batch(p, s)
        return bool(calls)

    kummer = moments._kummer
    moments._kummer = lambda p, s: calls.append(s) or kummer(p, s)
    try:
        lo, hi = 0.1, 1e3
        assert near(lo) and not near(hi)
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if near(mid) else (lo, mid)
    finally:
        moments._kummer = kummer
    return hi


@pytest.mark.parametrize("p", WIDE_P)
def test_lambda_p_wide_oracle(p):
    seam = _seam(p)
    s = np.concatenate([np.geomspace(0.1, 1e8, 81), np.linspace(0.1, 12.0, 60),
                        seam * (1.0 + np.array([-1e-2, -1e-9, 0.0, 1e-9, 1e-2]))])
    bound = 4e-15 if p <= 30.0 else 1e-14
    got = _lambda_p_batch(p, s)
    worst = 0.0
    with mpmath.workdps(40):
        for g, v in zip(got, s):
            want = _mp_lambda(p, v)
            if want <= np.finfo(float).max:
                worst = max(worst, float(abs(g - want) / want))
            else:
                assert g == math.inf
    assert worst <= bound, worst


def test_lambda_p_series_cover_the_domain():
    # for p in (-1, 301.16), where lambda_p(0) is a double, the asymptotic series
    # takes every shift past 10.25, so the 1F1 series, which starts from e^-s^2/2,
    # never raises AccuracyError; values are finite, or +inf past the doubles
    s = np.concatenate([np.arange(0.0, 60.0, 0.25), np.geomspace(60.0, 1e300, 40)])
    for p in np.concatenate([np.arange(-0.99, 10.0, 0.07), np.arange(10.0, 301.0, 1.37)]):
        v = _lambda_p_batch(p, s)
        assert np.all((v > 0.0) & ~np.isnan(v)), p


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
    """``extended_p`` and ``regime_of``: the exponent as a plain float."""

    def test_regimes_exhaustive(self):
        cases = {
            -math.inf: Regime.NEG_INF, -3.0: Regime.BELOW_NEG_ONE, -1.0: Regime.NEG_ONE,
            -0.7: Regime.NEG_ONE_TO_NEG_HALF, -0.5: Regime.NEG_HALF,
            -0.2: Regime.NEG_HALF_TO_ZERO, 0.0: Regime.ZERO, 1.5: Regime.ZERO_TO_INF,
            math.inf: Regime.POS_INF,
        }
        for v, reg in cases.items():
            assert regime_of(extended_p(v)) is reg

    def test_boundary_snap_warns(self):
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            v = extended_p(-0.5 + 1e-14)
        assert v == -0.5 and type(v) is float
        assert any("snapped" in str(x.message) for x in w)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            extended_p(float("nan"))


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
            ks = [regime_row(p, 0.05, d).kappa for d in (10, 100, 1000)]
            assert all(type(k) is float for k in ks)
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

    def test_power_at_the_ends_of_the_doubles(self):
        # R = 0 (every e^-s^2/2 underflowed, or no shift), subnormal, and the
        # largest R of the row: 1 on the two exponential rows, inf elsewhere
        for p in (-math.inf, -8.0, -2.0, -1.0, -0.7, -0.5, -0.25, 0.0, 1.0, 3.0, math.inf):
            row = regime_row(p, 0.05, 100)
            top = 1.0 if row.f_at_zero == 1.0 else math.inf
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                powers = [row.power(R) for R in (0.0, 5e-324, top)]
            assert all(0.0 <= x <= 1.0 for x in powers), (p, powers)
            # the exponential rows' R falls as the shift grows
            assert powers[2 if top == 1.0 else 0] == pytest.approx(0.05), (p, powers)

    def test_shift_sum_deduplicates(self):
        row = regime_row(3.0, 0.05, 8)
        theta = np.array([0.5, -0.5, 0.0, 1.5, -1.5, 1.5, 0.0, 0.5])
        calls = []
        traced = dataclasses.replace(row, f=lambda s: calls.append(np.size(s)) or row.f(s))
        want = sum(float(row.f(abs(v))) for v in theta)
        assert abs(traced.shift_sum(level_set(theta))(1.0) - want) < 1e-12 * want
        assert calls == [3]

    @pytest.mark.parametrize("p", [-0.7, -0.5, -0.25, 0.5, 1.0, 3.0])
    def test_lambda_rows_relative_near_zero(self, p):
        # f = |lambda_p(s) - lambda_p(0)| keeps its relative accuracy as s -> 0,
        # where the difference of the two moments cancels to eps / (|p| s^2):
        # against 40-digit mpmath, to a bound of 2e-15 fixed before the run
        s = np.array([1e-2, 1e-3, 1e-5, 1e-7, 1e-9])
        got = regime_row(p, 0.05, 1000).f(s)
        with mpmath.workdps(40):
            want = [abs(_mp_lambda(p, v) - _mp_lambda(p, 0)) for v in s]
            err = [float(abs(g - w) / w) for g, w in zip(got, want)]
        assert max(err) <= 2e-15, err
        zero = float(regime_row(p, 0.05, 1000).f(0.0))
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0

    def test_log_row_relative_near_zero(self):
        # the p = 0 twin: f = E ln|Z+s| - E ln|Z| cancels to eps / s^2 as well,
        # and is held to the same bound of 2e-15 against 40-digit mpmath
        s = np.array([0.0999, 1e-2, 1e-3, 1e-5, 1e-7, 1e-9])
        got = regime_row(0.0, 0.05, 1000).f(s)
        with mpmath.workdps(40):
            want = [_mp_log_mean(v) - _mp_log_mean(0) for v in s]
            err = [float(abs(g - w) / w) for g, w in zip(got, want)]
        assert max(err) <= 2e-15, err
        zero = float(regime_row(0.0, 0.05, 1000).f(0.0))
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0

    @pytest.mark.parametrize("d", [10, 1000, 10**6])
    def test_mu_tilde_row_relative_near_zero(self, d):
        # the p = -1 twin: f = mu_tilde_d(0) - mu_tilde_d(s) cancels to eps / s^2,
        # and is held to the same bound of 2e-15 against 40-digit mpmath
        s = np.array([0.0999, 1e-2, 1e-3, 1e-5, 1e-7, 1e-9])
        got = regime_row(-1.0, 0.05, d).f(s)
        with mpmath.workdps(40):
            want = [_mp_mu_tilde(d, 0) - _mp_mu_tilde(d, v) for v in s]
            err = [float(abs(g - w) / w) for g, w in zip(got, want)]
        assert max(err) <= 2e-15, err
        zero = float(regime_row(-1.0, 0.05, d).f(0.0))
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0

    def test_alpha_beta_validation(self):
        with pytest.raises(DomainError):
            regime_row(1.0, 0.95, 10).K(0.05)

    def test_neg_half_needs_d_at_least_2(self):
        with pytest.raises(DomainError, match="vanishes at d=1"):
            regime_row(-0.5, 0.05, 1)
        assert regime_row(-0.5, 0.05, 2).kappa > 0.0

    def test_b_p(self):
        assert b_p(-1.0) == -SQRT_2_OVER_PI
        assert abs(b_p(-2.0) - SQRT_2_OVER_PI) < 1e-15
        with pytest.raises(DomainError):
            b_p(-0.3)


# p = +-10^-k: the CLT rows on either side of p = 0 approach the log row
NEAR_ZERO = [sign * 10.0 ** -k for k in range(3, 12) for sign in (1.0, -1.0)]


class TestNearZeroExponent:
    @pytest.mark.parametrize("d", [59, 1000, 10 ** 6])
    def test_critical_value_tends_to_the_log_row(self, d):
        # the truncation is O(p); the root m^(1/p) carries eps / |p| of rounding
        c0 = regime_row(0.0, 0.05, d).critical()
        for p in NEAR_ZERO:
            c = regime_row(p, 0.05, d).critical()
            assert abs(c / c0 - 1.0) <= abs(p) + 1e-15 / abs(p), (p, c, c0)

    @pytest.mark.parametrize("d", [59, 1000, 10 ** 6])
    def test_scale_tends_to_p_times_the_log_scale(self, d):
        # sd |Z|^p = |p| sd ln|Z| (1 + O(p)), from Var |Z|^p = lambda_p(0)^2 (r(p) - 1)
        s0 = limit_law(0.0, d).scale
        for p in NEAR_ZERO:
            ratio = limit_law(p, d).scale / (abs(p) * s0)
            assert abs(ratio - 1.0) <= 2.0 * abs(p), (p, ratio)

    def test_clt_variance_is_the_moment_difference(self):
        # away from p = 0 the r(p) form agrees with lambda_2p(0) - lambda_p(0)^2
        for p in (-0.45, -0.3, 0.5, 1.0, 3.0, 7.5):
            var = limit_law(p, 1).scale ** 2
            want = lambda_p_zero(2.0 * p) - lambda_p_zero(p) ** 2
            assert abs(var / want - 1.0) < 1e-13, (p, var, want)
