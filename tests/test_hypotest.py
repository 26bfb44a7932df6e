import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from pmean import hypotest
from pmean.hypotest import (CriticalValue, InfeasibleError, TestPlan,
                            _power_sums,
                            as_shift_residual, as_shift_scale, critical_value, decide,
                            feasibility, pmean, pmean_rows, power_asymptotic,
                            sample_size)
from pmean.mc import empirical_critval
from pmean.moments import c_crit_inf, lambda_inf, regime_row
from pmean.numcore import BracketError, ConfigError, DomainError, RngStream

ALL_P = (-math.inf, -1.0, 0.0, 1.0, 2.0, 7.0, math.inf)
K2 = 4.652348614706696  # (ndtri(.95) - ndtri(.05)) sqrt(2)


class TestPMean:
    def test_examples(self):
        assert abs(pmean(2, (3, 4)) - math.sqrt(25 / 2)) < 1e-12
        assert pmean(-1, (1, 0)) == 0.0
        assert abs(pmean(0, (2, 8)) - 4.0) < 1e-12
        assert pmean(-math.inf, (3, -2, 5)) == 2.0
        assert pmean(math.inf, (3, -2, 5)) == 5.0

    def test_monotone_in_p(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = rng.integers(2, 12)
            v = rng.normal(size=d) * rng.uniform(0.1, 4.0)
            vals = [pmean(p, v) for p in ALL_P]
            for a, b in zip(vals, vals[1:]):
                assert a <= b + 1e-12

    def test_ones_vector(self):
        for d in (1, 2, 17):
            for p in ALL_P:
                assert abs(pmean(p, np.ones(d)) - 1.0) < 1e-12

    def test_spike_vector(self):
        d = 9
        spike = np.zeros(d)
        spike[0] = math.sqrt(d)
        for p in (2.0, 3.0, 10.0):
            assert abs(pmean(p, spike) - d ** ((p - 2) / (2 * p))) < 1e-12
        assert abs(pmean(math.inf, spike) - math.sqrt(d)) < 1e-12

    def test_zero_conventions(self):
        v = np.array([1.0, 0.0, 2.0])
        assert pmean(-0.5, v) == 0.0
        assert pmean(0.0, v) == 0.0
        assert pmean(0.5, v) > 0.0
        assert pmean(2.0, np.zeros(4)) == 0.0

    def test_infinite_coordinates(self):
        inf = math.inf
        assert pmean_rows(1, [[inf, 1.0]])[0] == inf
        assert pmean_rows(2, [[inf, 1.0]])[0] == inf
        assert pmean_rows(-1, [[inf, inf]])[0] == inf
        assert abs(pmean_rows(-1, [[inf, 4.0]])[0] - 8.0) < 1e-14
        # a zero coordinate still gives 0 at p < 0, next to an infinite one too
        assert pmean_rows(-2, [[0.0, inf]])[0] == 0.0
        assert pmean_rows(0.5, [[inf, 0.0]])[0] == inf
        rows = pmean_rows(3, [[inf, 1.0], [0.0, 0.0], [1.0, 2.0]])
        assert rows[0] == inf and rows[1] == 0.0 and abs(rows[2] - 4.5 ** (1 / 3)) < 1e-14
        # 2^(1/0.3) 1.7e308 is past the doubles: inf, not the NaN of inf - inf in
        # the root's correction term
        assert pmean_rows(-0.3, [[inf, 1.7e308]])[0] == inf

    def test_overflow_safe(self):
        v = np.array([1e-280, 2e-300, 5e-290])
        out = pmean(-2.0, v)
        assert np.isfinite(out) and out > 0

    def test_rows_match_scalar(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 5))
        for p in ALL_P:
            rows = pmean_rows(p, x)
            for i in range(6):
                assert abs(rows[i] - pmean(p, x[i])) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            pmean(2, [])


def _oracle_power_sum(p, row):
    """sum_j |x_j|^p of a row of finite doubles in 100-bit mpmath arithmetic
    (raw libmp): each distinct |x_j|^p times its count."""
    a = np.abs(np.asarray(row, dtype=float))
    prec, pm = 100, libmp.from_float(p)
    s = libmp.fzero
    for x, n in zip(*(v.tolist() for v in np.unique(a[np.isfinite(a)], return_counts=True))):
        term = libmp.mpf_pow(libmp.from_float(x), pm, prec)
        s = libmp.mpf_add(s, libmp.mpf_mul(term, libmp.from_int(n), prec), prec)
    return s


def _oracle_pmean(p, row):
    """The p-mean of a row of doubles to 30 digits, from ``_oracle_power_sum``."""
    a = np.abs(np.asarray(row, dtype=float))
    if p < 0 and np.any(a == 0.0):
        return 0.0
    if p > 0 and np.any(a == math.inf):
        return math.inf
    s = _oracle_power_sum(p, a)
    if s == libmp.fzero:
        return math.inf if p < 0 else 0.0
    prec, pm = 100, libmp.from_float(p)
    mean = libmp.mpf_div(s, libmp.from_int(a.size), prec)
    return libmp.to_float(libmp.mpf_pow(mean, libmp.mpf_div(libmp.fone, pm, prec), prec))


def _exp_log_tol(v):
    """Relative error allowance for a p-mean v: 1e-14, plus the error of
    e^(ln v) that the geometric mean (p = 0) carries at large |ln v|."""
    return 1e-14 + 2.3e-16 * abs(math.log(v)) if 0.0 < v < math.inf else 0.0


KERNEL_P = (-3.0, -2.0, -1.0, -0.7, -0.5, -0.3, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 7.0)
SORTED_P = (-math.inf, -3.0, -2.0, -1.0, -0.5, -0.3, 0.0, 0.3, 0.5, 0.7, 1.0, 2.0, 3.0,
            math.inf)
# |x|^p stays within the double range for |p| <= 3, so every row is summed directly
MODERATE = st.one_of(st.just(0.0), st.floats(1e-90, 1e90), st.floats(-1e90, -1e-90))
MODERATE_ROW = st.lists(MODERATE, min_size=1, max_size=40)
# exponents whose terms leave the double range on rows of ordinary values
WIDE_P = (-171.0, -20.0, 20.0, 171.0)
FULL_RANGE = st.one_of(st.sampled_from([0.0, math.inf, 5e-324, 1.7e308]),
                       st.floats(0.0, 1.7e308), st.floats(-1.7e308, -0.0))
FULL_RANGE_ROW = st.lists(FULL_RANGE, min_size=1, max_size=30)


def _close(a, b, rel):
    return a == b or abs(a - b) <= rel * abs(b)


class TestKernel:
    """The row kernel: direct power sums, summed again after an exact
    power-of-two rescale on rows whose terms over- or underflow."""

    @settings(max_examples=100, deadline=None)
    @given(MODERATE_ROW)
    def test_nondecreasing_in_p(self, row):
        vals = [pmean(p, row) for p in SORTED_P]
        for a, b in zip(vals, vals[1:]):
            assert a <= b * (1.0 + _exp_log_tol(b)), vals

    @settings(max_examples=100, deadline=None)
    @given(MODERATE_ROW, st.randoms(use_true_random=False), st.sampled_from(SORTED_P))
    def test_permutation_and_sign_invariant(self, row, rnd, p):
        moved = [x if rnd.random() < 0.5 else -x for x in row]
        rnd.shuffle(moved)
        want = pmean(p, row)
        assert pmean(p, [-x for x in row]) == want
        assert _close(pmean(p, moved), want, _exp_log_tol(want))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-80, 1e80)), min_size=1, max_size=40),
           st.floats(1e-10, 1e10), st.sampled_from(SORTED_P))
    def test_positively_homogeneous(self, row, c, p):
        want = c * pmean(p, row)
        got = pmean(p, [c * x for x in row])
        assert _close(got, want, 1e-14 if p != 0.0 else _exp_log_tol(want))

    @pytest.mark.parametrize("d", [10, 1000, 1_000_000])
    def test_gaussian_rows_against_mpmath(self, d):
        rng = np.random.default_rng(d)
        if d < 10**6:
            z = rng.standard_normal((3, d))
        else:
            # resampled from 2e4 Gaussian draws, so the oracle meets each value once
            z = rng.standard_normal(20_000)[rng.integers(20_000, size=(1, d))]
        for p in (-2.0, -0.5, 0.7, 1.0, 2.0, 3.0):
            for got, row in zip(pmean_rows(p, z), z):
                want = _oracle_pmean(p, row)
                assert abs(got - want) <= 1e-15 * want, (p, got, want)

    EDGE_ROWS = [
        [0.0, 1.3, 2.0], [math.inf, 0.4, 2.0], [0.0, math.inf, 1.0], [5e-324, 1.0, 2.5],
        [1e300, 1.0, 2.5], [1e300, 3e299, 1e300], [-5e-324, 5e-324, 1e-320],
        [1e-200] * 3, [0.0] * 3, [math.inf] * 3, [1e-170, 3e-160, 2e-175],
        [1e170, 3e160, 2e175], [1e-120, 5e-130, 1e300],
    ]

    @pytest.mark.parametrize("p", KERNEL_P + WIDE_P)
    def test_edge_rows(self, p):
        """Every edge row, summed directly or rescaled by a power of two, is
        within 1e-15 of the oracle (and within one subnormal step of it, where
        the p-mean is subnormal)."""
        x = np.array(self.EDGE_ROWS)
        for g, row in zip(pmean_rows(p, x), x):
            want = _oracle_pmean(p, row)
            assert g == want or abs(g - want) <= 1e-15 * want + 5e-324, (p, row, g, want)
        a = np.abs(x)
        must = np.all(a == 0.0, axis=1) | np.all(a == math.inf, axis=1)
        must |= np.any(a == 0.0, axis=1) if p < 0 else np.any(a == math.inf, axis=1)
        # every term underflows: the row of small values at large p, and vice versa
        must[[7, 10] if p >= 3 else [11] if p <= -3 else []] = True
        k = _power_sums(p, a, np.empty_like(a))[1]
        assert np.all(k[must] != 0), k

    @settings(max_examples=300, deadline=None)
    @given(FULL_RANGE_ROW, st.sampled_from([p for p in KERNEL_P + WIDE_P if abs(p) >= 0.5]))
    def test_full_range_rows_against_mpmath(self, row, p):
        # zeros, infinities, subnormals and values up to 1.7e308: to a bound of
        # 2e-15 fixed before the run.  At |p| = 0.3 no term leaves the doubles,
        # and the root multiplies the direct sum's rounding by 1/|p|: 21 equal
        # coordinates are off by 2.0e-15
        got, want = pmean(p, row), _oracle_pmean(p, row)
        assert got == want or abs(got - want) <= 2e-15 * want + 5e-324, (got, want)

    @pytest.mark.parametrize("p", KERNEL_P + WIDE_P)
    def test_power_sums_against_mpmath(self, p):
        """2^(-k p) s is sum_j |x_j|^p wherever that sum is a normal double."""
        rng = np.random.default_rng(5)
        # |x|^p = 2^u with u uniform over the exponents that keep x a double
        # (summed directly) and, where |p| >= 1 lets x reach them, over
        # (-1020, -962), whose sums are normal doubles below 2^-960 (rescaled)
        top = 1015.0 * min(1.0, abs(p))
        us = [rng.uniform(-top, top, 5) for _ in range(20)]
        us += [rng.uniform(-1020.0, -962.0, 5) for _ in range(20 if abs(p) >= 1 else 0)]
        rows = self.EDGE_ROWS + [list(np.exp2(u / p)) for u in us]
        checked = rescaled = 0
        for row in rows:
            a = np.abs(np.array([row]))
            if not np.all((a > 0.0) & (a < math.inf)):
                continue
            (s,), (k,), _ = _power_sums(p, a, np.empty_like(a))
            want = libmp.to_float(_oracle_power_sum(p, a))
            if not 2.0 ** -1022 <= want < math.inf:
                continue
            kp = libmp.mpf_mul(libmp.from_int(-int(k)), libmp.from_float(p))   # exact
            scale = libmp.mpf_pow(libmp.from_int(2), kp, 100)
            got = libmp.to_float(libmp.mpf_mul(libmp.from_float(float(s)), scale, 100))
            assert abs(got - want) <= 1e-15 * want, (p, row, got, want)
            checked += 1
            rescaled += k != 0
        assert checked >= 20 and rescaled >= (20 if abs(p) >= 1 else 0)

    def test_rescale_range(self):
        # 2^k puts the dominant coordinate in [1/2, 1), so its term lies in
        # [2^-p, 1] at p > 0 and [1, 2^|p|] at p < 0: within the doubles up to
        # |p| = 960; past that the row is divided by the dominant coordinate
        for p in (960.0, -960.0, 171.0, -171.0):
            for row in ([0.5, 0.5], [1e-300, 3e-301], [1e300, 0.75]):
                want = _oracle_pmean(p, row)
                assert abs(pmean(p, row) - want) <= 1e-15 * want, (p, row)
        for p in (1e4, -1e4, 1100.0):
            want = _oracle_pmean(p, [0.5, 0.5])
            assert abs(pmean(p, [0.5, 0.5]) - want) <= 1e-15 * want, p
        assert pmean(1e4, [0.5, 0.5]) == 0.5
        assert pmean(1e4, [1.0, 0.5]) == pytest.approx(2.0 ** -1e-4)

    def test_zero_and_infinite_results_exact(self):
        assert pmean(-2.0, [0.0, math.inf]) == 0.0
        assert pmean(2.0, [0.0, math.inf]) == math.inf
        assert pmean(-0.5, [math.inf, math.inf]) == math.inf
        assert pmean(0.7, [0.0, 0.0]) == 0.0


class TestDecide:
    def test_strictness(self):
        assert decide(2, 1.9, 4, (1.0, 1.0)) is True
        assert decide(2, 2.0, 4, (1.0, 1.0)) is False
        assert decide(-1, 0.5, 9, (1.0, 0.0, 3.0)) is False

    def test_scale_consistency(self):
        # homogeneity: scaling the mean and the critical value together
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=4)
            c = rng.uniform(0.1, 2.0)
            t = rng.uniform(0.1, 5.0)
            for p in ALL_P:
                assert decide(p, c, 9, x) == decide(p, c * t, 9, t * x)

    def test_bad_n(self):
        with pytest.raises(DomainError):
            decide(2, 1.0, 0, (1.0,))


class TestCriticalValue:
    def test_asymptotic_examples(self):
        assert abs(critical_value(2, 100, 0.05).value - 1.110233052442295) < 1e-12
        assert abs(critical_value(math.inf, 100, 0.05).value - 3.532537523990822) < 1e-12
        assert abs(critical_value(-math.inf, 10**4, 0.05).value - 3.7545936e-4) < 1e-10

    def test_mc_deterministic(self):
        a = critical_value(1.0, 50, 0.05, method="mc", reps=5000, rng=RngStream(1, 0))
        b = critical_value(1.0, 50, 0.05, method="mc", reps=5000, rng=RngStream(1, 0))
        assert a.value == b.value

    def test_mc_is_empirical_critval(self):
        cv = critical_value(3.0, 100, 0.05, method="mc", reps=20_000, rng=RngStream(1, 0))
        r = empirical_critval(3.0, 100, 0.05, 20_000, RngStream(1, 0), threads=2)
        assert (cv.value, cv.half_width, cv.reps) == (r.estimate, r.half_width, r.reps)

    def test_mc_agrees_with_asymptotic(self):
        # desk-scale agreement: CI plus the regime's finite-d error
        for p in (-2.0, -0.5, 0.0, 1.0, 2.0, math.inf):
            asym = critical_value(p, 200, 0.05).value
            mc = critical_value(p, 200, 0.05, method="mc", reps=60_000, rng=RngStream(8, 0))
            assert abs(mc.value - asym) <= 5 * mc.half_width + 0.03 * abs(asym)

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            critical_value(2, 10, 0.05, method="mc", reps=500)
        with pytest.raises(ConfigError):
            critical_value(2, 10, 0.05, method="bogus")
        with pytest.raises(DomainError):
            critical_value(2, 10, 1.5)


class TestPower:
    def test_alpha_at_zero_shift(self):
        for p in (-math.inf, -2.0, -1.0, -0.7, -0.5, -0.25, 0.0, 1.0, 2.0, math.inf):
            assert abs(power_asymptotic(p, 60, 0.05, np.zeros(60)) - 0.05) < 1e-9

    def test_p2_values(self):
        s = np.zeros(100)
        s[:47] = 1.0
        assert abs(power_asymptotic(2, 100, 0.05, s) - 0.9533799397620569) < 1e-9
        s_exact = np.full(100, math.sqrt(K2 * 10.0 / 100.0))
        assert abs(power_asymptotic(2, 100, 0.05, s_exact) - 0.95) < 1e-9

    def test_monotone_in_scale(self):
        base = np.full(50, 0.4)
        for p in (-0.7, 0.0, 1.0, 3.0):
            vals = [power_asymptotic(p, 50, 0.05, t * base) for t in (0.5, 1.0, 1.5)]
            assert vals[0] < vals[1] < vals[2]

    def test_zero_coordinates_ok_for_negative_p(self):
        s = np.zeros(40)
        s[:20] = 1.0
        assert 0.0 < power_asymptotic(-2.0, 40, 0.05, s) < 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            power_asymptotic(2, 10, 0.05, np.zeros(9))

    def test_infinite_rows_at_huge_shifts(self):
        # p = +inf: ln Phi(c - s) and ln Phi(-c - s) round to one double from
        # s ~ 8.4e16 and are both -inf past 1.9e154, where ln(e^hi - e^lo) was
        # inf or NaN; p = -inf: e^(-s^2/2) squared s past 1e154 with a warning
        # (warnings are errors in this suite)
        assert power_asymptotic(math.inf, 2, 0.05, np.array([2e154, 0.0])) == 1.0
        assert power_asymptotic(-math.inf, 2, 0.05, np.array([1e200, 1e200])) == 1.0
        c = c_crit_inf(1000, 0.05)
        for s in (1e17, 1e100):
            with mpmath.workdps(40):
                u = mpmath.mpf(s) - mpmath.mpf(c)
                want = u * u / 2 + mpmath.log(u) + mpmath.log(2 * mpmath.pi) / 2
            assert abs(lambda_inf(1000, 0.05, s) - want) <= 1e-15 * want


class TestSampleSize:
    def test_p2_closed_form(self):
        theta = np.zeros(100)
        theta[0] = 1.0
        assert sample_size(TestPlan(2.0, 100, 0.05, 0.95, theta)) == 47

    def test_quadratic_scaling(self):
        theta = np.zeros(100)
        theta[0] = 0.5
        assert sample_size(TestPlan(2.0, 100, 0.05, 0.95, theta)) == 187

    def test_infeasible_spike(self):
        theta = np.zeros(100)
        theta[0] = 1.0
        with pytest.raises(InfeasibleError) as exc:
            sample_size(TestPlan(-2.0, 100, 0.05, 0.95, theta))
        assert abs(exc.value.threshold - 3.1994) < 0.01
        assert exc.value.d0 == 99
        assert "d_0=99 exceeds threshold 3.199" in str(exc.value)

    def test_consistency_at_solved_n(self):
        # power at the returned n within [beta - 0.01, beta + 0.01]; p = -1 is
        # infeasible at d = 1e4 (sup of the shift sum sits below K_{-1} d) and
        # must raise
        d = 10**4
        theta = np.full(d, 0.02)
        for p in (-math.inf, -2.0, -0.7, -0.5, -0.25, 0.0, 1.0, 2.0, 3.0, math.inf):
            plan = TestPlan(p, d, 0.05, 0.95, theta)
            n = sample_size(plan)
            pw = power_asymptotic(p, d, 0.05, math.sqrt(n) * theta)
            assert 0.94 <= pw <= 0.96, (p, n, pw)
        with pytest.raises(InfeasibleError) as exc:
            sample_size(TestPlan(-1.0, d, 0.05, 0.95, theta))
        # the threshold is negative: even d_0 = 0 falls short, and the message
        # names the shortfall K kappa / f_sup > d rather than d_0
        thr = exc.value.threshold
        assert thr < 0 and exc.value.d0 == 0
        assert (f"no direction reaches beta=0.95 at d={d}, since "
                f"K*kappa/f_sup = {d - thr:.6g} > d") in str(exc.value)

    def test_shift_scale_exact_beta(self):
        d = 400
        theta = np.full(d, 0.1)
        plan = TestPlan(2.0, d, 0.05, 0.95, theta)
        t = as_shift_scale(plan)
        assert abs(power_asymptotic(2.0, d, 0.05, t * theta) - 0.95) < 1e-9

    def test_p0_spike_beyond_2_to_the_200(self):
        # f_0 grows like ln s, so the root lies near 1e120: the bracket must
        # grow for as long as t max|theta| stays finite
        d = 10_000
        theta = np.zeros(d)
        theta[0] = 0.5
        plan = TestPlan(0.0, d, 0.05, 0.8, theta)
        t = as_shift_scale(plan)
        assert 2.0 ** 200 < t < 1e121
        assert abs(as_shift_residual(0.0, d, 0.05, 0.8, t * theta)) < 1e-9
        n = sample_size(plan)
        assert abs(power_asymptotic(0.0, d, 0.05, math.sqrt(n) * theta) - 0.8) < 1e-9

    def test_shift_scale_positive_in_every_regime(self):
        # the exponential rows (p < -1, p = -inf) have shift sums that
        # decrease in t; every row's root still lies at t > 0
        d = 10_000
        theta = np.ones(d)
        for p in (-math.inf, -2.0, -1.0, -0.7, -0.5, -0.25, 0.0, 1.0, math.inf):
            t = as_shift_scale(TestPlan(p, d, 0.05, 0.8, theta))
            assert t > 0.0, p
            assert abs(as_shift_residual(p, d, 0.05, 0.8, t * theta)) < 1e-9, p

    def test_p0_spike_out_of_range_raises_cleanly(self):
        # the root lies past the largest finite t: widening stops at 2^1023,
        # with no overflow warning from a step beyond it
        d = 10**6
        theta = np.zeros(d)
        theta[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BracketError) as exc:
                as_shift_scale(TestPlan(0.0, d, 0.05, 0.8, theta))
        assert repr(2.0 ** 1023) in str(exc.value)


class TestFeasibility:
    def test_nonnegative_p_always_feasible(self):
        u = np.zeros(30)
        u[0] = 1.0
        assert feasibility(TestPlan(1.0, 30, 0.05, 0.95, u)).feasible

    def test_negative_p_threshold(self):
        d = 1000
        u = np.ones(d)
        u[:10] = 0.0
        u = u / pmean(2, u)
        plan = TestPlan(-2.0, d, 0.05, 0.95, u)
        res = feasibility(plan)
        assert res.feasible and res.d0 == 10
        assert res.threshold == pytest.approx(0.0319938 * d, rel=1e-3)

    def test_zero_direction_infeasible(self):
        d = 64
        res = feasibility(TestPlan(-1.0, d, 0.05, 0.95, np.zeros(d)))
        assert not res.feasible and res.d0 == d

    def test_d0_counts_exact_zeros(self):
        for theta, d0 in (([3.0, 0.0, -4.0], 1), ([5e-324, 0.0, 0.0], 2),
                          ([1e308, -1e308, 0.0], 1)):
            assert feasibility(TestPlan(-2.0, 3, 0.05, 0.8, np.array(theta))).d0 == d0


class TestResidual:
    def test_zero_shift(self):
        # -K for the rows with f(0) = 0; the two exponential rows give 1 - K
        for p in (-1.0, -0.7, -0.5, -0.25, 0.0, 1.0, 2.0, math.inf):
            K = regime_row(p, 0.05, 50).K(0.95)
            r = as_shift_residual(p, 50, 0.05, 0.95, np.zeros(50))
            assert abs(r + K) < 1e-9
        for p in (-math.inf, -2.0):
            K = regime_row(p, 0.05, 50).K(0.95)
            r = as_shift_residual(p, 50, 0.05, 0.95, np.zeros(50))
            assert abs(r - (1.0 - K)) < 1e-9

    def test_p2_exact_zero(self):
        d = 100
        s = np.full(d, math.sqrt(K2 * math.sqrt(d) / d))
        assert abs(as_shift_residual(2, d, 0.05, 0.95, s)) < 1e-12

    def test_strictly_increasing_in_scale(self):
        d = 50
        base = np.full(d, 0.5)
        for p in (-0.7, 0.0, 1.0, 3.0):
            vals = [as_shift_residual(p, d, 0.05, 0.95, t * base) for t in (0.5, 1.0, 1.5)]
            assert vals[0] < vals[1] < vals[2]


class TestTypes:
    def test_shift_shape_rejected(self):
        # the shift must be a nonempty 1-D vector of dimension d
        for shift in (np.array([]), np.ones((2, 2)), np.ones(3)):
            with pytest.raises(DomainError):
                power_asymptotic(2.0, 4, 0.05, shift)
            with pytest.raises(DomainError):
                as_shift_residual(2.0, 4, 0.05, 0.8, shift)
        assert power_asymptotic(2.0, 4, 0.05, [1.0, 0.0, -2.0, 0.0]) > 0.05

    def test_snapped_p_warns_once(self):
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            cv = critical_value(-0.5 + 1e-14, 100, 0.05)
        assert [str(x.message).count("snapped") for x in w] == [1]
        assert cv.value == critical_value(-0.5, 100, 0.05).value

    def test_plan_p_is_float(self):
        with pytest.warns(UserWarning, match="snapped"):
            plan = TestPlan(-1.0 + 1e-13, 4, 0.05, 0.8, np.ones(4))
        assert plan.p == -1.0 and type(plan.p) is float

    def test_plan_validation(self):
        with pytest.raises(DomainError):
            TestPlan(2.0, 10, 0.95, 0.05, np.ones(10))
        with pytest.raises(DomainError):
            TestPlan(2.0, 10, 0.05, 0.95, np.ones(9))

    def test_plan_builds_one_regime_row(self, monkeypatch):
        built = []
        monkeypatch.setattr(hypotest, "regime_row",
                            lambda *args: built.append(args) or regime_row(*args))
        plan = TestPlan(3.0, 4, 0.05, 0.8, np.array([3.0, 0.0, -4.0, 1.0]))
        assert feasibility(plan).feasible and sample_size(plan) >= 1
        assert built == [(3.0, 0.05, 4)] and plan.row is plan.row

    def test_critical_value_float(self):
        cv = CriticalValue(1.5, "asymptotic")
        assert float(cv) == 1.5


# one exponent from each of the nine regimes, and both sides of p = 2
REGIME_P = st.sampled_from((-math.inf, -2.0, -1.0, -0.7, -0.5, -0.3, 0.0, 1.0, 2.0, 3.0,
                            math.inf))
LEVELS = st.lists(st.floats(0.05, 3.0), min_size=1, max_size=8)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(REGIME_P, st.integers(2, 5000), st.floats(0.01, 0.2))
    def test_power_is_alpha_at_zero_shift(self, p, d, alpha):
        assert abs(power_asymptotic(p, d, alpha, np.zeros(d)) - alpha) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(REGIME_P, st.integers(2, 300), st.floats(0.01, 0.2), LEVELS,
           st.floats(0.0, 4.0), st.floats(0.0, 4.0))
    def test_power_monotone_in_shift_scale(self, p, d, alpha, levels, t1, t2):
        theta = np.resize(np.array(levels), d)
        lo, hi = sorted((t1, t2))
        assert (power_asymptotic(p, d, alpha, lo * theta)
                <= power_asymptotic(p, d, alpha, hi * theta) + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(REGIME_P, st.integers(2, 300), LEVELS, st.floats(0.06, 0.99), st.floats(0.06, 0.99))
    def test_sample_size_monotone_in_beta(self, p, d, levels, b1, b2):
        # an infeasible beta counts as an infinite sample size
        theta = 0.05 * np.resize(np.array(levels), d)
        n = []
        for beta in sorted((b1, b2)):
            try:
                n.append(sample_size(TestPlan(p, d, 0.05, beta, theta)))
            except InfeasibleError:
                n.append(math.inf)
        assert n[0] <= n[1]
