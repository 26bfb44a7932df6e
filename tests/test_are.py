import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from pmean import are
from pmean.are import (DirectionSequence,
                       IndeterminateGrowthError, _prob_le, a_p, a_p_moment_route,
                       ap_curve, are_finite, attaining_sequence, block_sequence,
                       classify_are, equalized_sequence, gamma_ratio, orlicz_norm,
                       r1, r2, r3, spike_sequence, verify_ap_bound)
from pmean.hypotest import TestPlan, pmean, sample_size
from pmean.numcore import AccuracyError, BracketError, DomainError


def _r_tilde(i: int, p):
    """The Gamma-ratio cofactor with r = r_i r~_i of the factorization r_i."""
    p = np.asarray(p, dtype=float)
    if i == 1:
        ln = gammaln(1.5) + gammaln(p + 1.5) - 2.0 * gammaln((p + 1.0) / 2.0 + 1.0)
    elif i == 2:
        ln = gammaln(5.5) + gammaln(p + 3.5) - 2.0 * gammaln((p + 1.0) / 2.0 + 4.0)
    else:
        ln = gammaln(p / 2.0 + 2.25) + gammaln(p / 2.0 + 2.75) - 2.0 * gammaln((p + 1.0) / 2.0 + 2.0)
    return np.exp(ln)


class TestAp:
    def test_special_values(self):
        assert a_p(2.0) == 1.0
        assert a_p(0.0) == 2.0 / math.pi
        assert abs(a_p(3.0) - 0.9592465300772289) < 1e-12
        assert abs(a_p(1.0) - 1.0 / math.sqrt(math.pi - 2.0)) < 1e-12

    def test_extended_values(self):
        for p in (-0.5, -2.0, -math.inf, math.inf):
            assert a_p(p) == 0.0

    def test_in_unit_interval(self):
        for p in (-0.49, -0.25, 0.3, 1.0, 1.9, 2.1, 5.0, 30.0):
            assert 0.0 < a_p(p) < 1.0

    def test_continuity_at_zero(self):
        # a_p is analytic at 0 with slope 14 zeta(3) (2/pi)/pi^3 ~ 0.5428, so
        # the gap at +-eps scales linearly and symmetrically
        a0 = 2.0 / math.pi
        assert abs(a_p(1e-6) - a0) <= 1e-6
        assert abs(a_p(-1e-6) - a0) <= 1e-6
        assert abs(a_p(1e-8) - a0) <= 1e-8
        assert (a_p(1e-6) - a0) * (a_p(-1e-6) - a0) < 0.0

    def test_two_routes_agree(self):
        for p in (1.0, 3.0, -0.25, 0.7):
            assert abs(a_p(p) - a_p_moment_route(p)) < 1e-10


class TestApBound:
    def test_equalities_at_0_and_2(self):
        assert abs(gamma_ratio(2.0) - 3.0) < 1e-12
        assert abs(gamma_ratio(1e-18) - 1.0) < 1e-15

    def test_factorization_identities(self):
        for p in (-0.3, 0.7, 1.5, 2.5, 10.0):
            r = gamma_ratio(p)
            for i, ri in ((1, r1), (2, r2), (3, r3)):
                assert abs(r - float(ri(p)) * float(_r_tilde(i, p))) < 1e-10 * r

    def test_r_tilde_above_one(self):
        grid = np.array([-0.4, -0.1, 0.5, 1.0, 3.0, 2.5, 7.0])
        assert np.all(_r_tilde(1, grid[grid != 0]) > 1.0)
        assert np.all(_r_tilde(3, grid) > 1.0)

    def test_grid_verification(self):
        grid = np.arange(-0.45, 10.0, 0.01)
        grid = grid[(np.abs(grid) > 1e-9) & (np.abs(grid - 2.0) > 1e-9)]
        rep = verify_ap_bound(grid)
        assert rep.ok

    def test_no_violation_near_the_equality_points(self):
        # at p = +-10^-k and 2 +- 10^-k the margins are quadratic in the distance, far
        # below the rounding of r near 1 and 3: each within 1e-8 of 40-digit mpmath
        def partials(p):
            out = [(p + 1) ** 2 / (2 * p + 1), (p + 1) ** 2 / 3, 2 ** (p - mpmath.mpf(0.5))]
            for j in (1, 2, 3):
                out[1] *= ((p + 1) / 2 + j) ** 2 / ((mpmath.mpf(1.5) + j) * (p - 0.5 + j))
            for j in (0, 1):
                out[2] *= ((p + 1) / 2 + j) ** 2 / ((p / 2 + 0.25 + j) * (p / 2 + 0.75 + j))
            return out

        grid = [c + sg * 10.0 ** -k for k in range(1, 12) for c in (0.0, 2.0) for sg in (1, -1)]
        assert verify_ap_bound(grid).ok
        with mpmath.workdps(40):
            for p in grid:
                rep, mp_p = verify_ap_bound([p]), mpmath.mpf(p)
                bound = 1 + mp_p ** 2 / 2
                want_r = mpmath.sqrt(mpmath.pi) * mpmath.gamma(mp_p + 0.5) \
                    / mpmath.gamma((mp_p + 1) / 2) ** 2 - bound
                want_part = max(partials(mp_p)) - bound
                assert abs(rep.r_margin_min / want_r - 1) <= 1e-8, p
                assert abs(rep.partial_margin_min / want_part - 1) <= 1e-8, p

    def test_equality_points_rejected(self):
        with pytest.raises(DomainError):
            verify_ap_bound(np.array([0.5, 2.0]))


class TestApCurve:
    def test_rows(self):
        table = ap_curve([0.0, 1.0, 2.0, 3.0], with_transform=True)
        lookup = {row[0]: row for row in table}
        assert lookup[2.0][1] == 1.0
        assert abs(lookup[0.0][1] - 2.0 / math.pi) < 1e-15
        assert lookup[1.0][1] < 1.0 and lookup[3.0][1] < 1.0
        assert lookup[0.0][2] == 0.0  # psi(0) = 0


class TestOrlicz:
    def test_p0_spike_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert orlicz_norm(0.0, 0.05, 0.8, spike_sequence().probe(10**6)) == 0.0
            assert classify_are(0.0, spike_sequence(), 0.05, 0.8).tag == "zero"

    def test_equalized_scale(self):
        # ||1_d||_{p,2} / d^{1/4}: bounded; the p = 0 value is exactly
        # 1/(e sqrt(K_0)) = 0.1925 at (0.05, 0.95)
        for p in (-0.25, 0.0, 1.0):
            for d in (100, 10_000, 1_000_000):
                r = orlicz_norm(p, 0.05, 0.95, np.ones(d)) / d ** 0.25
                assert 0.15 <= r <= 5.0

    def test_p0_closed_form(self):
        from scipy.special import ndtri
        K0 = (ndtri(0.95) - ndtri(0.05)) * math.sqrt(math.pi ** 2 / 8.0)
        d = 10_000
        expected = d ** 0.25 / (math.e * math.sqrt(K0))
        assert abs(orlicz_norm(0.0, 0.05, 0.95, np.ones(d)) - expected) < 1e-6 * expected

    def test_spike_vanishes_for_negative_p(self):
        d = 1000
        v = np.zeros(d)
        v[0] = math.sqrt(d)
        assert orlicz_norm(-0.25, 0.05, 0.95, v) == 0.0

    def test_positive_homogeneous(self):
        rng = np.random.default_rng(5)
        for p in (-0.25, 0.0, 1.0, 1.7):
            v = rng.normal(size=40)
            n1 = orlicz_norm(p, 0.05, 0.95, v)
            n2 = orlicz_norm(p, 0.05, 0.95, 2.0 * v)
            assert abs(n2 - 2.0 * n1) < 1e-10 * max(1.0, n1)

    def test_schur2_monotone(self):
        # w^2 majorized by v^2 (same sum of squares) => ||w|| >= ||v||
        rng = np.random.default_rng(6)
        for p in (-0.25, 0.0, 1.0):
            for _ in range(50 if p != -0.25 else 10):
                w2 = rng.uniform(0.5, 2.0, size=4)
                v2 = w2.copy()
                i, j = rng.choice(4, size=2, replace=False)
                lo, hi = (i, j) if v2[i] < v2[j] else (j, i)
                t = rng.uniform(0.0, v2[lo])  # reverse Robin Hood transfer
                v2[hi] += t
                v2[lo] -= t
                nv = orlicz_norm(p, 0.05, 0.95, np.sqrt(v2))
                nw = orlicz_norm(p, 0.05, 0.95, np.sqrt(w2))
                assert nw >= nv - 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            orlicz_norm(2.0, 0.05, 0.95, np.ones(4))
        with pytest.raises(DomainError):
            orlicz_norm(-0.6, 0.05, 0.95, np.ones(4))


class TestClassify:
    def test_known_verdicts(self):
        v = classify_are(3.0, equalized_sequence(), 0.05, 0.95)
        assert v.tag == "finite" and abs(v.value - a_p(3.0)) < 1e-12
        v = classify_are(3.0, spike_sequence(), 0.05, 0.95)
        assert v.tag == "infinite"
        v = classify_are(2.0, spike_sequence(), 0.05, 0.95)
        assert v.tag == "finite" and v.value == 1.0

    def test_extremal_bracketing(self):
        # the equalized and spike verdicts bracket every other direction
        for p in (1.0, 3.0, math.inf):
            lo = classify_are(p, equalized_sequence(), 0.05, 0.95)
            hi = classify_are(p, spike_sequence(), 0.05, 0.95)
            mid = classify_are(p, block_sequence(0.9), 0.05, 0.95)
            order = {"zero": 0, "interval": 1, "finite": 1, "infinite": 2}
            if p >= 2.0:
                assert order[lo.tag] <= order[mid.tag] <= order[hi.tag]
            else:
                assert order[hi.tag] <= order[mid.tag] <= order[lo.tag]

    def test_negative_p_rows(self):
        assert classify_are(-0.25, spike_sequence(), 0.05, 0.95).tag == "zero"
        assert classify_are(-2.0, equalized_sequence(), 0.05, 0.95).tag == "zero"
        v = classify_are(0.5, block_sequence(1.0), 0.05, 0.95)
        assert v.tag == "finite"  # gamma = 1 block is the ones vector

    def test_interval_verdict(self):
        # a nearly-full block keeps ||u||_{p,2} of order d^{1/4} without being
        # perfectly equalized
        def gen(d):
            k = max(1, int(0.5 * d))
            u = np.zeros(d)
            u[:k] = math.sqrt(d / k)
            return u
        v = classify_are(1.0, DirectionSequence(gen), 0.05, 0.95)
        assert v.tag == "interval"
        assert v.interval == (0.0, a_p(1.0))

    def test_dead_band_indeterminate(self):
        with pytest.raises(IndeterminateGrowthError):
            classify_are(3.0, block_sequence(0.5), 0.05, 0.95)

    def test_probe_span_required(self):
        seq = DirectionSequence(lambda d: np.ones(d), probe_dims=(100, 200, 400))
        with pytest.raises(DomainError):
            classify_are(3.0, seq, 0.05, 0.95)

    def test_inf_row(self):
        assert classify_are(math.inf, spike_sequence(), 0.05, 0.95).tag == "infinite"
        assert classify_are(math.inf, equalized_sequence(), 0.05, 0.95).tag == "zero"

    @pytest.mark.parametrize("p, seq", [(2.0, spike_sequence()), (-1.0, spike_sequence()),
                                        (1.0, equalized_sequence()), (1.0, spike_sequence())])
    @pytest.mark.parametrize("alpha, beta", [(0.9, 0.8), (0.05, 1.5), (0.0, 0.8)])
    def test_alpha_beta_checked_on_every_path(self, p, seq, alpha, beta):
        # the p = 2, p <= -1/2 and equalized paths returned a verdict for any
        # alpha and beta: p = 1, alpha = 0.9, beta = 0.8 read a_1 = 0.9359
        with pytest.raises(DomainError, match=f"got alpha={alpha}, beta={beta}"):
            classify_are(p, seq, alpha, beta)


def _prob_le_d2_mpmath(p, v, c):
    """P(<Z + v>_p <= c) at d = 2 in 25-digit arithmetic: z_1 over the line,
    z_2 in closed form, split where the z_2 probability has a kink (the budget
    edge, z_1 = 0) or turns over (half-widths |v_2|, |v_2| +- 2 and +- 6)."""
    with mpmath.workdps(25):
        p, c = mpmath.mpf(p), mpmath.mpf(c)
        v1, v2 = mpmath.mpf(v[0]), abs(mpmath.mpf(v[1]))
        t = mpmath.log if p == 0 else (lambda x: x ** p)
        t_inv = mpmath.exp if p == 0 else (lambda b: b ** (1 / p))
        budget = 2 * t(c)

        def rest(z):
            b = budget - t(abs(z))
            if p != 0 and b <= 0:
                return mpmath.mpf(p < 0)
            g = t_inv(b)
            return mpmath.ncdf(g - v2) - mpmath.ncdf(-g - v2)

        lo, hi = v1 - 12, v1 + 12
        if p > 0:
            lo, hi = max(lo, -t_inv(budget)), min(hi, t_inv(budget))
        pts = [lo, hi, v1, 0] + ([t_inv(budget), -t_inv(budget)] if p else [])
        for g in (v2 - 6, v2 - 2, v2, v2 + 2, v2 + 6):
            if g > 0 and (p == 0 or budget - t(g) > 0):
                pts += [t_inv(budget - t(g)), -t_inv(budget - t(g))]
        pts = sorted(set(x for x in pts if lo <= x <= hi))
        return float(mpmath.quad(lambda z: mpmath.npdf(z - v1) * rest(z), pts))


class TestProbLe:
    @pytest.mark.parametrize("p", [-5.0, -2.0, -1.0, -0.7, -0.3, 0.0, 0.25, 0.5, 1.0, 3.0, 7.0])
    def test_d2_mpmath_oracle(self, p):
        # shifts from O(1) to |v| = 30, where the z_2 probability turns over in
        # a thin layer next to the budget edge unless the large shift goes
        # first; c near <v>_p keeps the probability away from 0 and 1
        rng = np.random.default_rng(int(100 * p) % 2**32)
        shifts = [rng.uniform(-2, 2, size=2), np.array([rng.uniform(-1, 1), 30.0]),
                  np.array([-28.0, rng.uniform(-4, 4)])]
        for v in shifts:
            c = max(pmean(p, v), 0.3) * rng.uniform(0.7, 1.3)
            assert abs(_prob_le(p, v, c) - _prob_le_d2_mpmath(p, v, c)) <= 1e-10, (v, c)

    def test_ncx2_oracle(self):
        # at p = 2 the region is a ball: noncentral chi-square closed form
        for d in (2, 3):
            rng = np.random.default_rng(d)
            for _ in range(5):
                v = rng.normal(size=d)
                c = rng.uniform(0.8, 2.0)
                exact = stats.ncx2.cdf(d * c * c, d, float(np.sum(v * v)))
                assert abs(_prob_le(2.0, v, c) - exact) < 1e-12

    def test_pinf_product(self):
        from scipy.special import ndtr
        v = np.array([0.3, -1.0, 0.7])
        c = 1.4
        exact = np.prod([ndtr(c - x) - ndtr(-c - x) for x in v])
        assert abs(_prob_le(math.inf, v, c) - exact) < 1e-12

    def test_minf_product(self):
        # <z>_{-inf} = min |z_j| <= c unless every |z_j| exceeds c
        from scipy.special import ndtr
        v = np.array([0.3, -1.0, 0.7])
        c = 0.4
        exact = 1.0 - np.prod([1.0 - (ndtr(c - x) - ndtr(-c - x)) for x in v])
        assert abs(_prob_le(-math.inf, v, c) - exact) < 1e-12

    def test_zero_c_is_null(self):
        for p in (-2.0, 0.0, 1.0, math.inf, -math.inf):
            assert _prob_le(p, np.zeros(3), 0.0) == 0.0

    def test_unresolved_window_is_accuracy_error(self):
        # near 1e16 the spacing of doubles is 2, so the rule's nodes in the
        # window around the shift collapse: the result left [0, 1] (1.09 at
        # 3e16) where the true value stays near P(|Z| <= c / sqrt 2), its
        # limit as the shift grows (within 1e-8 at 1e4)
        c = 1.3859
        limit = 2.0 * stats.norm.cdf(c / math.sqrt(2.0)) - 1.0
        assert abs(_prob_le(-2.0, np.array([1e4, 0.0]), c) - limit) < 1e-8
        for t in (2.0 ** 17, 3e16):
            with pytest.raises(AccuracyError, match="not resolved"):
                _prob_le(-2.0, np.array([t, 0.0]), c)


class TestAreFinite:
    def test_nan_p_rejected_before_solving(self, monkeypatch):
        monkeypatch.setattr(are, "find_root", lambda *a, **k: pytest.fail("solved first"))
        with pytest.raises(DomainError, match="NaN"):
            are_finite(float("nan"), 2, [1.0, 0.5], 0.05, 0.8)

    def test_reference_values_d2(self):
        assert abs(are_finite(1.0, 2, (1, 1), 0.05, 0.95) - 1.0317) < 2e-3
        assert abs(are_finite(2.1, 2, (math.sqrt(2), 0), 0.05, 0.95) - 1.00429) < 2e-3
        assert abs(are_finite(1.9, 2, (1, 1), 0.05, 0.95) - 1.00459) < 2e-3

    def test_rotation_symmetry(self):
        v1 = are_finite(math.inf, 2, (math.sqrt(2), 0), 0.05, 0.95)
        v2 = are_finite(1.0, 2, (1, 1), 0.05, 0.95)
        assert abs(v1 - v2) < 2e-3

    def test_p2_identity(self):
        assert abs(are_finite(2.0, 2, (0.6, 1.1), 0.05, 0.95) - 1.0) < 1e-9
        assert abs(are_finite(5.0, 1, (1.0,), 0.05, 0.95) - 1.0) < 1e-9

    def test_schur2_ordering_d2(self):
        eq, sp = (1.0, 1.0), (math.sqrt(2), 0.0)
        assert are_finite(1.0, 2, eq, 0.05, 0.95) >= are_finite(1.0, 2, sp, 0.05, 0.95)
        assert are_finite(3.0, 2, eq, 0.05, 0.95) <= are_finite(3.0, 2, sp, 0.05, 0.95)

    def test_d3(self):
        assert abs(are_finite(math.inf, 3, (1, 1, 1), 0.05, 0.95)
                   - are_finite(math.inf, 3, (0, math.sqrt(3), 0), 0.05, 0.95)) > 1e-3
        assert abs(are_finite(2.0, 3, (1, 1, 1), 0.05, 0.95) - 1.0) < 1e-7

    def test_no_root_is_an_error(self):
        # with a zero coordinate the power at p = -2 stays at 1 - 0.673 < beta
        # for every scale, so there is no root; it used to print 4.6e-34
        with pytest.raises((BracketError, AccuracyError)):
            are_finite(-2.0, 2, [1, 0], 0.05, 0.8)

    @pytest.mark.parametrize("p, u, limit", [
        (-2.0, [1, 0], 0.327095),
        (-math.inf, [1, 0, 0], 0.135721),
        (-3.0, [0, 2, 0], 0.164798),
    ])
    def test_power_limit_below_beta_is_bracket_error(self, p, u, limit):
        # off u's zero coordinates |Z_j + t u_j|^p -> 0 as t grows, so the power
        # tends to the m-coordinate test at c (d/m)^{1/p}; the limits match
        # 1 - _prob_le at t = 1e4 to 3e-9
        # twice: the scale cache stores no exception, so a repeat fails again
        for _ in range(2):
            with pytest.raises(BracketError, match=f"tends to {limit} <= beta=0.8"):
                are_finite(p, len(u), u, 0.05, 0.8)

    def test_power_limit_above_beta_still_solves(self):
        # the same direction at beta = 0.3, under its power limit 0.327
        v = are_finite(-2.0, 2, [1, 0], 0.05, 0.3)
        assert math.isfinite(v) and v > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            are_finite(1.0, 4, (1, 1, 1, 1), 0.05, 0.95)
        with pytest.raises(DomainError):
            are_finite(1.0, 2, (0, 0), 0.05, 0.95)

    @pytest.mark.parametrize("d, u, match", [
        (2, [math.nan, 1.0], r"non-finite entry \(nan\)"),
        (2, [math.inf, 1.0], r"non-finite entry \(inf\)"),
        (3, [1.0, 0.0, -math.inf], r"non-finite entry \(-inf\)"),
        (2.0, [1.0, 1.0], "integer d in {1, 2, 3}, got 2.0"),
    ])
    def test_bad_direction_or_d_rejected_before_solving(self, monkeypatch, d, u, match):
        # a NaN entry widened the size bracket 200 times into a BracketError, an
        # infinite one warned in u / norm, and d = 2.0 raised TypeError in np.zeros
        monkeypatch.setattr(are, "find_root", lambda *a, **k: pytest.fail("solved first"))
        with pytest.raises(DomainError, match=match):
            are_finite(1.0, d, u, 0.05, 0.8)

    @pytest.mark.parametrize("alpha, beta", [(0.9, 0.8), (0.05, 1.5), (math.nan, 0.8)])
    def test_alpha_beta_named(self, alpha, beta):
        with pytest.raises(DomainError, match=f"got alpha={alpha}, beta={beta}"):
            are_finite(1.0, 2, [1.0, 0.5], alpha, beta)

    @pytest.mark.parametrize("d", [1, 2])
    def test_cached_scales_keep_their_bits(self, d):
        # a sweep over the perfbench plan exponents shares its 2-mean leg; each
        # value is the one a cold cache gives
        ps = (-math.inf, -2.0, -1.0, -0.7, -0.5, -0.3, 0.0, 1.0, 2.0, 3.0, math.inf)
        u = (1.0, 0.4321)[:d]
        are._exact_scale.cache_clear()
        warm = [are_finite(p, d, u, 0.05, 0.8) for p in ps]
        for p, v in zip(ps, warm):
            are._exact_scale.cache_clear()
            assert are_finite(p, d, u, 0.05, 0.8).hex() == v.hex()

    def test_two_mean_leg_solved_once(self, monkeypatch):
        exponents = []

        def counted(pv, v, c):
            exponents.append(pv)
            return _prob_le(pv, v, c)

        monkeypatch.setattr(are, "_prob_le", counted)
        u = (1.0, 0.4321)
        are._exact_scale.cache_clear()
        are_finite(1.0, 2, u, 0.05, 0.8)
        assert 2.0 in exponents
        exponents.clear()
        are_finite(3.0, 2, u, 0.05, 0.8)
        assert exponents and 2.0 not in exponents
        # at p = 2 both legs are one entry
        are._exact_scale.cache_clear()
        are_finite(2.0, 2, u, 0.05, 0.8)
        assert are._exact_scale.cache_info().currsize == 1


class TestAttaining:
    def test_targets_via_sample_size_ratio(self):
        # finite-d rendering of the attainability construction; no rate is
        # given by the theory, so the tolerance is loose
        d = 10**6
        for p, target in ((3.0, 2.0), (1.0, 0.5), (-0.25, 0.3)):
            seq = attaining_sequence(p, target, 0.05, 0.95)
            u = seq.probe(d)
            theta = u / math.sqrt(d)
            ratio = (sample_size(TestPlan(2.0, d, 0.05, 0.95, theta))
                     / sample_size(TestPlan(p, d, 0.05, 0.95, theta)))
            assert abs(ratio - target) <= 0.15 * target

    def test_target_range_validated(self):
        with pytest.raises(DomainError):
            attaining_sequence(3.0, 0.5, 0.05, 0.95)   # below a_3
        with pytest.raises(DomainError):
            attaining_sequence(1.0, 1.5, 0.05, 0.95)   # above a_1

    def test_target_next_to_a_p_solves(self):
        # the roots lie near s = 7e-7 and 2e-7, where f_p(s) = lambda_p(0) -
        # lambda_p(s) is summed as its series in s^2: the difference of the two
        # moments cancels to about 0 there
        for rel in (1e-13, 1e-14):
            u = attaining_sequence(-0.25, a_p(-0.25) * (1.0 - rel), 0.05, 0.8).probe(1000)
            assert np.all(u == 1.0)     # f_p(s*) is so small that k(d) = d

    @pytest.mark.parametrize("p, target", [(1.9, 1e-10), (1.9, 1e-100), (3.0, 1e200)])
    def test_scale_past_overflow(self, p, target):
        # the roots lie near ln s = 230, 2300 and 460, where f_p(s) ~ s^p is
        # past the doubles or s^2 overflows while the ratio is a double; p = 1.9
        # at 1e-10 raised BracketError on a NaN ratio at ln s = 435
        u = attaining_sequence(p, target, 0.05, 0.8).probe(1000)
        assert np.count_nonzero(u) == 1 and u[0] == math.sqrt(1000)


def test_spike_divergence_crosses_ten_past_2e6():
    # companion to acceptance criterion 9: the n_2/n_3 spike
    # ratio grows like d^{1/6} and exceeds 10 by d = 4e6, not yet at 1e6
    d = 4 * 10**6
    theta = np.zeros(d)
    theta[0] = 1.0
    n2 = sample_size(TestPlan(2.0, d, 0.05, 0.95, theta))
    n3 = sample_size(TestPlan(3.0, d, 0.05, 0.95, theta))
    assert n2 / n3 > 10.0
