import math

import numpy as np
import pytest
from scipy.special import ndtr

from pmean.hypotest import critical_value, pmean_rows
from pmean.mc import (_stat_rows_multi, empirical_critval, empirical_critval_multi,
                      empirical_power, empirical_size_multi, ks_distance, limit_law_ks,
                      majorizes_squares, random_direction_check, schur2_check)
from pmean.moments import ExtendedP
from pmean.numcore import ConfigError, DomainError, RngStream


class TestEmpiricalPower:
    def test_size_at_mc_critval(self):
        d, alpha = 100, 0.05
        cv = empirical_critval(2.0, d, alpha, 50_000, RngStream(1, 0))
        r = empirical_power(2.0, d, np.zeros(d), cv.estimate, 50_000, RngStream(2, 0))
        assert abs(r.estimate - alpha) < 4 * r.half_width + 0.002

    def test_reproducible(self):
        a = empirical_power(1.0, 20, np.zeros(20), 0.9, 5000, RngStream(3, 1))
        b = empirical_power(1.0, 20, np.zeros(20), 0.9, 5000, RngStream(3, 1))
        assert a.estimate == b.estimate

    def test_thread_count_invariant(self):
        shift = np.full(50, 0.2)
        a = empirical_power(0.5, 50, shift, 0.8, 20_000, RngStream(5, 0), threads=1)
        b = empirical_power(0.5, 50, shift, 0.8, 20_000, RngStream(5, 0), threads=3)
        assert a.estimate == b.estimate

    def test_monotone_in_shift_scale(self):
        d = 100
        cv = critical_value(2.0, d, 0.05).value
        base = np.full(d, 0.25)
        res = [empirical_power(2.0, d, t * base, cv, 40_000, RngStream(7, k))
               for k, t in enumerate((0.5, 1.0, 1.5))]
        assert res[0].estimate + res[0].half_width < res[1].estimate - res[1].half_width
        assert res[1].estimate + res[1].half_width < res[2].estimate - res[2].half_width

    def test_ci_formula(self):
        r = empirical_power(2.0, 10, np.zeros(10), 1.0, 4000, RngStream(11, 0))
        expected = 1.959963984540054 * math.sqrt(r.estimate * (1 - r.estimate) / r.reps)
        assert abs(r.half_width - expected) < 1e-12

    def test_config_error(self):
        with pytest.raises(ConfigError):
            empirical_power(2.0, 10, np.zeros(10), 1.0, 500, RngStream(0, 0))


class TestEmpiricalCritval:
    def test_p2_value(self):
        # the exact d=100 quantile is sqrt(chi2_{0.95,100}/100) = 1.11509, which
        # sits 0.0049 above the asymptotic 1.1102: the MC estimator targets the
        # exact finite-d quantile, not the limit value
        from scipy import stats
        exact = math.sqrt(stats.chi2.ppf(0.95, 100) / 100)
        r = empirical_critval(2.0, 100, 0.05, 200_000, RngStream(21, 0), threads=2)
        assert abs(r.estimate - exact) < 0.002
        assert abs(r.estimate - 1.1102) < 0.01

    def test_pinf_value(self):
        # exact: P(max|Z| <= c) = (2 Phi(c) - 1)^d = 0.95; c_{100,0.05} sits
        # 0.0554 above that exact quantile at d=100
        from scipy.special import ndtri
        exact = ndtri((1.0 + 0.95 ** 0.01) / 2.0)
        r = empirical_critval(math.inf, 100, 0.05, 100_000, RngStream(22, 0), threads=2)
        assert abs(r.estimate - exact) < 0.01
        assert abs(r.estimate - 3.5325) < 0.08

    def test_deterministic(self):
        a = empirical_critval(1.0, 30, 0.1, 5000, RngStream(23, 0))
        b = empirical_critval(1.0, 30, 0.1, 5000, RngStream(23, 0))
        assert a.estimate == b.estimate

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(DomainError):
            empirical_critval_multi([1.0, 2.0], 10, alpha, 1000, RngStream(24, 0))


class TestKsDistance:
    def test_dkw_self_consistency(self):
        u = RngStream(31, 0).generator().uniform(size=100_000)
        assert ks_distance(u, lambda x: np.clip(x, 0, 1)) <= 0.01

    def test_hand_computed(self):
        # samples {0.2, 0.6} vs uniform: the largest gap is |F(0.6) - 1| = 0.4
        assert abs(ks_distance([0.2, 0.6], lambda x: np.asarray(x)) - 0.4) < 1e-12

    def test_empty(self):
        with pytest.raises(DomainError):
            ks_distance([], lambda x: x)


@pytest.mark.slow
class TestLimitLawSuite:
    # one representative p per regime at d = 1e4; the p = -1/2 boundary row
    # has infinite summand variance and converges at O(ln ln d / ln d), far
    # from 0.02 at any desk-scale d, so its bound is honest rather than 0.02
    @pytest.mark.parametrize("p,bound", [
        (-math.inf, 0.02), (-2.0, 0.02), (-1.0, 0.02), (-0.7, 0.02),
        (-0.5, 0.10), (-0.25, 0.02), (0.0, 0.02), (1.0, 0.02), (math.inf, 0.02),
    ])
    def test_regime_fit(self, p, bound):
        fit = limit_law_ks(p, 10**4, 10_000, RngStream(41, 0), threads=4)
        assert fit.distance <= bound, (p, fit.distance, fit.law)

    def test_nrep_floor(self):
        with pytest.raises(ConfigError):
            limit_law_ks(2.0, 10, 50, RngStream(0, 0))


class TestSchur2:
    def test_convex_at_inf(self):
        r = schur2_check(math.inf, 2, 1.5, (math.sqrt(2), 0), (1, 1), 200_000,
                         RngStream(51, 0))
        assert r.tag == "consistent-convex"

    def test_concave_at_one(self):
        r = schur2_check(1.0, 2, 1.5, (math.sqrt(2), 0), (1, 1), 200_000,
                         RngStream(52, 0))
        assert r.tag == "consistent-concave"

    def test_inconclusive_at_two(self):
        # <Z+v>_2 depends on v only through its norm: probabilities match
        r = schur2_check(2.0, 2, 1.5, (math.sqrt(2), 0), (1, 1), 200_000,
                         RngStream(53, 0))
        assert r.tag == "inconclusive"

    def test_majorization_precondition(self):
        with pytest.raises(DomainError):
            schur2_check(1.0, 2, 1.5, (1, 1), (math.sqrt(2), 0), 2000, RngStream(0, 0))
        with pytest.raises(DomainError):
            schur2_check(1.0, 2, 1.5, (1, 1), (2, 1), 2000, RngStream(0, 0))


class TestMajorization:
    def test_basic(self):
        assert majorizes_squares((math.sqrt(2), 0), (1, 1))
        assert not majorizes_squares((1, 1), (math.sqrt(2), 0))
        assert majorizes_squares((1, 1), (1, 1))
        assert not majorizes_squares((2, 0), (1, 1))  # sums differ


class TestRandomDirection:
    def test_fraction_tends_to_one(self):
        rep = random_direction_check(3.0, [100, 10_000], 1000, RngStream(61, 0))
        rows = dict((d, frac) for d, frac, _ in rep.rows)
        assert rows[10_000] >= 0.99
        assert 0.0 <= rows[100] <= 1.0  # pre-asymptotic: diagnostic only

    def test_reproducible(self):
        a = random_direction_check(3.0, [500], 400, RngStream(62, 0))
        b = random_direction_check(3.0, [500], 400, RngStream(62, 0))
        assert a.rows == b.rows

    def test_domain(self):
        with pytest.raises(DomainError):
            random_direction_check(1.5, [100], 100, RngStream(0, 0))

    @pytest.mark.parametrize("reps", [0, 99, -5])
    def test_reps_floor(self, reps):
        with pytest.raises(ConfigError, match="reps >= 100"):
            random_direction_check(3.0, [10], reps, RngStream(1))


class TestSizeMulti:
    def test_matches_single(self):
        d = 50
        cs = {2.0: critical_value(2.0, d, 0.05).value,
              -0.25: critical_value(-0.25, d, 0.05).value}
        multi = empirical_size_multi([2.0, -0.25], d, cs, 20_000, RngStream(71, 0))
        single = empirical_power(2.0, d, np.zeros(d), cs[2.0], 20_000, RngStream(71, 0))
        assert multi[2.0].estimate == single.estimate

    def test_multi_kernel_matches_pmean_rows(self):
        # zero coordinates at p < 0 give a p-mean of 0, not NaN; every other
        # row agrees bit for bit with the single-p kernel
        z = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [0.3, -1.7, 2.2]])
        ps = (-math.inf, -2.0, -0.5, 0.0, 1.5, 3.0, math.inf)
        multi = _stat_rows_multi([ExtendedP.of(p) for p in ps], z)
        for p, rows in zip(ps, multi):
            assert np.array_equal(rows, pmean_rows(p, z)), p
        assert multi[1][0] == 0.0


def _direction_fractions(p, d_list, reps, rng):
    """random_direction_check's fractions, chunk by chunk: chunk i of the k-th
    dimension d holds up to min(65536, 2^22 // d) rows drawn from
    rng.substream(k).substream(i)."""
    out = []
    for k, d in enumerate(d_list):
        per = min(65536, (1 << 22) // d)
        thr = d ** ((p - 2.0) / (4.0 * p))
        below = 0
        for i, start in enumerate(range(0, reps, per)):
            gen = rng.substream(k).substream(i).generator()
            z = gen.standard_normal((min(per, reps - start), d))
            u = math.sqrt(d) * z / np.sqrt(np.sum(z * z, axis=1))[:, None]
            below += int(np.count_nonzero(pmean_rows(p, u) < thr))
        out.append(below / reps)
    return out


# Each case gives two results that must agree bit for bit.  At d = 3 a chunk
# holds 65536 rows, so 140_001 reps make two full chunks and a partial one.
D, REPS = 3, 140_001
SHIFT = np.array([0.3, -0.1, 0.2])
PS = [-math.inf, -2.0, 0.0, 1.5, math.inf]
# every exponent of the benchmark's Monte Carlo workload, each with its own
# power-sum branch; at d = 1000 a chunk holds 4194 rows, so 10_001 reps make
# two full chunks and a partial one
WORKLOAD_PS = [-math.inf, -2.0, -0.5, 0.0, 1.0, 2.0, 3.0, math.inf]
WIDE_D, WIDE_REPS = 1000, 10_001


@pytest.mark.parametrize("pair", [
    ("power", lambda t: empirical_power(-0.7, D, SHIFT, 1.0, REPS, RngStream(81, 0), threads=t)),
    ("critval", lambda t: empirical_critval(3.0, D, 0.05, REPS, RngStream(82, 0), threads=t)),
    ("critval_multi", lambda t: empirical_critval_multi(PS, D, 0.05, REPS, RngStream(83, 0),
                                                        threads=t)),
    ("size_multi", lambda t: empirical_size_multi(PS, D, dict.fromkeys(PS, 1.0), REPS,
                                                  RngStream(84, 0), threads=t)),
    ("critval_multi workload p", lambda t: empirical_critval_multi(
        WORKLOAD_PS, WIDE_D, 0.05, WIDE_REPS, RngStream(89, 0), threads=t)),
    ("size_multi workload p", lambda t: empirical_size_multi(
        WORKLOAD_PS, WIDE_D, dict.fromkeys(WORKLOAD_PS, 1.0), WIDE_REPS, RngStream(90, 0),
        threads=t)),
    ("limit_law_ks", lambda t: limit_law_ks(math.inf, D, REPS, RngStream(85, 0), threads=t)),
    ("schur2", lambda t: schur2_check(1.0, 2, 1.5, (math.sqrt(2), 0), (1, 1), REPS,
                                      RngStream(86, 0), threads=t)),
    ("critval is critval_multi", lambda t: (
        empirical_critval(-2.0, D, 0.05, REPS, RngStream(87, 0), threads=t) if t == 1
        else empirical_critval_multi([-2.0], D, 0.05, REPS, RngStream(87, 0), threads=t)[-2.0])),
    # at d = 10 and 12 the fraction (about 0.84 at p = 4) moves with every draw
    ("random_direction", lambda t: (
        [row[1] for row in random_direction_check(4.0, [12, 10], REPS, RngStream(88, 0)).rows]
        if t == 1 else _direction_fractions(4.0, [12, 10], REPS, RngStream(88, 0)))),
], ids=lambda pair: pair[0])
def test_thread_count_invariant(pair):
    _, run = pair
    assert run(1) == run(2)
