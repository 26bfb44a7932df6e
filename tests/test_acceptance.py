"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.

Two legs check limits that hold only as d -> infinity, so they assert what
the asymptotic theory promises at the stated d and nothing more:

* Criterion 6, p = -1 at d = 1e4.  The sufficient-shift relation needs
  sum_j f(s_j) = K d, but f <= mu_tilde_d(0), which grows only like ln d.
  At this d K = 19.108 exceeds mu_tilde_d(0) = 8.193, so beta = 0.95 is out
  of reach for every direction.  The leg asserts that ``sample_size`` raises
  ``InfeasibleError`` with threshold d (1 - K / mu_tilde_d(0)), with
  mu_tilde_d(0) checked against its E_1 closed form.  It then checks the
  power prediction at beta' = 0.2 against Monte Carlo (+-0.02).  The
  infeasibility belongs to the relation, not to the finite-d test, whose
  Monte Carlo power (1e5 reps, MC critical value) at the n the relation
  returns is

      beta'   n      MC power
      0.2     579    0.194
      0.5     1827   0.572
      0.7     3829   0.841
      0.8     7252   0.952

  The relation under-predicts once the shifts are O(1); beta' = 0.2 is the
  row where they are still small.
* Criterion 9, spike clause.  ARE_{3,2} = infinity on the spike is a
  divergence: n_2/n_3 ~ C d^{1/6} with C = 0.90741, which passes 10 only
  near d = 1.8e6.  The clause pins n_2 and n_3 at d = 1e6 to a 30-digit
  1F1 oracle, checks that the ratio grows from d = 1e4, and that it lies
  within 1% of C d^{1/6} at d = 1e6, closer than at d = 1e4.
  ``test_are.py`` checks n_2/n_3 > 10 at d = 4e6.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.special import exp1, ndtr, ndtri

from pmean.are import a_p, a_p_moment_route, are_finite, verify_ap_bound
from pmean.hypotest import (InfeasibleError, TestPlan, as_shift_scale, critical_value,
                            feasibility, power_asymptotic, sample_size)
from pmean.mc import (empirical_critval, empirical_critval_multi, empirical_power,
                      empirical_size_multi, ks_distance, schur2_check)
from pmean.moments import b_p, lambda_p, lambda_p_zero, log_moment, mu_tilde, regime_row
from pmean.numcore import RngStream
from pmean.stable import StableLaw, stable_cdf

THREADS = max(1, min(4, os.cpu_count() or 1))
ALPHA, BETA = 0.05, 0.95


def report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_ap_values():
    t0 = time.time()
    failures = []
    a3 = a_p(3.0)
    if abs(a3 - 0.95922) > 1e-3:
        failures.append(f"a_3={a3}")
    if a_p(2.0) != 1.0:
        failures.append("a_2 != 1 exactly")
    if abs(a_p(0.0) - 2.0 / math.pi) > 1e-9:
        failures.append("a_0")
    target = 1.0 / math.sqrt(math.pi - 2.0)
    r1v, r2v = a_p(1.0), a_p_moment_route(1.0)
    if abs(r1v - target) > 1e-10 or abs(r2v - target) > 1e-10:
        failures.append(f"a_1 routes {r1v}, {r2v}")
    elapsed = time.time() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s")
    report(1, not failures,
           f"a_3={a3:.6f}, a_2=1, a_0=2/pi, a_1 two routes agree ({elapsed:.2f}s)"
           if not failures else "; ".join(failures))
    assert not failures, failures


def test_criterion_02_finite_d_are():
    t0 = time.time()
    vals = {
        "are(1,2,(1,1))": (are_finite(1.0, 2, (1, 1), ALPHA, BETA), 1.0317),
        "are(2.1,2,(sqrt2,0))": (are_finite(2.1, 2, (math.sqrt(2), 0), ALPHA, BETA), 1.00429),
        "are(1.9,2,(1,1))": (are_finite(1.9, 2, (1, 1), ALPHA, BETA), 1.00459),
    }
    failures = [f"{k}: {got:.5f} vs {want}" for k, (got, want) in vals.items()
                if abs(got - want) > 2e-3]
    sym = are_finite(math.inf, 2, (math.sqrt(2), 0), ALPHA, BETA)
    if abs(sym - vals["are(1,2,(1,1))"][0]) > 2e-3:
        failures.append(f"rotation symmetry: {sym:.5f}")
    elapsed = time.time() - t0
    report(2, not failures,
           ", ".join(f"{k}={got:.5f}" for k, (got, _) in vals.items())
           + f", are(inf)={sym:.5f} ({elapsed:.1f}s)" if not failures else "; ".join(failures))
    assert not failures, failures


def test_criterion_03_moment_closed_forms():
    t0 = time.time()
    failures = []
    tl2 = log_moment(2, 0.0)
    if abs(tl2 - math.pi ** 2 / 8.0) > 1e-8:
        failures.append(f"log second moment {tl2}")
    for p in (-0.9, -0.4, 0.5, 1.0, 2.0, 3.0, 4.0, 7.0):
        if abs(lambda_p(p, 0.0) - lambda_p_zero(p)) > 1e-10:
            failures.append(f"lambda_{p}(0)")
    elapsed = time.time() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s")
    report(3, not failures,
           f"var(ln|Z|)=pi^2/8 to 1e-8; lambda_p(0) closed form on 8 exponents "
           f"to 1e-10 ({elapsed:.2f}s)" if not failures else "; ".join(failures))
    assert not failures, failures


def test_criterion_04_gamma_bound_grid():
    t0 = time.time()
    grid = np.arange(-0.499, 50.0, 1e-3)
    grid = grid[(np.abs(grid) > 1e-12) & (np.abs(grid - 2.0) > 1e-12)]
    rep = verify_ap_bound(grid)
    elapsed = time.time() - t0
    failures = []
    if rep.r_violations or rep.partial_violations:
        failures.append(f"violations r={rep.r_violations} partial={rep.partial_violations}")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s")
    report(4, not failures,
           f"{rep.grid.size} grid points, zero violations, min margins "
           f"{rep.r_margin_min:.2e}/{rep.partial_margin_min:.2e} ({elapsed:.2f}s)"
           if not failures else "; ".join(failures))
    assert not failures, failures


PS_SIZE = (-math.inf, -2.0, -1.0, -0.7, -0.5, -0.25, 0.0, 0.5, 1.0, 2.0, 3.0, math.inf)


@pytest.mark.slow
def test_criterion_05_empirical_size():
    t0 = time.time()
    failures = []
    reps = 200_000
    # self-consistency: MC critical values at d = 200
    d = 200
    crit_mc = empirical_critval_multi(PS_SIZE, d, ALPHA, reps, RngStream(1001, 0),
                                      threads=THREADS)
    sizes = empirical_size_multi(PS_SIZE, d, {p: r.estimate for p, r in crit_mc.items()},
                                 reps, RngStream(1002, 0), threads=THREADS)
    devs_mc = {}
    for p in PS_SIZE:
        dev = sizes[float(p)].estimate - ALPHA
        devs_mc[p] = dev
        if abs(dev) > 0.01:
            failures.append(f"MC-crit size p={p}: dev {dev:+.4f}")
    # asymptotic critical values at d = 1e4
    d = 10_000
    crit_asym = {float(p): critical_value(p, d, ALPHA).value for p in PS_SIZE}
    sizes = empirical_size_multi(PS_SIZE, d, crit_asym, reps, RngStream(1003, 0),
                                 threads=THREADS)
    devs_asym = {}
    for p in PS_SIZE:
        dev = sizes[float(p)].estimate - ALPHA
        devs_asym[p] = dev
        if abs(dev) > 0.02:
            failures.append(f"asym-crit size p={p}: dev {dev:+.4f}")
    elapsed = time.time() - t0
    worst_mc = max(abs(v) for v in devs_mc.values())
    worst_asym = max(abs(v) for v in devs_asym.values())
    report(5, not failures,
           f"12 exponents: |size-alpha| max {worst_mc:.4f} (MC crit, d=200) and "
           f"{worst_asym:.4f} (asymptotic crit, d=1e4), reps 2e5 ({elapsed:.0f}s)"
           if not failures else "; ".join(failures))
    assert not failures, failures


def mu_tilde_zero_closed_form(d: int) -> float:
    """E(|Z|^{-1} /\\ d) = d (2 Phi(1/d) - 1) + E_1(1/(2 d^2)) / sqrt(2 pi)."""
    return float(d * (2.0 * ndtr(1.0 / d) - 1.0)
                 + exp1(0.5 / d ** 2) / math.sqrt(2.0 * math.pi))


BETA_NEG_ONE = 0.2   # a power the p = -1 relation reaches at d = 1e4


@pytest.mark.slow
def test_criterion_06_power_prediction():
    t0 = time.time()
    failures = []
    d, reps = 10_000, 100_000
    theta = np.full(d, 0.02)
    ps = (-2.0, -0.5, 0.0, 1.0, 3.0, math.inf)
    shifts = {p: math.sqrt(sample_size(TestPlan(p, d, ALPHA, BETA, theta))) * theta
              for p in ps}
    crit = empirical_critval_multi(ps, d, ALPHA, reps, RngStream(2001, 0), threads=THREADS)
    powers = {}
    for k, p in enumerate(ps):
        pw = empirical_power(p, d, shifts[p], crit[float(p)].estimate, reps,
                             RngStream(2002, k), threads=THREADS)
        powers[p] = pw.estimate
        if abs(pw.estimate - BETA) > 0.02:
            failures.append(f"p={p}: power {pw.estimate:.4f}")
    # p = -1 row.  sum_j f(s_j) <= d sup f = d mu_tilde_d(0), so beta = 0.95
    # needs K <= mu_tilde_d(0); at d = 1e4 it is not, and every direction is
    # infeasible with threshold d (1 - K / mu_tilde_d(0)) < 0
    K = regime_row(-1.0, ALPHA, d).K(BETA)
    mu0 = mu_tilde(d, 0.0)
    mu0_exact = mu_tilde_zero_closed_form(d)
    if abs(mu0 - mu0_exact) > 1e-10 * mu0_exact:
        failures.append(f"p=-1: mu_tilde_d(0) = {mu0!r}, closed form {mu0_exact!r}")
    want_thr = d * (1.0 - K / mu0_exact)
    try:
        n = sample_size(TestPlan(-1.0, d, ALPHA, BETA, theta))
        failures.append(f"p=-1: sample_size gave n={n} at beta={BETA}, but K={K:.6g} "
                        f"exceeds sup f = mu_tilde_d(0) = {mu0_exact:.6g}")
    except InfeasibleError as e:
        if abs(e.threshold - want_thr) > 1e-6:
            failures.append(f"p=-1: threshold {e.threshold!r}, want d (1 - K/mu_tilde_d(0)) "
                            f"= {want_thr!r} with K={K:.6g}, mu_tilde_d(0)={mu0_exact:.6g}")
    # the relation still predicts power at a reachable beta
    n_m1 = sample_size(TestPlan(-1.0, d, ALPHA, BETA_NEG_ONE, theta))
    crit_m1 = empirical_critval(-1.0, d, ALPHA, reps, RngStream(2003, 0), threads=THREADS)
    pw_m1 = empirical_power(-1.0, d, math.sqrt(n_m1) * theta, crit_m1.estimate, reps,
                            RngStream(2004, 0), threads=THREADS).estimate
    if abs(pw_m1 - BETA_NEG_ONE) > 0.02:
        failures.append(f"p=-1: power {pw_m1:.4f} at n={n_m1} (beta={BETA_NEG_ONE})")
    # exact consistency of the p = 2 row at the solved (continuous) shift
    tstar = as_shift_scale(TestPlan(2.0, d, ALPHA, BETA, theta))
    pred = power_asymptotic(2.0, d, ALPHA, tstar * theta)
    if abs(pred - BETA) > 1e-9:
        failures.append(f"p=2 exactness: {pred!r}")
    elapsed = time.time() - t0
    report(6, not failures,
           f"empirical power within 0.02 of 0.95 for 6 legs "
           f"({', '.join(f'{p}: {v:.5f}' for p, v in powers.items())}); p=-1 infeasible "
           f"at beta=0.95 (threshold {want_thr:.1f}), power {pw_m1:.4f} at "
           f"beta={BETA_NEG_ONE}, n={n_m1}; p=2 exact to 1e-9 ({elapsed:.0f}s)"
           if not failures else "; ".join(failures) + f" ({elapsed:.0f}s)")
    assert not failures, failures


@pytest.mark.slow
def test_criterion_07_stable_limit():
    t0 = time.time()
    failures = []
    d, nrep = 10_000, 10_000
    # normalized statistic sum |Z_j|^{-2} / d^2 against the Levy closed form
    rng = RngStream(3001, 0)
    sums = []
    rows = max(1, (1 << 22) // d)
    done = 0
    gen_idx = 0
    while done < nrep:
        m = min(rows, nrep - done)
        z = rng.substream(gen_idx).generator().standard_normal((m, d))
        sums.append(np.sum(z ** -2.0, axis=1))
        done += m
        gen_idx += 1
    stat = np.concatenate(sums) / d ** 2
    levy = lambda x: np.where(np.asarray(x) <= 0, 0.0,
                              2.0 * (1.0 - ndtr(1.0 / np.sqrt(np.maximum(x, 1e-300)))))
    ks = ks_distance(stat, levy)
    if ks > 0.02:
        failures.append(f"KS {ks:.4f}")
    law = StableLaw(-2.0, b_p(-2.0))
    probe_dev = max(abs(stable_cdf(law, x) - float(levy(x)))
                    for x in (0.1, 0.5, 1.0, 2.198, 10.0, 254.31))
    if probe_dev > 1e-6:
        failures.append(f"probe dev {probe_dev:.2e}")
    elapsed = time.time() - t0
    report(7, not failures,
           f"KS={ks:.4f} (1e4 replicate sums at d=1e4); CDF-vs-Levy max dev "
           f"{probe_dev:.1e} at 6 probes ({elapsed:.0f}s)" if not failures
           else "; ".join(failures))
    assert not failures, failures


SCHUR2_FRACTIONS = [(2.0, 1.0, 0.5), (3.0, 1.0, 0.6), (3.0, 0.85, 0.5),
                    (4.0, 0.95, 0.6), (5.0, 1.0, 0.7), (3.5, 0.9, 0.5),
                    (4.0, 1.0, 0.5), (6.0, 1.0, 0.6), (5.0, 0.9, 0.55),
                    (4.5, 0.85, 0.5)]


@pytest.mark.slow
def test_criterion_08_schur2_suite():
    t0 = time.time()
    failures = []
    reps = 1_000_000
    for p, c, want in ((1.0, 1.5, "consistent-concave"), (math.inf, 1.8, "consistent-convex")):
        for k, (S, xv, xw) in enumerate(SCHUR2_FRACTIONS):
            v = (math.sqrt(S * xv), math.sqrt(S * (1.0 - xv)))
            w = (math.sqrt(S * xw), math.sqrt(S * (1.0 - xw)))
            r = schur2_check(p, 2, c, v, w, reps, RngStream(4001 + k, 0),
                             threads=THREADS)
            if r.tag != want:
                failures.append(f"p={p} pair{k}: {r.tag} (z={r.z_score:+.1f})")
            if r.tag == "violation":
                failures.append(f"p={p} pair{k}: confirmed violation")
    elapsed = time.time() - t0
    report(8, not failures,
           f"10 pairs at each of p=1 (concave) and p=inf (convex), all beyond "
           f"3 sigma at reps 1e6, zero violations ({elapsed:.0f}s)"
           if not failures else "; ".join(failures))
    assert not failures, failures


def spike_oracle(d: int) -> tuple[int, int]:
    """(n_2, n_3) for the spike theta = e_1 from 30-digit arithmetic:
    n_2 = ceil(K_2 sqrt(d)) and n_3 = ceil(t*^2), where t* solves
    lambda_3(t) - lambda_3(0) = K_3 sqrt(d) with the 1F1 closed form
    lambda_3(s) = 2^{3/2} / sqrt(pi) 1F1(-3/2; 1/2; -s^2/2)."""
    import mpmath as mp

    with mp.workdps(30):
        z = mp.sqrt(2) * (mp.erfinv(2 * mp.mpf(BETA) - 1) - mp.erfinv(2 * mp.mpf(ALPHA) - 1))
        k2 = z * mp.sqrt(2)                      # sd of Z^2
        k3 = z * mp.sqrt(15 - 8 / mp.pi)         # sd of |Z|^3
        lam3 = lambda s: 2 ** mp.mpf(1.5) / mp.sqrt(mp.pi) * mp.hyp1f1(-1.5, 0.5, -s * s / 2)
        target = k3 * mp.sqrt(d)
        t = mp.findroot(lambda t: lam3(t) - lam3(0) - target, mp.cbrt(target))
        return int(mp.ceil(k2 * mp.sqrt(d))), int(mp.ceil(t * t))


# n_2 / n_3 on the spike ~ C d^{1/6}: n_2 ~ K_2 sqrt(d) and n_3 ~ (K_3 sqrt(d))^{2/3}
SPIKE_C = (math.sqrt(2.0) * (ndtri(BETA) - ndtri(ALPHA)) ** (1.0 / 3.0)
           / (15.0 - 8.0 / math.pi) ** (1.0 / 3.0))


def test_criterion_09_phase_transition():
    t0 = time.time()
    failures = []
    ratios = []
    for d in (100, 10_000, 1_000_000):
        theta = np.full(d, d ** -0.5)
        n2 = sample_size(TestPlan(2.0, d, ALPHA, BETA, theta))
        n3 = sample_size(TestPlan(3.0, d, ALPHA, BETA, theta))
        ratios.append(n2 / n3)
    if not (ratios[0] > ratios[1] > ratios[2]):
        failures.append(f"equalized trend not monotone: {ratios}")
    if abs(ratios[-1] - 0.959) > 0.03:
        failures.append(f"equalized final ratio {ratios[-1]:.4f}")
    # ARE_{3,2} = inf on the spike is a divergence: n_2/n_3 grows like C d^{1/6}
    spike = {}
    for d in (10_000, 1_000_000):
        theta = np.zeros(d)
        theta[0] = 1.0
        spike[d] = (sample_size(TestPlan(2.0, d, ALPHA, BETA, theta)),
                    sample_size(TestPlan(3.0, d, ALPHA, BETA, theta)))
    want = spike_oracle(1_000_000)
    if spike[1_000_000] != want:
        failures.append(f"spike (n2, n3) at d=1e6: {spike[1_000_000]} != oracle {want}")
    spike_ratio = {d: n2 / n3 for d, (n2, n3) in spike.items()}
    if not spike_ratio[1_000_000] > spike_ratio[10_000]:
        failures.append(f"spike ratio not growing: {spike_ratio}")
    dev = {d: r / (SPIKE_C * d ** (1.0 / 6.0)) - 1.0 for d, r in spike_ratio.items()}
    if not abs(dev[1_000_000]) <= min(0.01, abs(dev[10_000])):
        failures.append(f"spike ratio / (C d^(1/6)) - 1 = {dev[1_000_000]:+.4f} at d=1e6 "
                        f"({dev[10_000]:+.4f} at d=1e4), C={SPIKE_C:.5f}")
    elapsed = time.time() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s")
    report(9, not failures,
           f"equalized n2/n3: {' > '.join(f'{r:.4f}' for r in ratios)} -> a_3; "
           f"spike n2/n3: {spike_ratio[10_000]:.3f} (d=1e4) < {spike_ratio[1_000_000]:.3f} "
           f"(d=1e6) = C d^(1/6) (1 {dev[1_000_000]:+.4f}), (n2, n3) = {want} as the "
           f"oracle ({elapsed:.1f}s)"
           if not failures else "; ".join(failures))
    assert not failures, failures


def test_criterion_10_feasibility_thresholds():
    t0 = time.time()
    failures = []
    d = 10_000
    for frac, want in ((0.5, False), (0.01, True)):
        u = np.ones(d)
        u[: int(frac * d)] = 0.0
        u = u / math.sqrt(np.mean(u ** 2))
        res = feasibility(TestPlan(-2.0, d, ALPHA, BETA, u))
        if res.feasible is not want:
            failures.append(f"d0/d={frac}: feasible={res.feasible}")
        if abs(res.threshold / d - 0.0320) > 5e-4:
            failures.append(f"threshold {res.threshold / d:.5f} != 0.0320")
    elapsed = time.time() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s")
    report(10, not failures,
           f"d0/d=0.5 infeasible, 0.01 feasible at d=1e4; threshold/d = 0.0320 "
           f"from the Levy-quantile constant ({elapsed:.2f}s)"
           if not failures else "; ".join(failures))
    assert not failures, failures
