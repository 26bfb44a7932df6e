"""The four workloads: their inputs, their query lists and their checks.

Each workload is built from the workload seed alone; the program only sees
the generated inputs.  ``queries()`` is the fixed list one pass issues in
order, each query after the previous one returns.  ``check(label, result)``
runs after the pass, outside the timed region, and returns a list of
failures (empty when the answer is right).  Checks compare against
computations made here apart from the program (closed forms, mpmath,
scipy.stats) or against properties the method must have; none compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy import special, stats

from pmean import are, hypotest, mc, moments, stable
from pmean.hypotest import InfeasibleError, TestPlan
from pmean.numcore import RngStream

INF = math.inf
ALPHA, BETA = 0.05, 0.8
EULER_GAMMA = 0.5772156649015329

# a correct limit law at nrep = 200 exceeds 2.55 / sqrt(200) with probability
# below 1e-5; see README for the observed finite-d distances
LIMIT_LAW_KS_BOUND = 0.18


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _lam0(p: float) -> float:
    """lambda_p(0) = 2^{p/2} Gamma((p+1)/2) / sqrt(pi), p > -1."""
    return math.exp(0.5 * p * math.log(2.0) + math.lgamma(0.5 * (p + 1.0)) - 0.5 * math.log(math.pi))


def _levy_quantile(q: float) -> float:
    """Quantile of the Levy law F(x) = erfc(1 / sqrt(2x)), the p = -2 limit."""
    return 1.0 / (2.0 * special.erfcinv(q) ** 2)


def _levy_cdf(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(x > 0, special.erfc(1.0 / np.sqrt(2.0 * np.where(x > 0, x, 1.0))), 0.0)


def _a_p(p: float) -> float:
    """|p| / sqrt(2 (r(p) - 1)), r(p) = Gamma(1/2) Gamma(p+1/2) / Gamma((p+1)/2)^2."""
    lnr = math.lgamma(0.5) + math.lgamma(p + 0.5) - 2.0 * math.lgamma(0.5 * (p + 1.0))
    return abs(p) / math.sqrt(2.0 * math.expm1(lnr))


def _c_inf(d: int, alpha: float) -> float:
    return math.sqrt(2.0 * math.log(-d / math.sqrt(math.pi * math.log(d)) / math.log1p(-alpha)))


# ---------------------------------------------------------------------------
# Set-up: one warm-up call per layer, on inputs no pass uses
# ---------------------------------------------------------------------------

def warm_up():
    """Pays the one-time costs of each layer (first quad, first brentq,
    first Philox fill, thread pool start) on inputs outside every pass, so
    the pass's caches stay cold."""
    from pmean import numcore
    numcore.gauss_expect(lambda y: y * y, 0.37)
    numcore.find_root(lambda x: x * x - 2.0, 0.0, 2.0)
    RngStream(977, 5).standard_normal(16)
    moments.lambda_p(1.7, 0.29)
    law = stable.StableLaw(-5.0, moments.b_p(-5.0))
    stable.stable_cdf(law, stable.stable_quantile(law, 0.5))
    hypotest.critical_value(1.7, 50, 0.05)
    hypotest.power_asymptotic(1.7, 50, 0.05, np.full(50, 0.3))
    are.are_finite(1.7, 1, (1.0,), 0.05, 0.8)
    mc.empirical_critval(1.7, 5, 0.05, 1000, RngStream(977, 6), threads=2)


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

PLAN_PS = (-INF, -2.0, -1.0, -0.7, -0.5, -0.3, 0.0, 1.0, 2.0, 3.0, INF)
PLAN_SCALE = 0.02          # theta_1 = PLAN_SCALE * u, u a <.>_2-unit direction
BLOCK_GAMMA = 0.3          # block sequence k = ceil(d^0.3): off the p = 3 and inf thresholds


def _mp_lambda(p: float, s_values):
    """E|Z+s|^p from the 1F1 identity, 30 digits (mpmath)."""
    import mpmath
    with mpmath.workdps(30):
        pre = mpmath.power(2, mpmath.mpf(p) / 2) * mpmath.gamma((mpmath.mpf(p) + 1) / 2) / mpmath.sqrt(mpmath.pi)
        return np.array([float(pre * mpmath.hyp1f1(-mpmath.mpf(p) / 2, mpmath.mpf(1) / 2,
                                                    -mpmath.mpf(float(s)) ** 2 / 2))
                         for s in s_values])


def _mp_log_p_abs_le(c: float, s_values):
    """ln P(|Z+s| <= c), 30 digits (mpmath)."""
    import mpmath
    with mpmath.workdps(30):
        return np.array([float(mpmath.log(mpmath.ncdf(c - float(s)) - mpmath.ncdf(-c - float(s))))
                         for s in s_values])


def closed_form_power(p: float, d: int, alpha: float, s) -> float | None:
    """Asymptotic power of the sufficient-shift relation, recomputed apart from
    the program: the f_p row from closed forms (lambda_p from 1F1), the limit
    law from its closed form.  None where no closed form exists (p in
    {-1, -0.7, 0})."""
    vals, counts = np.unique(np.abs(np.asarray(s, dtype=float)), return_counts=True)
    za = special.ndtri(alpha)
    if p == -INF:
        return alpha ** (float(np.dot(counts, np.exp(-0.5 * vals ** 2))) / d)
    if p == -2.0:
        R = float(np.dot(counts, np.exp(-0.5 * vals ** 2))) / d
        return float(_levy_cdf(_levy_quantile(alpha) * R ** p))
    if p == INF:
        c = _c_inf(d, alpha)
        f = _mp_log_p_abs_le(c, [0.0])[0] - _mp_log_p_abs_le(c, vals)
        return 1.0 - (1.0 - alpha) * math.exp(-float(np.dot(counts, f)))
    if p == 2.0:
        R = float(np.dot(counts, vals ** 2)) / math.sqrt(d)
        return float(special.ndtr(za + R / math.sqrt(2.0)))
    if p in (-0.5, -0.3, 1.0, 3.0):
        lam = _mp_lambda(p, vals)
        f = (lam - _lam0(p)) if p > 0 else (_lam0(p) - lam)
        total = float(np.dot(counts, f))
        if p == -0.5:
            R = total / math.sqrt(d * math.log(d))
            return float(special.ndtr(za + R / (2.0 / math.pi) ** 0.25))
        sd = math.sqrt(_lam0(2.0 * p) - _lam0(p) ** 2)
        return float(special.ndtr(za + total / math.sqrt(d) / sd))
    return None


def closed_form_critval(p: float, d: int, alpha: float) -> float | None:
    z = special.ndtri(1.0 - alpha)
    if p == INF:
        return _c_inf(d, alpha)
    if p == -INF:
        return -math.log(alpha) * math.sqrt(2.0 * math.pi) / (2.0 * d)
    if p == 0.0:
        # E ln|Z| = -(gamma + ln 2)/2, Var ln|Z| = pi^2/8
        return math.exp(-(EULER_GAMMA + math.log(2.0)) / 2.0 + z * math.sqrt(math.pi ** 2 / 8.0 / d))
    if p == -0.5:
        return (_lam0(-0.5) - z * (2.0 / math.pi) ** 0.25 * math.sqrt(math.log(d) / d)) ** -2.0
    if p == -2.0:
        return _levy_quantile(alpha) ** (1.0 / p) * d ** (-(1.0 + p) / p)
    if p > 0.0 or -0.5 < p < 0.0:
        sign = 1.0 if p > 0 else -1.0
        return (_lam0(p) + sign * z * math.sqrt((_lam0(2 * p) - _lam0(p) ** 2) / d)) ** (1.0 / p)
    return None


def closed_form_threshold(p: float, d: int, alpha: float, beta: float) -> float | None:
    """Feasibility threshold on d_0 where the regime's K has a closed form."""
    zb_za = special.ndtri(beta) - special.ndtri(alpha)
    if p == -INF:
        return math.log(beta) / math.log(alpha) * d
    if p == -2.0:
        return (_levy_quantile(beta) / _levy_quantile(alpha)) ** (1.0 / p) * d
    if p == -0.5:
        return d - zb_za * (2.0 / math.pi) ** 0.25 * math.sqrt(d * math.log(d)) / _lam0(-0.5)
    if p == -0.3:
        sd = math.sqrt(_lam0(2 * p) - _lam0(p) ** 2)
        return d - zb_za * sd * math.sqrt(d) / _lam0(p)
    return None


class Plan:
    """Planning queries: critical values, feasibility, sample size, power,
    ARE verdicts.  Quadrature and root solves; no RNG."""

    name = "plan"

    def __init__(self, seed: int, tiny: bool = False):
        self.d = 400 if tiny else 10_000
        self.big_d = 10_000 if tiny else 1_000_000
        self.ps = (-INF, -2.0, -1.0, 0.0, 1.0, 3.0, INF) if tiny else PLAN_PS
        d = self.d
        rng = _rng(seed, 1)
        nlev = 20 if tiny else 200
        # a fixed log-spaced level set on [0.2, 2]; the seed draws the signs and
        # the order.  With levels drawn from the seed, sample_size's f
        # evaluations at p = -0.3 ranged 17-22 over six seeds, and with them
        # the cost of a pass
        levels = 0.2 * 10.0 ** ((np.arange(nlev) + 0.5) / nlev)
        coords = np.repeat(levels, d // nlev) * rng.choice([-1.0, 1.0], d)
        rng.shuffle(coords)
        spike = np.zeros(d)
        spike[0] = math.sqrt(d)
        block = np.zeros(d)
        block[:100] = math.sqrt(d / 100)
        units = {"equalized": np.ones(d), "spike": spike, "block": block,
                 "generic": coords / math.sqrt(np.mean(coords ** 2))}
        self.theta = {k: PLAN_SCALE * u for k, u in units.items()}
        big = np.zeros(self.big_d)
        big[0] = PLAN_SCALE * math.sqrt(self.big_d) / 10.0
        self.theta_big = big
        self.are_v = float(rng.uniform(0.2, 0.8))
        self.seqs = {"equalized": are.equalized_sequence(), "spike": are.spike_sequence(),
                     "block": are.block_sequence(BLOCK_GAMMA)}

    def queries(self):
        """Per p: the critical value; one planning query per direction, with
        the ARE verdict of its sequence where it has one; the finite-d ARE.
        Then the d = 10^6 spike."""
        out = []
        for p in self.ps:
            out.append((f"critval p={p}", lambda p=p: {
                "critval": hypotest.critical_value(p, self.d, ALPHA)}))
            for fam in self.theta:
                out.append((f"plan p={p} {fam}", lambda p=p, fam=fam: self._direction(p, fam)))
            out.append((f"are_finite p={p}", lambda p=p: {
                f"are_finite d={dd}": are.are_finite(p, dd, u, ALPHA, BETA)
                for dd, u in ((1, (1.0,)), (2, (1.0, self.are_v)))}))
        out.append((f"plan p=3.0 spike d={self.big_d}", lambda: {
            "plan spike": self._planning(3.0, self.big_d, self.theta_big)}))
        return out

    def _direction(self, p, fam):
        res = {}
        if not (p == 0.0 and fam == "spike"):
            # at p = 0 the spike's sample_size raises BracketError (CHANGES.md, FOUND)
            res[f"plan {fam}"] = self._planning(p, self.d, self.theta[fam])
        if fam in self.seqs:
            res[f"classify {fam}"] = are.classify_are(p, self.seqs[fam], ALPHA, BETA)
        return res

    @staticmethod
    def _planning(p, d, theta):
        plan = TestPlan(p, d, ALPHA, BETA, theta)
        feas = hypotest.feasibility(plan)
        try:
            n = hypotest.sample_size(plan)
        except InfeasibleError as e:
            return {"feas": feas, "infeasible": e}
        return {"feas": feas, "n": n,
                "power": hypotest.power_asymptotic(p, d, ALPHA, math.sqrt(n) * theta)}

    def check(self, label, res):
        p = float(label.split()[1][2:])
        big = label.endswith(f" d={self.big_d}")
        fails = []
        for key, r in res.items():
            kind, arg = key.split(" ", 1) if " " in key else (key, None)
            if kind == "critval":
                msgs = self._check_critval(p, r)
            elif kind == "plan":
                d, theta = (self.big_d, self.theta_big) if big else (self.d, self.theta[arg])
                msgs = self._check_plan(p, d, theta, r)
            elif kind == "classify":
                msgs = self._check_classify(p, arg, r)
            else:
                msgs = self._check_are_finite(p, int(arg[2:]), r)
            fails += [f"{key}: {m}" for m in msgs]
        return fails

    def _check_critval(self, p, cv):
        want = closed_form_critval(p, self.d, ALPHA)
        if want is None:
            return [] if math.isfinite(cv.value) and cv.value > 0 else [f"critval {cv.value} not > 0"]
        rel = 1e-8 if p == -2.0 else 1e-10
        return [] if _close(cv.value, want, rel) else [f"critval {cv.value!r} != closed form {want!r}"]

    def _check_plan(self, p, d, theta, res):
        fails = []
        d0 = int(np.count_nonzero(theta == 0.0))
        want_thr = closed_form_threshold(p, d, ALPHA, BETA)
        # None: K has no closed form here, and the program's own feasibility decides
        expect_infeasible = False if p >= 0 else (None if want_thr is None else d0 > want_thr)
        feas = res["feas"]
        if "infeasible" in res:
            e = res["infeasible"]
            if expect_infeasible is False:
                return [f"unexpected InfeasibleError: {e}"]
            if e.d0 != d0 or feas.feasible or not _close(e.threshold, feas.threshold, 1e-12):
                fails.append(f"threshold/d0 mismatch: error ({e.threshold}, {e.d0}), "
                             f"feasibility ({feas.threshold}, {feas.d0}), zeros {d0}")
            if not d0 > e.threshold:
                fails.append(f"d0={d0} does not exceed threshold {e.threshold}")
            if want_thr is not None and not _close(e.threshold, want_thr, 1e-8):
                fails.append(f"threshold {e.threshold!r} != closed form {want_thr!r}")
            return fails
        if expect_infeasible:
            return [f"expected InfeasibleError, got n={res['n']}"]
        n = res["n"]
        if not (n >= 1 and feas.feasible and res["power"] >= BETA - 1e-8):
            fails.append(f"n={n}, feasible={feas.feasible}, power at n {res['power']}")
        if p == 2.0:
            x = math.sqrt(2.0) * (special.ndtri(BETA) - special.ndtri(ALPHA)) * math.sqrt(d) / float(np.sum(theta ** 2))
            if n not in (math.ceil(x - 1e-6), math.ceil(x + 1e-6)):
                fails.append(f"n={n} != ceil({x!r})")
        at_n = closed_form_power(p, d, ALPHA, math.sqrt(n) * theta)
        if at_n is not None:
            if at_n < BETA - 1e-8:
                fails.append(f"closed-form power at n={n} is {at_n!r} < beta")
            if n > 1:
                below = closed_form_power(p, d, ALPHA, math.sqrt(n - 1) * theta)
                if below >= BETA + 1e-8:
                    fails.append(f"closed-form power at n-1={n - 1} is {below!r} >= beta")
        return fails

    def _check_classify(self, p, seq, v):
        if p == 2.0:
            want = ("finite", 1.0)
        elif p <= -0.5:
            want = ("zero", 0.0)
        elif seq == "equalized":
            want = ("zero", 0.0) if p == INF else ("finite", 2.0 / math.pi if p == 0.0 else _a_p(p))
        elif p > 2.0:
            want = ("infinite", None)
        elif seq == "spike":
            want = ("zero", 0.0)
        else:
            # block, p in (-1/2, 2): zero, or ARE in (0, a_p]
            if v.tag == "zero" and v.value == 0.0:
                return []
            want = ("interval", 2.0 / math.pi if p == 0.0 else _a_p(p))
        tag, value = want
        if v.tag != tag:
            return [f"verdict {v.tag} != {tag}"]
        if value is None:
            return [] if v.value is None else [f"value {v.value} for an infinite verdict"]
        rel = 1e-6 if p == 0.0 else 1e-10
        return [] if _close(v.value, value, rel) else [f"value {v.value!r} != {value!r}"]

    def _check_are_finite(self, p, dd, v):
        if dd == 1 or p == 2.0:
            return [] if abs(v - 1.0) <= 1e-8 else [f"are_finite {v!r} != 1"]
        return [] if math.isfinite(v) and v > 0 else [f"are_finite {v!r} not > 0"]


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

MC_PS = (-INF, -2.0, -0.5, 0.0, 1.0, 2.0, 3.0, INF)


def _binom_tol(p0: float, hw: float, reps: int) -> float:
    """4 CI half-widths: the estimate's own, or the exact value's binomial one."""
    return 4.0 * max(hw, 1.959964 * math.sqrt(p0 * (1.0 - p0) / reps)) + 1.0 / reps


class MonteCarlo:
    """Simulate queries: an empirical critical value, then the empirical power
    at it.  Three shapes, threads alternating 2, 1, 2, ... by position."""

    name = "montecarlo"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        if tiny:
            mid, narrow, wide = (200, 2000), (10, 20_000), (10_000, 1000)
        else:
            mid, narrow, wide = (1000, 8388), (10, 1_000_000), (100_000, 1000)
        self.mid = mid
        plan = [("mid", p, *mid) for p in MC_PS]
        plan += [("narrow", p, *narrow) for p in MC_PS]
        plan += [("wide", INF, *wide)]
        rng = _rng(seed, 2)
        self.items = []
        for k, (shape, p, d, reps) in enumerate(plan):
            shift = 1.5 * d ** -0.25 * (0.5 + rng.uniform(size=d))
            self.items.append(dict(label=f"simulate {shape} p={p}", shape=shape, p=p, d=d,
                                   reps=reps, shift=shift, threads=2 if k % 2 == 0 else 1,
                                   cv_rng=RngStream(seed, 2 * k), pw_rng=RngStream(seed, 2 * k + 1)))
        self.size_threads = 2 if len(self.items) % 2 == 0 else 1
        self.results = {}

    def queries(self):
        out = [(it["label"], lambda it=it: self._simulate(it, it["threads"])) for it in self.items]
        out.append(("size_multi mid", self._size_multi))
        return out

    def _simulate(self, it, threads):
        p, d, reps = it["p"], it["d"], it["reps"]
        cv = mc.empirical_critval(p, d, ALPHA, reps, it["cv_rng"], threads=threads)
        pw = mc.empirical_power(p, d, it["shift"], cv.estimate, reps, it["pw_rng"], threads=threads)
        self.results[it["label"]] = (cv, pw)
        return cv, pw

    def _size_multi(self):
        d, reps = self.mid
        crit = {p: self.results[f"simulate mid p={p}"][0].estimate for p in MC_PS}
        return mc.empirical_size_multi(list(MC_PS), d, crit, reps, RngStream(self.seed, 999),
                                       threads=self.size_threads)

    def check(self, label, res):
        if label == "size_multi mid":
            return [f"size at p={p} is {r.estimate} (hw {r.half_width})" for p, r in res.items()
                    if not abs(r.estimate - ALPHA) <= 4.0 * math.sqrt(2.0) * r.half_width + 1e-12]
        it = next(i for i in self.items if i["label"] == label)
        cv, pw = res
        p, d, reps, s = it["p"], it["d"], it["reps"], it["shift"]
        fails = []
        if not (cv.estimate > 0 and cv.half_width > 0 and 0.0 <= pw.estimate <= 1.0):
            fails.append(f"degenerate result {cv}, {pw}")
        c = cv.estimate
        want_cv = want_pw = None
        if p == 2.0:
            want_cv = math.sqrt(stats.chi2.ppf(1.0 - ALPHA, d) / d)
            want_pw = float(stats.ncx2.sf(d * c * c, d, float(np.sum(s * s))))
        elif p == INF:
            want_cv = special.ndtri((1.0 + (1.0 - ALPHA) ** (1.0 / d)) / 2.0)
            inside = special.ndtr(c - s) - special.ndtr(-c - s)
            want_pw = 1.0 - math.exp(float(np.sum(np.log(inside))))
        elif p == -INF:
            want_cv = special.ndtri(1.0 - ALPHA ** (1.0 / d) / 2.0)
            inside = special.ndtr(c - s) - special.ndtr(-c - s)
            want_pw = math.exp(float(np.sum(np.log1p(-inside))))
        if want_cv is not None and abs(c - want_cv) > 4.0 * cv.half_width:
            fails.append(f"critval {c!r} vs exact {want_cv!r} (hw {cv.half_width})")
        if want_pw is not None and abs(pw.estimate - want_pw) > _binom_tol(want_pw, pw.half_width, reps):
            fails.append(f"power {pw.estimate!r} vs exact {want_pw!r} (hw {pw.half_width})")
        if it["shape"] == "mid":
            other = 3 - it["threads"]
            cv2 = mc.empirical_critval(p, d, ALPHA, reps, it["cv_rng"], threads=other)
            pw2 = mc.empirical_power(p, d, s, c, reps, it["pw_rng"], threads=other)
            if (cv2.estimate, cv2.half_width, pw2.estimate) != (cv.estimate, cv.half_width, pw.estimate):
                fails.append(f"{other}-thread result differs: {cv2}, {pw2}")
        return fails


# ---------------------------------------------------------------------------
# stablelaw
# ---------------------------------------------------------------------------

STABLE_PS = (-2.0, -1.5, -1.0, -0.7, -0.6)
LIMIT_PS = (-2.0, -1.0, -0.7)
SAMPLE_SEED = 20_240_601   # the sampler's streams; see README


class StableLawWorkload:
    """Quantile grids, CDF grids, sampler KS fits and limit-law KS fits of the
    one-sided stable laws; one adaptive quad per CDF point."""

    name = "stablelaw"

    def __init__(self, seed: int, tiny: bool = False):
        rng = _rng(seed, 3)
        self.ps = (-2.0, -0.7) if tiny else STABLE_PS
        self.limit_ps = (-2.0,) if tiny else LIMIT_PS
        nlev, self.nx, self.ndraw = (3, 4, 50) if tiny else (9, 20, 100)
        self.levels = {}
        self.offsets = {}
        for p in self.ps:
            # fixed levels: where a quantile solve starts and stops sets its cost
            self.levels[p] = np.linspace(0.01, 0.99, nlev)
            self.offsets[p] = rng.uniform(0.0, 1.0, self.nx)
        self.limit_d, self.limit_nrep = (200, 100) if tiny else (1000, 200)
        self.limit_seed = int(rng.integers(0, 2 ** 31))
        self.laws = {p: stable.StableLaw(p, moments.b_p(p)) for p in self.ps}
        self.quantiles = {}

    def queries(self):
        out = []
        for i, p in enumerate(self.ps):
            out.append((f"quantiles p={p}", lambda p=p: self._quantiles(p)))
            out.append((f"cdf p={p}", lambda p=p: self._cdf_grid(p)))
            out.append((f"ks sample p={p}", lambda p=p, i=i: self._sample_ks(p, i)))
        for j, p in enumerate(self.limit_ps):
            out.append((f"limit_law_ks p={p}", lambda p=p, j=j: mc.limit_law_ks(
                p, self.limit_d, self.limit_nrep, RngStream(self.limit_seed, j))))
        return out

    def _quantiles(self, p):
        q = np.array([stable.stable_quantile(self.laws[p], float(v)) for v in self.levels[p]])
        self.quantiles[p] = q
        return q

    def _cdf_grid(self, p):
        q = self.quantiles[p]
        xs = q[0] + (q[-1] - q[0]) * (np.arange(self.nx) + self.offsets[p]) / self.nx
        return xs, stable.stable_cdf(self.laws[p], xs)

    def _sample_ks(self, p, i):
        law = self.laws[p]
        x = stable.stable_sample(law, self.ndraw, RngStream(SAMPLE_SEED, i))
        return mc.ks_distance(x, lambda v: stable.stable_cdf(law, v))

    def check(self, label, res):
        kind, p = label.rsplit(" p=", 1)
        p = float(p)
        fails = []
        if kind == "quantiles":
            F = stable.stable_cdf(self.laws[p], res)
            err = float(np.max(np.abs(F - self.levels[p])))
            if not err <= 1e-8:
                fails.append(f"|F(Q(q)) - q| = {err}")
            if not np.all(np.diff(res) > 0):
                fails.append("quantiles not increasing")
            if p == -2.0:
                lev = float(np.max(np.abs(_levy_cdf(res) - self.levels[p])))
                if not lev <= 1e-8:
                    fails.append(f"Levy closed form at the quantiles off by {lev}")
        elif kind == "cdf":
            xs, F = res
            if not (np.all(np.diff(F) >= 0) and np.all((F >= 0) & (F <= 1))):
                fails.append("CDF not non-decreasing within [0, 1]")
            if p == -2.0:
                lev = float(np.max(np.abs(F - _levy_cdf(xs))))
                if not lev <= 1e-12:
                    fails.append(f"Levy closed form off by {lev}")
        elif kind == "ks sample":
            if not res < 1.63 / math.sqrt(self.ndraw):
                fails.append(f"sampler KS {res} >= 1.63/sqrt({self.ndraw})")
        elif not res.distance < LIMIT_LAW_KS_BOUND:
            fails.append(f"limit_law_ks {res.distance} >= {LIMIT_LAW_KS_BOUND}")
        return fails


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# config keys whose flag differs from --<key>
_FLAG = {"lo": "--from", "hi": "--to"}


def config_argv(config: dict) -> list:
    """Turn an echoed config back into a command line."""
    argv = [config["cmd"]]
    for key, value in sorted(config.items()):
        if key == "cmd" or value is None:
            continue
        flag = _FLAG.get(key, "--" + key)
        if isinstance(value, bool):
            if value:
                argv.append(flag)
            continue
        argv += [flag, str(value)]
    return argv


def _round12(x):
    return float(f"{x:.12g}")


class Cli:
    """Fresh `python -m pmean.cli` processes, one at a time."""

    name = "cli"

    def __init__(self, seed: int, tiny: bool = False):
        rng = _rng(seed, 4)
        t_pow = round(0.10 + 0.04 * rng.uniform(), 6)
        t_ss = round(0.04 + 0.02 * rng.uniform(), 6)
        v = round(0.3 + 0.5 * rng.uniform(), 6)
        s_sim, s_ks, s_schur = (int(x) for x in rng.integers(0, 2 ** 31, 3))
        cmds = [
            ("version", ["version"]),
            ("critval p=3", ["critval", "--p", "3", "--d", "10000", "--alpha", "0.05"]),
            ("critval p=-1", ["critval", "--p", "-1", "--d", "10000", "--alpha", "0.05"]),
            ("critval p=2", ["critval", "--p", "2", "--d", "1000", "--alpha", "0.05"]),
            ("power", ["power", "--p", "3", "--d", "1000", "--alpha", "0.05",
                       "--shift", f"equalized:{t_pow}"]),
            ("samplesize", ["samplesize", "--p", "1", "--d", "1000", "--alpha", "0.05",
                            "--beta", "0.8", "--theta", f"equalized:{t_ss}"]),
            ("feasible", ["feasible", "--p", "-2", "--d", "10000", "--alpha", "0.05",
                          "--beta", "0.8", "--u", "block:100:1.0"]),
            ("are", ["are", "--p", "3", "--alpha", "0.05", "--beta", "0.8", "--useq", "spike"]),
            ("are-finite", ["are-finite", "--p", "1", "--d", "2", "--u", f"1,{v}",
                            "--alpha", "0.05", "--beta", "0.8"]),
            ("ap-curve", ["ap-curve", "--from", "-0.49", "--to", "8", "--step", "0.01",
                          "--format", "json"]),
            ("verify-ap", ["verify-ap", "--from", "-0.499", "--to", "50", "--step", "0.001"]),
            ("simulate", ["simulate", "--p", "3", "--d", "100", "--alpha", "0.05",
                          "--reps", "20000", "--seed", str(s_sim), "--shift", "equalized:0.3"]),
            ("ks", ["ks", "--p", "-2", "--d", "1000", "--nrep", "200", "--seed", str(s_ks)]),
            ("schur2-check", ["schur2-check", "--p", "1", "--d", "2", "--c", "1.5",
                              "--v", "1.4142135623730951,0", "--w", "1,1",
                              "--reps", "100000", "--seed", str(s_schur)]),
        ]
        if tiny:
            cmds = [c for c in cmds if c[0] in ("version", "critval p=2", "feasible", "ks")]
        self.cmds = cmds

    @staticmethod
    def expected_exit(label: str) -> int:
        return 3 if label == "feasible" else 0

    def check(self, label, res):
        """res = (exit code, stdout text)."""
        import pmean
        from pmean import cli as pcli
        code, text = res
        want_code = self.expected_exit(label)
        if code != want_code:
            return [f"exit {code} != {want_code}"]
        doc = json.loads(text)
        cfg, out = doc["config"], doc["result"]
        fails = []
        buf = io.StringIO()
        with redirect_stdout(buf):
            rerun_code = pcli.run(config_argv(cfg))
        if rerun_code != code or buf.getvalue() != text:
            fails.append("re-running the echoed config does not reproduce the output")
        r12 = _round12
        cmd = cfg["cmd"]
        if cmd == "version":
            want = {"version": pmean.__version__}
        elif cmd == "critval":
            p, d = pcli.parse_p(cfg["p"]), cfg["d"]
            c = hypotest.critical_value(p, d, cfg["alpha"]).value
            want = {"critical_value": r12(c), "method": "asymptotic"}
            if p == 2.0:
                z = special.ndtri(1.0 - cfg["alpha"])
                if not _close(out["critical_value"], math.sqrt(1.0 + z * math.sqrt(2.0 / d)), 1e-11):
                    fails.append(f"critval p=2 {out['critical_value']} != sqrt(1 + z sqrt(2/d))")
        elif cmd == "power":
            shift = pcli.parse_vector(cfg["shift"], cfg["d"])
            want = {"power": r12(hypotest.power_asymptotic(pcli.parse_p(cfg["p"]), cfg["d"],
                                                           cfg["alpha"], shift))}
        elif cmd == "samplesize":
            theta = pcli.parse_vector(cfg["theta"], cfg["d"])
            plan = TestPlan(pcli.parse_p(cfg["p"]), cfg["d"], cfg["alpha"], cfg["beta"], theta)
            want = {"n": hypotest.sample_size(plan), "shift_scale": r12(hypotest.as_shift_scale(plan))}
        elif cmd == "feasible":
            u = pcli.parse_vector(cfg["u"], cfg["d"])
            f = hypotest.feasibility(TestPlan(pcli.parse_p(cfg["p"]), cfg["d"], cfg["alpha"],
                                              cfg["beta"], u))
            want = {"feasible": f.feasible, "threshold": r12(f.threshold), "d0": f.d0}
            thr = closed_form_threshold(-2.0, cfg["d"], cfg["alpha"], cfg["beta"])
            if not _close(out["threshold"], thr, 1e-8):
                fails.append(f"threshold {out['threshold']} != Levy closed form {thr}")
        elif cmd == "are":
            v = are.classify_are(pcli.parse_p(cfg["p"]), are.spike_sequence(), cfg["alpha"], cfg["beta"])
            want = {"tag": v.tag, "value": v.value}
        elif cmd == "are-finite":
            u = pcli.parse_vector(cfg["u"], cfg["d"])
            want = {"are": r12(are.are_finite(pcli.parse_p(cfg["p"]), cfg["d"], u,
                                              cfg["alpha"], cfg["beta"]))}
        elif cmd == "ap-curve":
            ps = np.round(np.arange(cfg["lo"], cfg["hi"] + cfg["step"] / 2.0, cfg["step"]), 9)
            want = {"header": ["p", "a_p"],
                    "rows": [[r12(float(x)) for x in row] for row in are.ap_curve(ps)]}
        elif cmd == "verify-ap":
            grid = np.arange(cfg["lo"], cfg["hi"] + cfg["step"] / 2.0, cfg["step"])
            grid = grid[(np.abs(grid) > 1e-12) & (np.abs(grid - 2.0) > 1e-12) & (grid > -0.5)]
            rep = are.verify_ap_bound(grid)
            want = {"points": int(rep.grid.size), "r_violations": rep.r_violations,
                    "partial_violations": rep.partial_violations,
                    "r_margin_min": r12(rep.r_margin_min),
                    "partial_margin_min": r12(rep.partial_margin_min), "ok": rep.ok}
        elif cmd == "simulate":
            p, d, reps, seed = pcli.parse_p(cfg["p"]), cfg["d"], cfg["reps"], cfg["seed"]
            cv = mc.empirical_critval(p, d, cfg["alpha"], reps, RngStream(seed, 1_000_003))
            r = mc.empirical_power(p, d, pcli.parse_vector(cfg["shift"], d), cv.estimate, reps,
                                   RngStream(seed, 0))
            want = {"estimate": r12(r.estimate), "half_width": r12(r.half_width),
                    "critical_value": r12(cv.estimate)}
        elif cmd == "ks":
            fit = mc.limit_law_ks(pcli.parse_p(cfg["p"]), cfg["d"], cfg["nrep"],
                                  RngStream(cfg["seed"], 0))
            want = {"distance": r12(fit.distance), "law": fit.law}
        else:
            r = mc.schur2_check(pcli.parse_p(cfg["p"]), cfg["d"], cfg["c"],
                                pcli.parse_vector(cfg["v"], cfg["d"]),
                                pcli.parse_vector(cfg["w"], cfg["d"]), cfg["reps"],
                                RngStream(cfg["seed"], 0))
            want = {"tag": r.tag, "prob_v": r12(r.prob_v.estimate),
                    "prob_w": r12(r.prob_w.estimate), "z_score": r12(r.z_score)}
        if out != want:
            fails.append(f"result {out} != library {want}")
        return fails


def run_cli(root: Path, argv: list, trace_file: Path | None = None):
    """One CLI process; returns (exit code, stdout, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    if trace_file is None:
        cmd = [sys.executable, "-m", "pmean.cli", *argv]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("clitrace.py")), str(trace_file), *argv]
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, perf_counter() - t0


WORKLOADS = {w.name: w for w in (Plan, MonteCarlo, StableLawWorkload, Cli)}
