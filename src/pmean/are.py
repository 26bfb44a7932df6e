"""Asymptotic relative efficiency of the p-mean test against the 2-mean test.

Covers the equalized-direction efficiency constant a_p and its Gamma-ratio
bound, the positive-homogeneous direction functional ||.||_{p,2} governing the
p < 2 phase transition, the large-d phase-transition classifier, exact
finite-d ARE for d <= 3 by a tanh-sinh recursion over the coordinates, and
the block construction attaining intermediate ARE values.

For p in (-1/2, infinity) the constant collapses to

    a_p = |p| / sqrt(2 (r(p) - 1)),    r(p) = Gamma(1/2) Gamma(p+1/2) / Gamma((p+1)/2)^2,

which is the form used throughout: expm1 for r - 1, and ln r from
``moments._ln_r``, with its Taylor branch around the removable point p = 0.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import special as sf
from .moments import _check_beta, _ln_r, extended_p, lambda_p, regime_row
from .numcore import (GAUSS_TAIL_RADIUS, AccuracyError, BracketError, DomainError,
                      IndeterminateGrowthError, find_root, normal_pdf, tanh_sinh)
from .hypotest import level_pmean, level_set, pmean


def gamma_ratio(p) -> np.ndarray:
    """r(p) = Gamma(1/2) Gamma(p+1/2) / Gamma((p+1)/2)^2 for p > -1/2."""
    if np.any(np.asarray(p, dtype=float) <= -0.5):
        raise DomainError("gamma_ratio requires p > -1/2")
    out = np.exp(_ln_r(p))
    return float(out) if out.ndim == 0 else out


def a_p(p) -> float:
    """The equalized-direction ARE constant; extended by 0 on [-inf,-1/2] and
    past p = 1e4, where it underflows, by 2/pi at p = 0, and exactly 1 at p = 2."""
    v = extended_p(p)
    if v == 2.0:
        return 1.0
    if v == 0.0:
        return 2.0 / math.pi
    if v <= -0.5 or v > 1e4:
        return 0.0
    lnr = float(_ln_r(v))
    if lnr > 700.0:   # r - 1 = r, which overflows past p ~ 1024: |p| / sqrt(2 r) in logs
        return math.exp(math.log(v) - 0.5 * (math.log(2.0) + lnr))
    return abs(v) / math.sqrt(2.0 * float(np.expm1(lnr)))


def a_p_moment_route(p: float) -> float:
    """a_p via the sufficient-shift constants: (K_2/K_p) |p| lambda_p(0) / 2, with
    K_2/K_p = sqrt(2 / (lambda_2p(0) - lambda_p(0)^2)).  The moments at s = 0 come
    from their closed form 2^{p/2} Gamma((p+1)/2) / sqrt(pi), so this checks the
    algebra of the Gamma-ratio route in ``a_p``, not its Gamma values."""
    if not (-0.5 < p) or p == 0.0 or not math.isfinite(p):
        raise DomainError("moment route needs finite p in (-1/2, inf), p != 0")
    lam_p0 = lambda_p(p, 0.0)
    lam_2p0 = lambda_p(2.0 * p, 0.0)
    # K_2 / K_p = sqrt(lambda_{2,2}(0) / lambda_{p,2}(0)); the quantile factor cancels
    ratio = math.sqrt(2.0 / (lam_2p0 - lam_p0 ** 2))
    return ratio * abs(p) * lam_p0 / 2.0


# ---------------------------------------------------------------------------
# Gamma-ratio bound r(p) > 1 + p^2/2
# ---------------------------------------------------------------------------

def r1(p):
    p = np.asarray(p, dtype=float)
    return (p + 1.0) ** 2 / (2.0 * p + 1.0)


def r2(p):
    p = np.asarray(p, dtype=float)
    out = (p + 1.0) ** 2 / 3.0
    for j in (1, 2, 3):
        out = out * ((p + 1.0) / 2.0 + j) ** 2 / ((1.5 + j) * (p - 0.5 + j))
    return out


def r3(p):
    p = np.asarray(p, dtype=float)
    out = np.exp((p - 0.5) * math.log(2.0))
    for j in (0, 1):
        out = out * ((p + 1.0) / 2.0 + j) ** 2 / ((p / 2.0 + 0.25 + j) * (p / 2.0 + 0.75 + j))
    return out


# h^2, h^3 and h^4 coefficients (40-digit mpmath) of r(2+h) and r2(2+h) less 1 + (2+h)^2/2:
# both touch the bound at p = 2 (value 3, slope 2), where their quadratic margins fall below
# the rounding of numbers near 3; within |h| < 1e-3 the h^5 terms are below 2e-11 of them
_AT_TWO = np.array([[0.20110165040850948, 0.15660235868446966, 0.028844091486359215],
                    [0.051594860166288738, 0.071784520510144093, 0.0058157307188153389]])


@dataclass(frozen=True)
class ApBoundReport:
    grid: np.ndarray
    r_values: np.ndarray
    bound: np.ndarray                 # 1 + p^2/2
    r_margin_min: float               # min of r - bound over the grid
    partial_margin_min: float         # min of max(r1,r2,r3) - bound
    r_violations: int
    partial_violations: int

    @property
    def ok(self) -> bool:
        return self.r_violations == 0 and self.partial_violations == 0


def verify_ap_bound(p_grid) -> ApBoundReport:
    """Check r(p) > 1 + p^2/2 and max(r1, r2, r3)(p) > 1 + p^2/2 on a grid
    excluding the equality points {0, 2}.  DomainError where a term leaves the doubles,
    as r3 does past p ~ 1006.5, since a margin that overflowed verifies nothing.  The
    margins keep their digits where they are quadratic in p: r's is expm1(ln r) - p^2/2,
    r1's p^2 (1 - 2p) / (2 (2p + 1)), and r's and r2's near 2 are Taylor polynomials."""
    grid = np.asarray(p_grid, dtype=float)
    if np.any(grid <= -0.5):
        raise DomainError("grid must lie in (-1/2, inf)")
    if np.any(grid == 0.0) or np.any(grid == 2.0):
        raise DomainError("grid must exclude the equality points 0 and 2")
    with np.errstate(over="ignore", invalid="ignore"):
        bound = 1.0 + grid ** 2 / 2.0
        r_rise = np.expm1(_ln_r(grid))
        r, r2_val, r3_val = 1.0 + r_rise, r2(grid), r3(grid)
        rbest = np.maximum(np.maximum(r1(grid), r2_val), r3_val)
    bad = grid[~(np.isfinite(r) & np.isfinite(bound) & np.isfinite(rbest))]
    if bad.size:
        raise DomainError(f"r(p), 1 + p^2/2 or a partial bound r1, r2, r3 leaves the doubles "
                          f"at p = {float(bad[0])!r}")
    h = grid - 2.0
    taylor = h * h * (_AT_TWO[:, :1] + h * (_AT_TWO[:, 1:2] + h * _AT_TWO[:, 2:]))
    near_two = np.abs(h) < 1e-3
    r_margin = np.where(near_two, taylor[0], r_rise - 0.5 * grid ** 2)
    part_margin = np.maximum(np.where(near_two, taylor[1], r2_val - bound), np.maximum(
        r3_val - bound, grid ** 2 * (1.0 - 2.0 * grid) / (2.0 * (2.0 * grid + 1.0))))
    return ApBoundReport(
        grid=grid, r_values=r, bound=bound,
        r_margin_min=float(r_margin.min()),
        partial_margin_min=float(part_margin.min()),
        r_violations=int(np.count_nonzero(r_margin <= 0.0)),
        partial_violations=int(np.count_nonzero(part_margin <= 0.0)),
    )


def ap_curve(p_samples, with_transform: bool = False) -> np.ndarray:
    """Tabulate (p, a_p); with_transform adds the figure coordinates
    (psi(p/4), psi(a_p)) with psi(x) = 2x / (2|x| + 3)."""

    def psi(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * x / (2.0 * np.abs(x) + 3.0)

    ps = np.asarray(list(p_samples), dtype=float)
    avals = np.array([a_p(v) for v in ps])
    if not with_transform:
        return np.column_stack([ps, avals])
    return np.column_stack([ps, avals, psi(ps / 4.0), psi(avals)])


# ---------------------------------------------------------------------------
# The ||.||_{p,2} functional
# ---------------------------------------------------------------------------

def _log_g(p: float, row) -> Callable[[np.ndarray], np.ndarray]:
    """l -> g_p(e^l) for p in (-1/2, 2), taking l = ln|s| so that nothing
    overflows however small t gets."""
    if p == 0.0:
        # s^2 / e^2 up to s = e, ln s beyond
        return lambda l: np.where(l <= 1.0, np.exp(2.0 * np.minimum(l, 1.0) - 2.0), l)
    if p > 0.0:
        # s^2 up to s = 1, s^p beyond
        return lambda l: np.exp(np.where(l <= 0.0, 2.0 * l, p * l))
    # p in (-1/2, 0): g_p = f_p = lambda_p(0) - lambda_p(s), bounded by lambda_p(0),
    # its value at s = e^l = inf
    def g(l):
        with np.errstate(over="ignore"):
            return row.f(np.exp(l))

    return g


def orlicz_norm(p: float, alpha: float, beta: float, v) -> float:
    """||v||_{p,2} = inf{ t > 0 : sum_j g_p(v_j / t) <= K_p sqrt(d) }; may be 0
    for p in (-1/2, 0), where g_p is bounded."""
    if not -0.5 < p < 2.0:
        raise DomainError(f"orlicz_norm requires p in (-1/2, 2), got {p}")
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DomainError("v must be a nonempty vector")
    return _orlicz_norm(p, alpha, beta, level_set(v))


def _orlicz_norm(p: float, alpha: float, beta: float, levels) -> float:
    vals, counts = levels
    d = int(counts.sum())
    row = regime_row(p, alpha, max(d, 2))
    budget = row.K(beta) * math.sqrt(d)
    vals, counts = vals[vals != 0.0], counts[vals != 0.0]
    if vals.size == 0 or counts.sum() * row.f_sup <= budget:
        return 0.0
    logs = np.log(vals)
    g = _log_g(p, row)

    def excess(log_t):
        return float(np.dot(counts, g(logs - log_t))) - budget

    return math.exp(find_root(excess, logs[-1] - 40.0, logs[-1] + 5.0, tol=1e-12))


# ---------------------------------------------------------------------------
# Phase-transition classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectionSequence:
    """A varying <.>_2-unit direction d -> u(d), probed at finitely many dims.
    ``classify_are`` reads u(d) only as its level set (``levels_at``): one
    ``np.unique`` of the checked probe, or, for the library's block sequences,
    a closed form that builds no vector of length d."""

    generator: Callable[[int], np.ndarray]
    probe_dims: tuple = (100, 10_000, 1_000_000)
    _levels: Optional[Callable[[int], tuple]] = field(default=None, repr=False)

    def probe(self, d: int) -> np.ndarray:
        u = np.asarray(self.generator(int(d)), dtype=float)
        if u.shape != (d,):
            raise DomainError(f"generator returned shape {u.shape} for d={d}")
        if abs(pmean(2.0, u) - 1.0) > 1e-12:
            raise DomainError(f"u(d={d}) is not <.>_2-unit")
        return u

    def levels_at(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The level set of u(d): of the checked ``probe(d)``, or in closed form."""
        return level_set(self.probe(d)) if self._levels is None else self._levels(d)


def _blocks(k: Callable[[int], int]) -> DirectionSequence:
    """u(d) with k(d) equal coordinates sqrt(d / k(d)), clipped to [1, d], and
    zeros elsewhere; its level set in closed form."""
    def levels(d):
        kd = max(1, min(d, k(d)))
        return np.array([0.0, math.sqrt(d / kd)])[kd == d:], np.array([d - kd, kd])[kd == d:]

    return DirectionSequence(lambda d: np.repeat(*levels(d))[::-1], _levels=levels)


def equalized_sequence() -> DirectionSequence:
    return _blocks(lambda d: d)


def spike_sequence() -> DirectionSequence:
    return _blocks(lambda d: 1)


def block_sequence(gamma: float) -> DirectionSequence:
    """u(d) with ceil(d^gamma) equal coordinates and zeros elsewhere."""
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"block exponent must be in [0,1], got {gamma}")
    return _blocks(lambda d: int(math.ceil(d ** gamma)))


@dataclass(frozen=True)
class AREVerdict:
    tag: str                      # "zero" | "finite" | "infinite" | "interval"
    value: Optional[float]        # the ARE for "finite"; a_p for "interval" upper end
    rationale: str

    @property
    def interval(self) -> Optional[tuple[float, float]]:
        return (0.0, self.value) if self.tag == "interval" else None


GROWTH_DEAD_BAND = 0.02


def _log_slope(dims: np.ndarray, ratios: np.ndarray) -> float:
    x = np.log(dims)
    y = np.log(ratios)
    x = x - x.mean()
    return float(np.dot(x, y) / np.dot(x, x))


def classify_are(p, useq: DirectionSequence, alpha: float, beta: float) -> AREVerdict:
    """Large-d ARE verdict for the direction sequence, decided from the probes'
    growth against the phase-transition threshold by log-log regression.

    The probe dimensions must span at least 3 decades.  For p in (2, inf) and
    p = inf, a regression slope inside the dead band raises
    IndeterminateGrowthError rather than guessing a side.
    """
    _check_beta(alpha, beta)
    v = extended_p(p)
    dims = np.asarray(sorted(useq.probe_dims), dtype=float)
    if len(dims) < 3 or dims[-1] / dims[0] < 999.0:
        raise DomainError("probe dimensions must span at least 3 decades")

    if v == 2.0:
        return AREVerdict("finite", 1.0, "p = 2: the tests coincide up to critical value")
    if v <= -0.5:
        return AREVerdict("zero", 0.0, "p in [-inf, -1/2]: ARE vanishes for every direction")

    levels = [useq.levels_at(int(d)) for d in dims]
    equalized = all(lv[-1] - lv[0] <= 1e-12 for lv, _ in levels)   # every |u_j| within 1e-12

    if v > 2.0:
        # <u>_p against d^((p-2)/(4p)); <u>_inf = max|u_j| against d^(1/4) sqrt(ln d), a_inf = 0
        if v == math.inf:
            name, scale, where, tail = "inf", "d^(1/4) sqrt(ln d)", "the p=inf threshold", ""
            thr = dims ** 0.25 * np.sqrt(np.log(dims))
        else:
            expo = (v - 2.0) / (4.0 * v)
            name, scale, where, tail = "p", f"d^({expo:.4g})", "the threshold exponent", "; ARE = a_p"
            thr = dims ** expo
        slope = _log_slope(dims, np.array([level_pmean(v, lv) for lv in levels]) / thr)
        if slope < -GROWTH_DEAD_BAND:
            return AREVerdict("finite" if tail else "zero", a_p(v),
                              f"<u>_{name} << {scale}: slope {slope:+.4f}{tail}")
        if slope > GROWTH_DEAD_BAND:
            return AREVerdict("infinite", None, f"<u>_{name} >> {scale}: slope {slope:+.4f}")
        raise IndeterminateGrowthError(
            f"growth slope {slope:+.4f} within +-{GROWTH_DEAD_BAND} of {where}")

    # p in (-1/2, 2)
    if equalized:
        return AREVerdict("finite", a_p(v), "equalized direction: ARE = a_p")
    vals = np.array([_orlicz_norm(v, alpha, beta, lv) for lv in levels])
    if np.any(vals == 0.0):
        return AREVerdict("zero", 0.0, "||u||_{p,2} = 0 at a probe dimension")
    slope = _log_slope(dims, vals / dims ** 0.25)
    if slope < -GROWTH_DEAD_BAND:
        return AREVerdict("zero", 0.0, f"||u||_{{p,2}} << d^(1/4): slope {slope:+.4f}")
    return AREVerdict("interval", a_p(v),
                      f"||u||_{{p,2}} of order d^(1/4) (slope {slope:+.4f}); ARE in (0, a_p]")


_LOG_DBL_MAX = math.log(sys.float_info.max)


def attaining_sequence(p: float, target: float, alpha: float, beta: float) -> DirectionSequence:
    """Block direction sequence whose ARE converges to ``target``: k(d) blocks of
    equal coordinates sized so the block shift solves the sufficient-shift
    equation at scale s* with (K_2/K_p) f_p(s*)/s*^2 = target."""
    if not (math.isfinite(p) and p > -0.5 and p not in (0.0, 2.0)):
        raise DomainError("attaining_sequence supports finite p in (-1/2, 2) u (2, inf), p not 0 or 2")
    apv = a_p(p)
    lo_val, hi_val = (0.0, apv) if p < 2.0 else (apv, math.inf)
    if not lo_val < target < hi_val:
        raise DomainError(f"target {target} outside the attainable open interval "
                          f"({lo_val}, {hi_val}) for p={p}")
    rowp = regime_row(p, alpha, 2)
    K2, Kp = regime_row(2.0, alpha, 2).K(beta), rowp.K(beta)
    log_target = math.log(target * Kp / K2)

    def f_at(log_s):
        # past the largest double, s = inf and f_p takes its limit
        return float(rowp.f(math.exp(log_s) if log_s < _LOG_DBL_MAX else math.inf))

    def gap(log_s):
        # ln(K2 f_p(s) / (Kp s^2 target)): f_p(s) and s^2 overflow (from ln s of
        # about 709/p and 355) where the ratio is still a double; where f_p(s)
        # overflows it is s^p to a relative p^2/s^2
        f = f_at(log_s)
        if f == math.inf:
            log_f = p * log_s
        else:   # f rounds to 0 at scales too small to resolve it
            log_f = math.log(f) if f > 0.0 else -math.inf
        return log_f - 2.0 * log_s - log_target

    # the ratio runs from a_p at s -> 0 monotonically to 0 (p < 2) or to
    # infinity (p > 2)
    f_star = f_at(find_root(gap, math.log(1e-3), 0.0, tol=1e-12))
    return _blocks(lambda d: int(round(Kp * math.sqrt(d) / f_star)))


# ---------------------------------------------------------------------------
# Exact finite-d ARE (d <= 3)
# ---------------------------------------------------------------------------

# Widest spacing of doubles at which _prob_rows integrates a window around a
# shift s: the rule's nodes there are rounded to that spacing, which moved
# the result by up to 0.03 times it (p in {-2, -1, -1/2}, d = 2, s from 8 to
# 1.4e17, against a quad over the one unshifted coordinate); past 2^-36, where
# s + GAUSS_TAIL_RADIUS >= 2^17, that error could pass 5e-13.
_WINDOW_SPACING = 2.0 ** -36


def _prob_rows(p: float, r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """P(sum_j t(Z_j + v_j) <= r) for each remaining budget in r and shifts
    v >= 0, with t = |.|^p (ln|.| at p = 0) and >= in place of <= for p < 0.

    One coordinate at a time: the first is folded onto y = |z| >= 0 and
    integrated over the window |v_0| -+ GAUSS_TAIL_RADIUS, split at the
    Gaussian peak y = |v_0|.  Past the budget edge t(y) = r the rest is
    certain, so the rule covers only the side where it is not: below the
    edge for p > 0 (above it nothing is left), above it for p < 0 (below it
    the rest has probability 1, a closed-form normal piece).  Phi is scipy's
    vectorized ``ndtr``: a plan's recursions evaluate it at some 350k nodes.
    """
    from scipy.special import ndtr
    if p == 0.0:
        t, t_inv = np.log, np.exp
    else:
        t = lambda y: y ** p
        t_inv = lambda b: np.maximum(b, 0.0) ** (1.0 / p)
    edge = t_inv(r)                # the budget edge: t(edge) = r
    s = v[0]
    within = ndtr(edge - s) - ndtr(-edge - s)    # P(|Z + s| <= edge)
    if len(v) == 1:
        return within
    lo, hi = max(0.0, s - GAUSS_TAIL_RADIUS), s + GAUSS_TAIL_RADIUS
    if np.spacing(hi) > _WINDOW_SPACING:
        raise AccuracyError(f"the window {float(s)!r} -+ {GAUSS_TAIL_RADIUS} is not resolved "
                            "in doubles",
                            math.nan, float(np.spacing(hi)))
    a = np.clip(edge, lo, hi) if p < 0.0 else np.full_like(r, lo)
    b = np.clip(edge, lo, hi) if p > 0.0 else np.full_like(r, hi)
    peak = np.clip(s, a, b)
    a, b, rr = np.concatenate([a, peak]), np.concatenate([peak, b]), np.concatenate([r, r])
    keep = b > a                   # the halves left after the clipping

    def integrand(y):
        rest = _prob_rows(p, (rr[keep, None] - t(y)).ravel(), v[1:]).reshape(y.shape)
        return (normal_pdf(y - s) + normal_pdf(y + s)) * rest

    halves = np.zeros(rr.size)
    halves[keep] = tanh_sinh(integrand, a[keep, None], b[keep, None])
    sure = within if p < 0.0 else 0.0
    return sure + halves[:r.size] + halves[r.size:]


def _prob_le(pv: float, v: np.ndarray, c: float) -> float:
    """P(<Z + v>_p <= c) for d = len(v) in {1, 2, 3} and c >= 0: the region
    sum_j t(Z_j + v_j) <= d t(c) (>= for p < 0), by ``_prob_rows``."""
    v = np.asarray(v, dtype=float)
    if pv == math.inf:
        return float(np.prod(sf.ndtr(c - v) - sf.ndtr(-c - v)))
    if pv == -math.inf:
        return 1.0 - float(np.prod(1.0 - (sf.ndtr(c - v) - sf.ndtr(-c - v))))
    if len(v) not in (1, 2, 3):
        raise DomainError(f"finite-d ARE quadrature supports d in {{1,2,3}}, got {len(v)}")
    # largest shift outermost: the last coordinate's probability then turns
    # over at half-widths near the smallest shift, never in a thin layer at
    # the budget edge
    v = np.sort(np.abs(v))[::-1]
    with np.errstate(divide="ignore", over="ignore"):
        budget = len(v) * (np.log(c) if pv == 0.0 else np.float64(c) ** pv)
        if not math.isfinite(budget):
            # c = 0 or c^p out of range: a null region, or all of R^d for p > 0
            return float(pv > 0.0)
        return float(_prob_rows(pv, np.array([budget]), v)[0])


# Entries of the _exact_scale cache, one float each: a perfbench plan pass fills 22
_EXACT_SCALES = 256


@functools.lru_cache(maxsize=_EXACT_SCALES)
def _exact_scale(pv: float, u: tuple, alpha: float, beta: float) -> float:
    """The scale t solving P(<Z + t u>_p > c) = beta at the exact size-alpha
    critical value c of the p-mean test, for the <.>_2-unit direction u of
    d = len(u) coordinates.  BracketError when the power stays below beta at
    every scale.  Cached: the 2-mean leg of ``are_finite`` does not depend on p."""
    d, v = len(u), np.array(u)
    m = u.count(0.0)             # u's zero coordinates

    def size_gap(c):
        return (1.0 - _prob_le(pv, np.zeros(d), c)) - alpha

    c = find_root(size_gap, 0.0, 1.0, tol=1e-13)
    if pv < 0.0 and m:
        # as t grows, |Z_j + t u_j|^p -> 0 off u's m zero coordinates, so the
        # power tends to P(<Z>_p > c (d/m)^{1/p}) over those m alone
        limit = 1.0 - _prob_le(pv, np.zeros(m), c * (d / m) ** (1.0 / pv))
        if limit <= beta:
            raise BracketError(
                f"the power equation has no root: at p={pv:g} the power tends to "
                f"{limit:.6g} <= beta={beta} as the scale grows, held there by the "
                f"{m} zero coordinate(s) of u")

    def power_gap(t):
        return (1.0 - _prob_le(pv, t * v, c)) - beta

    return find_root(power_gap, 0.0, 1.0, tol=1e-13)


def are_finite(p, d: int, u, alpha: float, beta: float) -> float:
    """Exact finite-d ARE of the p-mean test vs the 2-mean test in the
    continuous-sample-size Gaussian model: t_2^2 / t_p^2 where t_r solves
    P(<Z + t u>_r > c_r) = beta at the exact size-alpha critical value c_r.
    BracketError when the power stays below beta at every scale t."""
    if not isinstance(d, (int, np.integer)) or d not in (1, 2, 3):
        raise DomainError(f"are_finite supports an integer d in {{1, 2, 3}}, got {d!r}")
    _check_beta(alpha, beta)
    u = np.asarray(u, dtype=float)
    if u.shape != (d,):
        raise DomainError(f"u must have dimension {d}")
    bad = u[~np.isfinite(u)]
    if bad.size:
        raise DomainError(f"u has a non-finite entry ({bad[0]})")
    norm = pmean(2.0, u)
    if norm == 0.0:
        raise DomainError("u must be nonzero")
    unit = tuple((u / norm).tolist())
    pv = extended_p(p)
    t2 = _exact_scale(2.0, unit, alpha, beta)
    tp = _exact_scale(pv, unit, alpha, beta)
    # the solves hold t to 1e-13: the ratio to 2e-13 (1/t2 + 1/tp) relative
    err = 2e-13 * (1.0 / t2 + 1.0 / tp) if t2 > 0.0 and tp > 0.0 else math.inf
    if not err <= 1e-6:
        raise AccuracyError(f"t_2={t2!r} or t_p={tp!r} is not resolved from 0 at beta={beta}",
                            math.nan, err)
    return t2 * t2 / (tp * tp)
