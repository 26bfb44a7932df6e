"""Gaussian shift moments and the nine-row regime table.

The central objects are the moment functions

    lambda_p(s)   = E|Z + s|^p                     (p > -1)
    lambda_pm(s)  = E| |Z+s|^p - lambda_p(s) |^m   (p > -1/m)
    log-moments   E ln|Z+s| and central absolute powers of ln|Z+s|
    mu_tilde_d(s) = E(|Z+s|^{-1} /\\ d)
    lambda_inf(s) = -ln P(|Z+s| <= c_{d,alpha})

and the regime table: one row per regime of the exponent p in [-inf, inf],
holding f_p, kappa_p and K_{alpha,beta;p}, which characterize asymptotically
sufficient shifts through  sum_j f_p(s_j) ~ K * kappa_p(d), together with
the limit law of the test statistic, its centering and scale, and what
follows from them: the power reached by a shift and the critical value.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import special as sf
from .numcore import (GAUSS_TAIL_RADIUS, SQRT_2PI, AccuracyError, DomainError, by_blocks,
                      gauss_expect, normal_pdf, tanh_sinh)
from .stable import EULER_GAMMA, StableLaw, stable_cdf, stable_quantile

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Exact-equality dispatch at p in {-1, -1/2, 0}; values within BOUNDARY_EPS of a
# boundary are snapped onto it (the regimes have different rates, so nearby
# finite p does not approximate the boundary row).
BOUNDARY_EPS = 1e-12
_BOUNDARIES = (-1.0, -0.5, 0.0)


class Regime(enum.Enum):
    NEG_INF = "p = -inf"
    BELOW_NEG_ONE = "p in (-inf, -1)"
    NEG_ONE = "p = -1"
    NEG_ONE_TO_NEG_HALF = "p in (-1, -1/2)"
    NEG_HALF = "p = -1/2"
    NEG_HALF_TO_ZERO = "p in (-1/2, 0)"
    ZERO = "p = 0"
    ZERO_TO_INF = "p in (0, inf)"
    POS_INF = "p = +inf"


def extended_p(p) -> float:
    """p as a float on the extended real line: a DomainError on NaN, and a value
    within BOUNDARY_EPS of a boundary snapped onto it with a warning."""
    v = float(p)
    if math.isnan(v):
        raise DomainError("p must not be NaN")
    for b in _BOUNDARIES:
        if v != b and abs(v - b) <= BOUNDARY_EPS:
            warnings.warn(
                f"p={v!r} snapped to boundary {b}; boundary regimes have "
                f"their own rates", stacklevel=2)
            return b
    return v


def regime_of(v: float) -> Regime:
    """The regime of an exponent from ``extended_p``, by exact comparison."""
    if v == -math.inf:
        return Regime.NEG_INF
    if v == math.inf:
        return Regime.POS_INF
    if v == -1.0:
        return Regime.NEG_ONE
    if v == -0.5:
        return Regime.NEG_HALF
    if v == 0.0:
        return Regime.ZERO
    if v < -1.0:
        return Regime.BELOW_NEG_ONE
    if v < -0.5:
        return Regime.NEG_ONE_TO_NEG_HALF
    if v < 0.0:
        return Regime.NEG_HALF_TO_ZERO
    return Regime.ZERO_TO_INF


# ---------------------------------------------------------------------------
# Moment functions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def lambda_p_zero(p: float) -> float:
    """Closed form lambda_p(0) = 2^{p/2} Gamma((p+1)/2) / sqrt(pi), p > -1."""
    if p <= -1.0:
        raise DomainError(f"lambda_p(0) requires p > -1, got {p}")
    # 2^(p/2) alone would raise OverflowError from p = 2048; gamma is inf by then
    out = 2.0 ** min(0.5 * p, 1023.0) * sf.gamma(0.5 * (p + 1.0)) / math.sqrt(math.pi)
    if out == math.inf:
        raise DomainError(f"lambda_p(0) = E|Z|^p leaves the doubles at p={p:g}")
    return out


# E ln|Z| and Var ln|Z|
LOG_MEAN_ZERO = -0.5 * (EULER_GAMMA + math.log(2.0))
LOG_VAR_ZERO = math.pi ** 2 / 8.0

# psi'(1/2), psi''(1/2), psi'''(1/2) for the ln r Taylor branch at p = 0
_PSI1_HALF = math.pi ** 2 / 2.0
_PSI2_HALF = -16.828762155555034   # -14 zeta(3)
_PSI3_HALF = math.pi ** 4


def _ln_r(p) -> np.ndarray:
    """ln r(p) for the Gamma ratio r(p) = Gamma(1/2) Gamma(p+1/2) / Gamma((p+1)/2)^2
    = lambda_2p(0) / lambda_p(0)^2, p > -1/2, by its Taylor series around the
    removable point p = 0."""
    p = np.asarray(p, dtype=float)
    lnr = sf.gammaln(0.5) + sf.gammaln(p + 0.5) - 2.0 * sf.gammaln((p + 1.0) / 2.0)
    small = np.abs(p) < 1e-3
    if np.any(small):
        ps = np.where(small, p, 0.0)
        series = (_PSI1_HALF / 4.0) * ps ** 2 + (_PSI2_HALF / 8.0) * ps ** 3 \
            + (7.0 * _PSI3_HALF / 192.0) * ps ** 4
        lnr = np.where(small, series, lnr)
    return lnr


# below this |s|, lambda_p(s) - lambda_p(0) goes by its series in s^2
_LAMBDA_SERIES = 0.1
# lambda_p's two series stop at a term below this fraction of their sum
_SERIES_TOL = 2.0 ** -56
_LN_SERIES_TOL = math.log(_SERIES_TOL)
# the 1F1 series starts from e^-x, a normal double up to here; for p in (-1, 301.16),
# where lambda_p(0) is a double, the asymptotic series takes every s past 10.25 (x ~ 53)
_KUMMER_MAX_X = 700.0


def _kummer(p: float, s: np.ndarray) -> np.ndarray:
    """e^-x M((1+p)/2; 1/2; x) at x = s^2/2 (= M(-p/2; 1/2; -x), DLMF 13.2.39), its
    terms all positive.  Term k is term k-1 times x (1 + p / (2k-1)) / k, a form whose
    rounding does not repeat from term to term.  x rounds by eps/2 relative, which
    moves the sum by about |p| eps / 4 at most: its d ln / d ln x tends to p/2."""
    x = 0.5 * (s * s)
    x_max = x.max()
    if x_max > _KUMMER_MAX_X:
        raise AccuracyError(f"E|Z+s|^p at p={p:g}: e^-s^2/2 leaves the doubles",
                            math.nan, math.inf)
    t = total = np.exp(-x)
    # about the terms that reach the tolerance, then passes of 64 more if they do not
    k = np.arange(1.0, 13.0 + 2.0 * x_max + 8.0 * math.sqrt(x_max) + abs(p) / 4.0)
    while True:
        c = (1.0 + p / (2.0 * k - 1.0)) / k
        ratio = np.multiply.outer(x, c)
        ratio[:, 0] *= t
        terms = np.cumprod(ratio, axis=1)
        total = total + terms.sum(axis=1)
        t = terms[:, -1]
        # done where the last term is past the peak and below tolerance
        if x_max * c[-1] < 0.5 and not (t > _SERIES_TOL * total).any():
            return total
        k = k[-1] + np.arange(1.0, 65.0)


def _asymptotic(p: float, s: np.ndarray) -> np.ndarray:
    """s^p Sum_k (-p/2)_k (1/2-p/2)_k / k! x^-k at x = s^2/2 (DLMF 13.7.2), summed to
    its smallest term among the first p/2 + 64; NaN where that term is not below
    _SERIES_TOL of the sum or the sum overflows.  Term k is in x^-(k+1), so the rounding
    error x_lo of x, kept by Dekker's product, moves the sum by -x_lo/x Sum_k (k+1) t_k:
    at large p the terms up to k ~ p/2 carry the sum."""
    r = np.minimum(s, 1e150)        # past 1e150 the sum is 1 to the last bit
    c = 134217729.0 * r             # 2^27 + 1 splits r into 26-bit halves
    hi = c - (c - r)
    lo = r - hi
    sq = r * r
    x, x_lo = 0.5 * sq, 0.5 * (((hi * hi - sq) + 2.0 * hi * lo) + lo * lo)
    k = np.arange(max(p, 0.0) // 2.0 + 64.0)
    rows = np.arange(x.size)
    with np.errstate(over="ignore", invalid="ignore"):     # a sum that overflows is NaN
        terms = np.cumprod((k - 0.5 * p) * (k + 0.5 - 0.5 * p) / (k + 1.0) / x[:, None], axis=1)
        j = np.argmin(np.abs(terms), axis=1)
        total = 1.0 + np.cumsum(terms, axis=1)[rows, j]
        moment = np.cumsum(terms * (k + 1.0), axis=1)[rows, j]
        out = np.power(s, p) * (total - x_lo / x * moment)
        done = np.isfinite(total) & (np.abs(terms[rows, j]) <= _SERIES_TOL * np.abs(total))
    return np.where(done, out, np.nan)


def _lambda_p_batch(p: float, s) -> np.ndarray:
    """E|Z + s|^p elementwise, p > -1: lambda_p(0) 1F1(-p/2; 1/2; -s^2/2) (Winkelbauer,
    arXiv:1209.4340).  The asymptotic series where it reaches _SERIES_TOL and the part
    it leaves out, Gamma((p+1)/2) / |Gamma(-p/2)| e^-x x^-(p+1/2) of s^p, is below it;
    the 1F1 series elsewhere."""
    s = np.abs(np.asarray(s, dtype=float))
    lam0 = lambda_p_zero(p)
    g = sf.gammaln(0.5 * (p + 1.0)) - sf.gammaln(-0.5 * p)     # -inf at even p

    x_max = 0.5 * min(float(s.max()), 1e150) ** 2 if s.size else 0.0    # NaN if s has one
    with np.errstate(over="ignore"):        # +inf past the doubles
        # past x = 1 the left-out part falls with x, so if the largest shift does not
        # take the asymptotic series, none does
        if x_max <= 1.0 or g - x_max - (p + 0.5) * math.log(x_max) >= _LN_SERIES_TOL:
            return lam0 * by_blocks(lambda b: _kummer(p, b), s.ravel()).reshape(s.shape)
        out = np.full(s.shape, np.nan)
        x = 0.5 * np.square(np.minimum(s, 1e150))
        asym = (x > 1.0) & (g - x - (p + 0.5) * np.log(np.maximum(x, 1.0)) < _LN_SERIES_TOL)
        out[asym] = by_blocks(lambda b: _asymptotic(p, b), s[asym])
        near = np.isnan(out) & ~np.isnan(s)
        out[near] = lam0 * by_blocks(lambda b: _kummer(p, b), s[near])
    return out


def _lambda_p_rise(p: float) -> Callable[[np.ndarray], np.ndarray]:
    """s -> lambda_p(s) - lambda_p(0) elementwise, p > -1, calling _lambda_p_batch only at
    s >= _LAMBDA_SERIES; below, where the difference loses eps / s^2, lambda_p(0)
    Sum_{k=1}^{12} coef_k (-s^2/2)^k with coef_k = (-p/2)_k / ((1/2)_k k!) (later terms
    < 1e-18)."""
    lam0, j = lambda_p_zero(p), np.arange(12.0)
    coef = np.cumprod((j - 0.5 * p) / ((j + 0.5) * (j + 1.0)))

    def rise(s):
        s = np.abs(np.asarray(s, dtype=float))
        small = s < _LAMBDA_SERIES
        if not small.any():
            return _lambda_p_batch(p, s) - lam0
        out = np.empty(s.shape)
        x = -0.5 * np.square(s[small])
        out[small] = lam0 * (np.cumprod(np.repeat(x[:, None], 12, axis=1), axis=1) @ coef)
        if not small.all():
            out[~small] = _lambda_p_batch(p, s[~small]) - lam0
        return out

    return rise


def _z_rule(g: Callable, s) -> np.ndarray:
    """Int_{-R}^{R} g(z) phi(z) dz, for shifts s > R where g is smooth."""
    R = np.full(s.shape, GAUSS_TAIL_RADIUS)
    return tanh_sinh(lambda z: g(z) * normal_pdf(z), -R, R)


# E ln|Z+s| and mu_tilde_d(s) for s <= R are Poisson mixtures: (Z+s)^2 is the chi^2_{2k+1}
# law Y_k with k ~ Poisson(x), x = s^2/2 (Johnson, Kotz & Balakrishnan, ch. 29), so
# E g(|Z+s|) = Sum_k w_k E g(sqrt Y_k) with w_k = e^-x x^k / k!.  Past k = 12 + 2x + 8 sqrt(x)
# the Poisson tail is below 1e-20; that is k = 143 at s = R.
_MIX_K = np.arange(1.0, 144.0)
# E ln sqrt(Y_k) - E ln|Z| = H_k = (psi(k+1/2) - psi(1/2)) / 2 = Sum_{j<=k} 1/(2j-1)
_LOG_RISES = np.r_[0.0, np.cumsum(1.0 / (2.0 * _MIX_K - 1.0))]


def _log_mean_far(c: np.ndarray) -> np.ndarray:
    return np.log(c[:, 0]) + _z_rule(lambda z: np.log1p(z / c), c)


def _poisson_mix(s: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Sum_k w_k steps_k over a block of shifts s in [0, R], k to 12 + 2x + 8 sqrt(x) at
    the block's largest x.  w_k is w_{k-1} x / k from w_0 = e^-x, and each row is a
    product and a row sum, not a BLAS matrix-vector product, so equal shifts get equal
    bits.  Where steps keep one sign, the sum keeps its relative accuracy, also as
    s -> 0, where a rise is w_1 steps_1 ~ steps_1 s^2/2."""
    x = 0.5 * (s * s)
    x_max = x.max()
    k = _MIX_K[:int(12.0 + 2.0 * x_max + 8.0 * math.sqrt(x_max))]
    w = np.empty((x.size, k.size + 1))
    w[:, 0] = np.exp(-x)
    np.divide(x[:, None], k, out=w[:, 1:])
    np.cumprod(w, axis=1, out=w)
    w *= steps[:k.size + 1]
    return w.sum(axis=1)


def _mixture(s, steps: np.ndarray, far: Callable, m0: float) -> np.ndarray:
    """E g(|Z+s|) - m0 elementwise, BLOCK shifts at a time: Sum_k w_k steps_k, steps_k =
    E g(sqrt Y_k) - m0, for |s| <= R, and far(column) - m0 beyond, where far is
    E g(|Z+s|) on the z-rule: g(s + z) is smooth over z in [-R, R] there."""
    s = np.abs(np.asarray(s, dtype=float))
    flat = s.ravel()
    out = np.empty(flat.shape)
    inner = flat <= GAUSS_TAIL_RADIUS
    out[inner] = by_blocks(lambda b: _poisson_mix(b, steps), flat[inner])
    out[~inner] = by_blocks(lambda b: far(b[:, None]), flat[~inner]) - m0
    return out.reshape(s.shape)


@lru_cache(maxsize=64)
def _mu_tilde_mixture(d: int) -> tuple:
    """(c, c - c_0, far, c_0) for mu_tilde_d: c_k = E(Y_k^{-1/2} /\\ d), k = 0..143, and the
    z-rule.  c_0 = d erf(1/(d sqrt 2)) + E_1(a) / sqrt(2 pi) = mu_tilde_d(0) at a = 1/(2 d^2)
    <= 1/2, and c_k = d P(k+1/2, a) + Gamma(k, a) / (sqrt 2 Gamma(k+1/2)): Gamma(k, a) =
    (k-1)! e^-a Sum_{i<k} a^i / i!, and d P(k+1/2, a) = e^-a h_k Sum_m a^m / (k+3/2)_m with
    h_k = d a^(k+1/2) / Gamma(k+3/2) (DLMF 8.7.1), whose term ratios are at most 1/5."""
    mu0 = d * sf.erf(1.0 / (d * math.sqrt(2.0))) + sf.exp1(0.5 / d / d) / SQRT_2PI
    if not math.isfinite(mu0):      # 1/(2 d^2) underflows to 0 from d ~ 1.5e162
        raise DomainError(f"mu_tilde_d needs 1/(2 d^2) > 0 in the doubles, got d={d}")
    a, k = 0.5 / d / d, _MIX_K
    gamma_ratio = np.cumprod(np.r_[2.0 / math.sqrt(math.pi), k[:-1] / (k[:-1] + 0.5)])
    partial = np.cumsum(np.cumprod(np.r_[1.0, a / k[:-1]]))
    h = SQRT_2_OVER_PI * np.cumprod(a / (k + 0.5))
    series = np.cumprod(np.c_[np.ones(k.size), a / (k[:, None] + np.arange(1.5, 24.5))],
                        axis=1).sum(axis=1)
    c = math.exp(-a) * (h * series + gamma_ratio * partial / math.sqrt(2.0))
    return (np.r_[mu0, c], np.r_[0.0, c - mu0],
            lambda col: _z_rule(lambda z: np.minimum(1.0 / (col + z), d), col), mu0)


def _mu_tilde_batch(d: int, s) -> np.ndarray:
    """E(|Z+s|^{-1} /\\ d) elementwise: Sum_k w_k c_k for |s| <= R, whose terms are all
    positive, and Int_{-R}^{R} min(1/(s+z), d) phi(z) dz beyond."""
    values, _, far, _ = _mu_tilde_mixture(d)
    return _mixture(s, values, far, 0.0)


def _log_mean_batch(s) -> np.ndarray:
    """E ln|Z+s| elementwise: Sum_k w_k (E ln|Z| + H_k) for |s| <= R, and ln s + E ln(1 + Z/s)
    beyond."""
    return _mixture(s, LOG_MEAN_ZERO + _LOG_RISES, _log_mean_far, 0.0)


@lru_cache(maxsize=200_000)
def _lambda_p_cached(p: float, s: float) -> float:
    return float(_lambda_p_batch(p, s))


def lambda_p(p: float, s: float) -> float:
    """E|Z + s|^p in closed form through 1F1; requires p > -1."""
    if p <= -1.0:
        raise DomainError(f"lambda_p requires p > -1 (moment infinite), got p={p}")
    return _lambda_p_cached(float(p), float(abs(s)))


def lambda_pm(p: float, m: float, s: float) -> float:
    """Central absolute moment E||Z+s|^p - lambda_p(s)|^m; requires p > -1/m."""
    if m <= 0:
        raise DomainError(f"lambda_pm requires m > 0, got m={m}")
    if p <= -1.0 / m:
        raise DomainError(f"lambda_pm requires p > -1/m = {-1.0/m}, got p={p}")
    if m == 2.0 and 2.0 * p > -1.0:
        # lambda_{p,2}(s) = lambda_{2p}(s) - lambda_p(s)^2, numerically stabler
        return lambda_p(2.0 * p, s) - lambda_p(p, s) ** 2
    c = lambda_p(p, s)
    pts = (0.0,)
    if p != 0.0 and c > 0.0:
        r = c ** (1.0 / p)
        pts += (-r, r)
    return gauss_expect(lambda y: abs(abs(y) ** p - c) ** m, s, points=pts)


@lru_cache(maxsize=100_000)
def _log_mean_cached(s: float) -> float:
    return float(_log_mean_batch(s))


def log_moment(m: int, s: float) -> float:
    """E ln|Z+s| for m = 1; central moments E|ln|Z+s| - E ln|Z+s||^m for m in {2, 3}."""
    if m not in (1, 2, 3):
        raise DomainError(f"log_moment supports m in {{1,2,3}}, got {m}")
    s = float(abs(s))
    mean = _log_mean_cached(s)
    if m == 1:
        return mean
    if m == 2:
        # Var ln|Z+s| = E ln^2|Z+s| - (E ln|Z+s|)^2
        second = gauss_expect(lambda y: math.log(abs(y)) ** 2, s, points=(0.0,))
        return second - mean ** 2
    r = math.exp(mean)
    return gauss_expect(lambda y: abs(math.log(abs(y)) - mean) ** 3, s, points=(0.0, -r, r))


@lru_cache(maxsize=100_000)
def _mu_tilde_cached(d: int, s: float) -> float:
    return float(_mu_tilde_batch(d, s))


def mu_tilde(d: int, s: float) -> float:
    """Truncated inverse moment E(|Z+s|^{-1} /\\ d), d >= 1."""
    if d < 1:
        raise DomainError(f"mu_tilde requires d >= 1, got {d}")
    return _mu_tilde_cached(int(d), float(abs(s)))


def c_crit_inf(d: int, alpha: float) -> float:
    """The p = +inf critical-value scale c_{d,alpha} = sqrt(2 ln(-d / (sqrt(pi ln d) ln(1-alpha))))."""
    if d < 2:
        raise DomainError(f"c_crit_inf requires d >= 2, got {d}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    # the inner logarithm term by term: its argument leaves the doubles as alpha -> 0
    log_arg = (math.log(d) - 0.5 * math.log(math.pi * math.log(d))
               - math.log(-math.log1p(-alpha)))
    if log_arg <= 0.0:
        raise DomainError(f"degenerate c_{{d,alpha}}: inner log argument "
                          f"{math.exp(log_arg)} <= 1")
    return math.sqrt(2.0 * log_arg)


def _log_prob_abs_le(c: float, s):
    """ln P(|Z+s| <= c) = ln(e^hi - e^lo) elementwise, stable far into the tails.
    Phi(-c-s) <= e^(-2cs) Phi(c-s), so past 2cs = 750 the difference is hi: there
    hi and lo may round to one double, or both be -inf."""
    s = np.abs(s)
    hi = sf.log_ndtr(c - s)
    lo = sf.log_ndtr(-c - s)
    with np.errstate(invalid="ignore"):
        gap = np.where(2.0 * c * s > 750.0, -np.inf, np.minimum(lo - hi, -1e-300))
    return hi + np.log1p(-np.exp(gap))


def lambda_inf(d: int, alpha: float, s: float) -> float:
    """-ln P(|Z+s| <= c_{d,alpha})."""
    c = c_crit_inf(d, alpha)
    return -float(_log_prob_abs_le(c, s))


def b_p(p: float) -> float:
    """Drift characteristic of the limiting stable law (only defined for p < -1/2)."""
    if p == -1.0:
        return -SQRT_2_OVER_PI
    if p < -0.5:
        return -SQRT_2_OVER_PI / (p + 1.0)
    raise DomainError(f"b_p is defined for p in (-inf, -1/2), got {p}")


# ---------------------------------------------------------------------------
# Regime table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitLaw:
    """The law the regime's statistic is read against.

    The statistic is T = sum_j t(Z_j) with t = |.|^p (ln|.| at p = 0),
    normalized as W = (T - d center) / scale, which tends to this law.  At
    p = +-inf, T is the extreme max_j |Z_j| or min_j |Z_j| itself and the law
    is its exact law at d.
    """

    name: str
    cdf: Callable
    quantile: Callable[[float], float]
    center: float = 0.0
    scale: float = 1.0


def _normal_law(name: str, center: float, scale: float) -> LimitLaw:
    return LimitLaw(name, sf.ndtr, sf.ndtri, center, scale)


def _stable_law(p: float, center: float, scale: float) -> LimitLaw:
    law = StableLaw(p, b_p(p))
    return LimitLaw(f"stable index {-1.0 / p:g}", lambda x: stable_cdf(law, x),
                    lambda q: stable_quantile(law, q), center, scale)


# scale / kappa of the p = -1/2 row, a constant
_NEG_HALF_SIGMA = (2.0 / math.pi) ** 0.25


def _neg_half_law(p: float, d: int) -> LimitLaw:
    if d < 2:
        raise DomainError(f"p = -1/2 needs d >= 2: its rate kappa(d) = sqrt(d ln d) vanishes at d={d}")
    return _normal_law("normal (d ln d rate)", lambda_p_zero(p),
                       _NEG_HALF_SIGMA * math.sqrt(d * math.log(d)))


def _clt_law(p: float, d: int) -> LimitLaw:
    # Var |Z|^p = lambda_p(0)^2 (r(p) - 1) keeps its digits as p -> 0; past the
    # doubles it is inf or expm1 overflows, and limit_law names p
    lam0 = lambda_p_zero(p)
    var = lam0 * lam0 * math.expm1(float(_ln_r(p)))
    return _normal_law("normal (CLT)", lam0, math.sqrt(d * var))


_LAWS = {
    Regime.NEG_INF: lambda p, d: LimitLaw(
        "exact extreme-value (min)",
        lambda x: 1.0 - np.power(np.clip(2.0 * (1.0 - sf.ndtr(x)), 0.0, 1.0), d),
        lambda q: -sf.ndtri((1.0 - q) ** (1.0 / d) / 2.0)),
    Regime.BELOW_NEG_ONE: lambda p, d: _stable_law(p, 0.0, d ** abs(p)),
    Regime.NEG_ONE: lambda p, d: _stable_law(p, mu_tilde(d, 0.0), float(d)),
    Regime.NEG_ONE_TO_NEG_HALF: lambda p, d: _stable_law(p, lambda_p_zero(p), d ** abs(p)),
    Regime.NEG_HALF: _neg_half_law,
    Regime.NEG_HALF_TO_ZERO: _clt_law,
    Regime.ZERO: lambda p, d: _normal_law(
        "normal (log-mean CLT)", LOG_MEAN_ZERO, math.sqrt(d * LOG_VAR_ZERO)),
    Regime.ZERO_TO_INF: _clt_law,
    Regime.POS_INF: lambda p, d: LimitLaw(
        "exact extreme-value (max)",
        lambda x: np.power(np.clip(2.0 * sf.ndtr(x) - 1.0, 0.0, 1.0), d),
        lambda q: sf.ndtri((1.0 + q ** (1.0 / d)) / 2.0)),
}


def limit_law(p, d: int) -> LimitLaw:
    """The law, centering and scale of the statistic for the regime containing
    p; a DomainError where the center or the scale leaves the doubles."""
    v = extended_p(p)
    try:
        law = _LAWS[regime_of(v)](v, d)
    except OverflowError:   # d^|p| of the p < -1 rows, or the CLT row's r(p) - 1
        law = None
    if law is None or not (math.isfinite(law.center) and math.isfinite(law.scale)):
        raise DomainError(f"p={v:g}, d={d}: the limit law's center or scale leaves the doubles")
    return law


@dataclass(frozen=True)
class RegimeRow:
    """One row of the regime table at (p, d, alpha).

    Asymptotically sufficient shifts s satisfy sum_j f(s_j) ~ K(beta) kappa,
    with kappa = kappa_p(d) at the row's d; ``power`` inverts K, giving the
    power reached at R = sum_j f(s_j) / kappa,
    and ``critical`` gives the asymptotic size-alpha critical value in <.>_p
    units.  ``f`` maps an array of shifts elementwise.
    """

    regime: Regime
    p: float
    d: int
    alpha: float
    f: Callable[[np.ndarray], np.ndarray]
    kappa: float
    law: LimitLaw
    K: Callable[[float], float]
    power: Callable[[float], float]
    critical: Callable[[], float]
    f_at_zero: float = 0.0          # f(0); 1 on the two exponential rows
    f_at_inf: float = math.inf      # lim f(s) as |s| -> inf; finite for p < 0

    @property
    def f_sup(self) -> float:
        return max(self.f_at_zero, self.f_at_inf)

    def shift_sum(self, levels) -> Callable[[float], float]:
        """t -> sum_j f(t theta_j) from theta's level set (vals, counts), one f per level."""
        vals, counts = levels

        def total(t):
            with np.errstate(over="ignore"):        # a sum past the doubles is inf
                return float(np.dot(counts, self.f(t * vals)))

        return total


def _check_beta(alpha: float, beta: float) -> None:
    if not (0.0 < alpha < beta < 1.0):
        raise DomainError(f"need 0 < alpha < beta < 1, got alpha={alpha}, beta={beta}")


def _exponential_f(s):
    with np.errstate(over="ignore"):        # past s ~ 1e154, e^-inf = 0
        return np.exp(-0.5 * np.square(np.asarray(s, dtype=float)))


def _sum_critical(p: float, d: int, alpha: float, law: LimitLaw) -> Callable[[], float]:
    """Critical value of a sum row: W at its size-alpha boundary, mapped back
    through T = sum_j t(Z_j) to <.>_p units.  For p < 0 small T rejects."""

    def critical():
        # for p >= 0 the law is normal: q_{1-alpha} = -q_alpha, also where 1 - alpha is 1
        w = law.quantile(alpha) if p < 0.0 else -law.quantile(alpha)
        m = law.center + w * law.scale / d
        if p == 0.0:
            return math.exp(m)
        if m <= 0.0:
            raise DomainError(f"d={d} too small for the p={p:g} asymptotic critical value")
        return m ** (1.0 / p)

    return critical


def _row_neg_inf(p, d, alpha, law):
    def K(beta):
        _check_beta(alpha, beta)
        return math.log(beta) / math.log(alpha)

    return dict(f=_exponential_f, kappa=float(d), K=K, power=lambda R: alpha ** R,
                critical=lambda: -math.log(alpha) * math.sqrt(2.0 * math.pi) / (2.0 * d),
                f_at_zero=1.0, f_at_inf=0.0)


def _row_below_neg_one(p, d, alpha, law):
    def K(beta):
        _check_beta(alpha, beta)
        return (law.quantile(beta) / law.quantile(alpha)) ** (1.0 / p)

    def power(R):
        # R^p is inf where it leaves the doubles (R = 0 once every e^-s^2/2
        # underflows), and the power there 1
        with np.errstate(divide="ignore", over="ignore"):
            return float(law.cdf(law.quantile(alpha) * np.power(R, p)))

    return dict(f=_exponential_f, kappa=float(d), K=K, power=power,
                critical=_sum_critical(p, d, alpha, law), f_at_zero=1.0, f_at_inf=0.0)


def _additive(p, d, alpha, law, kappa, rise):
    """Rows p in [-1, inf), where the shift moves W by R / sigma, sigma = law.scale
    / kappa: K = (q_beta - q_alpha) sigma.  f = rise(s) = m(s) - m(0) for the row's
    batched shift moment m, negated for p < 0, where it rises to its bound m(0) =
    law.center; for p >= 0 it is unbounded."""
    sigma = law.scale / kappa

    def K(beta):
        _check_beta(alpha, beta)
        return (law.quantile(beta) - law.quantile(alpha)) * sigma

    return dict(f=(lambda s: 0.0 - rise(s)) if p < 0.0 else rise,    # +0, not -0, at s = 0
                kappa=kappa, K=K,
                power=lambda R: float(law.cdf(law.quantile(alpha) + R / sigma)),
                critical=_sum_critical(p, d, alpha, law),
                f_at_inf=law.center if p < 0.0 else math.inf)


def _row_pos_inf(p, d, alpha, law):
    c = c_crit_inf(d, alpha)
    lam0 = lambda_inf(d, alpha, 0.0)

    def K(beta):
        _check_beta(alpha, beta)
        return math.log1p(-alpha) - math.log1p(-beta)

    return dict(f=lambda s: -_log_prob_abs_le(c, s) - lam0,
                kappa=1.0, K=K,
                power=lambda R: 1.0 - (1.0 - alpha) * math.exp(-R), critical=lambda: c)


_ROWS = {
    Regime.NEG_INF: _row_neg_inf,
    Regime.BELOW_NEG_ONE: _row_below_neg_one,
    Regime.NEG_ONE: lambda p, d, a, law: _additive(
        p, d, a, law, float(d), lambda s: _mixture(s, *_mu_tilde_mixture(d)[1:])),
    Regime.NEG_ONE_TO_NEG_HALF: lambda p, d, a, law: _additive(
        p, d, a, law, float(d) ** abs(p), _lambda_p_rise(p)),
    Regime.NEG_HALF: lambda p, d, a, law: _additive(
        p, d, a, law, math.sqrt(d * math.log(d)), _lambda_p_rise(p)),
    Regime.NEG_HALF_TO_ZERO: lambda p, d, a, law: _additive(
        p, d, a, law, math.sqrt(d), _lambda_p_rise(p)),
    Regime.ZERO: lambda p, d, a, law: _additive(p, d, a, law, math.sqrt(d), lambda s: _mixture(
        s, _LOG_RISES, _log_mean_far, LOG_MEAN_ZERO)),
    Regime.ZERO_TO_INF: lambda p, d, a, law: _additive(
        p, d, a, law, math.sqrt(d), np.square if p == 2.0 else _lambda_p_rise(p)),
    Regime.POS_INF: _row_pos_inf,
}


def regime_row(p, alpha: float, d: int) -> RegimeRow:
    """The row of the regime table containing p, at dimension d and size alpha."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    v = extended_p(p)
    regime = regime_of(v)
    law = limit_law(v, d)
    return RegimeRow(regime, v, d, alpha, law=law, **_ROWS[regime](v, d, alpha, law))
