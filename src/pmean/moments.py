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
from scipy.special import erf, exp1, gammaln, hyp1f1, log_ndtr, ndtr, ndtri

from .numcore import (GAUSS_TAIL_RADIUS, SQRT_2PI, DomainError, by_blocks, gauss_expect,
                      normal_pdf, tanh_sinh)
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


@dataclass(frozen=True)
class ExtendedP:
    """Exponent on the extended real line with exact regime classification."""

    value: float

    @staticmethod
    def of(p) -> "ExtendedP":
        if isinstance(p, ExtendedP):
            return p
        v = float(p)
        if math.isnan(v):
            raise DomainError("p must not be NaN")
        for b in _BOUNDARIES:
            if v != b and abs(v - b) <= BOUNDARY_EPS:
                warnings.warn(
                    f"p={v!r} snapped to boundary {b}; boundary regimes have "
                    f"their own rates", stacklevel=2)
                v = b
                break
        return ExtendedP(v)

    @property
    def regime(self) -> Regime:
        v = self.value
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

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# Moment functions
# ---------------------------------------------------------------------------

def lambda_p_zero(p: float) -> float:
    """Closed form lambda_p(0) = 2^{p/2} Gamma((p+1)/2) / sqrt(pi), p > -1."""
    if p <= -1.0:
        raise DomainError(f"lambda_p(0) requires p > -1, got {p}")
    return math.exp(0.5 * p * math.log(2.0) + gammaln(0.5 * (p + 1.0)) - 0.5 * math.log(math.pi))


# E ln|Z| and Var ln|Z|
LOG_MEAN_ZERO = -0.5 * (EULER_GAMMA + math.log(2.0))
LOG_VAR_ZERO = math.pi ** 2 / 8.0

# Beyond this |s|, lambda_p takes s^p (1 + p(p-1) / (2 s^2)), the asymptotic
# series of 1F1 to double precision while s^p is finite; hyp1f1 loses -s^2/2
# to overflow past s ~ 1.3e154
_LAMBDA_ASYMPTOTIC = 1e8
# the u = ln|y| rule of E ln|Z+s| starts here: Int_{-inf}^{U} |u| e^u phi(0) du < 1e-17
_LOG_U_MIN = -42.0


def _lambda_p_batch(p: float, s) -> np.ndarray:
    """E|Z + s|^p elementwise, p > -1: 2^{p/2} Gamma((p+1)/2) / sqrt(pi)
    1F1(-p/2; 1/2; -s^2/2) (Winkelbauer, arXiv:1209.4340)."""
    s = np.abs(np.asarray(s, dtype=float))
    out = np.empty(s.shape)
    near = s <= _LAMBDA_ASYMPTOTIC
    out[near] = lambda_p_zero(p) * hyp1f1(-0.5 * p, 0.5, -0.5 * np.square(s[near]))
    far = s[~near]
    with np.errstate(over="ignore"):
        out[~near] = np.power(far, p) * (1.0 + 0.5 * p * (p - 1.0) / far / far)
    return out


def _gauss_rule(s: np.ndarray, near: Callable, far: Callable) -> np.ndarray:
    """A Gaussian moment E g(Z + s) elementwise over s >= 0, BLOCK shifts at a
    time: ``near(column)`` for s <= GAUSS_TAIL_RADIUS, where the rule runs in
    u = ln|y| and resolves the singularity of g at y = 0, and ``far(column)``
    beyond, where g is smooth over z in [-R, R]."""
    flat = s.ravel()
    out = np.empty(flat.shape)
    inner = flat <= GAUSS_TAIL_RADIUS
    out[inner] = by_blocks(lambda b: near(b[:, None]), flat[inner])
    out[~inner] = by_blocks(lambda b: far(b[:, None]), flat[~inner])
    return out.reshape(s.shape)


def _u_rule(w: Callable, s, lo) -> np.ndarray:
    """Sum_{+-} Int_lo^inf w(u) phi(+-e^u - s) du for columns s in [0, R]: the
    + branch up to ln(s + R), split at u = ln s, where phi(e^u - s) peaks, so
    that the peak falls on the ends of two rules; the - branch, falling in u,
    up to ln R."""
    hi = np.log(s + GAUSS_TAIL_RADIUS)
    with np.errstate(divide="ignore"):
        mid = np.clip(np.log(s), lo, hi)

    def plus(u):
        return w(u) * normal_pdf(np.exp(u) - s)

    return (tanh_sinh(plus, lo, mid) + tanh_sinh(plus, mid, hi)
            + tanh_sinh(lambda u: w(u) * normal_pdf(np.exp(u) + s), lo,
                        np.full(s.shape, math.log(GAUSS_TAIL_RADIUS))))


def _z_rule(g: Callable, s) -> np.ndarray:
    """Int_{-R}^{R} g(z) phi(z) dz, for shifts s > R where g is smooth."""
    R = np.full(s.shape, GAUSS_TAIL_RADIUS)
    return tanh_sinh(lambda z: g(z) * normal_pdf(z), -R, R)


def _mu_tilde_batch(d: int, s) -> np.ndarray:
    """E(|Z+s|^{-1} /\\ d) elementwise: d P(|Z+s| < 1/d), as Int_{-1}^{1} phi(v/d - s) dv,
    plus Sum_{+-} Int_{-ln d}^{inf} phi(+-e^u - s) du on the u = ln|y| rule."""
    s = np.abs(np.asarray(s, dtype=float))

    def near(c):
        one = np.ones(c.shape)
        return (tanh_sinh(lambda v: normal_pdf(v / d - c), -one, one)
                + _u_rule(lambda u: 1.0, c, np.full(c.shape, -math.log(d))))

    out = _gauss_rule(s, near, lambda c: _z_rule(lambda z: np.minimum(1.0 / (c + z), d), c))
    # at s = 0: d erf(1 / (d sqrt 2)) + E_1(1 / (2 d^2)) / sqrt(2 pi)
    out[s == 0.0] = d * erf(1.0 / (d * math.sqrt(2.0))) + exp1(0.5 / d / d) / SQRT_2PI
    return out


def _log_mean_batch(s) -> np.ndarray:
    """E ln|Z+s| elementwise: Sum_{+-} Int u e^u phi(+-e^u - s) du on the u = ln|y|
    rule, and ln s + E ln(1 + Z/s) beyond GAUSS_TAIL_RADIUS."""
    s = np.abs(np.asarray(s, dtype=float))

    out = _gauss_rule(
        s, lambda c: _u_rule(lambda u: u * np.exp(u), c, np.full(c.shape, _LOG_U_MIN)),
        lambda c: np.log(c[:, 0]) + _z_rule(lambda z: np.log1p(z / c), c))
    out[s == 0.0] = LOG_MEAN_ZERO
    return out


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
    arg = -d / math.sqrt(math.pi * math.log(d)) / math.log1p(-alpha)
    if arg <= 1.0:
        raise DomainError(f"degenerate c_{{d,alpha}}: inner log argument {arg} <= 1")
    return math.sqrt(2.0 * math.log(arg))


def _log_prob_abs_le(c: float, s):
    """ln P(|Z+s| <= c) elementwise, stable far into the tails."""
    s = np.abs(s)
    hi = log_ndtr(c - s)
    lo = log_ndtr(-c - s)
    # ln(e^hi - e^lo)
    return hi + np.log1p(-np.exp(np.minimum(lo - hi, -1e-300)))


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
    return LimitLaw(name, ndtr, lambda q: float(ndtri(q)), center, scale)


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
    lam0 = lambda_p_zero(p)
    return _normal_law("normal (CLT)", lam0, math.sqrt(d * (lambda_p_zero(2.0 * p) - lam0 ** 2)))


_LAWS = {
    Regime.NEG_INF: lambda p, d: LimitLaw(
        "exact extreme-value (min)",
        lambda x: 1.0 - np.power(np.clip(2.0 * (1.0 - ndtr(x)), 0.0, 1.0), d),
        lambda q: -float(ndtri((1.0 - q) ** (1.0 / d) / 2.0))),
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
        lambda x: np.power(np.clip(2.0 * ndtr(x) - 1.0, 0.0, 1.0), d),
        lambda q: float(ndtri((1.0 + q ** (1.0 / d)) / 2.0))),
}


def limit_law(p, d: int) -> LimitLaw:
    """The law, centering and scale of the statistic for the regime containing p."""
    ep = ExtendedP.of(p)
    return _LAWS[ep.regime](ep.value, d)


@dataclass(frozen=True)
class RegimeRow:
    """One row of the regime table at (p, d, alpha).

    Asymptotically sufficient shifts s satisfy sum_j f(s_j) ~ K(beta) kappa(d);
    ``power`` inverts K, giving the power reached at R = sum_j f(s_j) / kappa(d),
    and ``critical`` gives the asymptotic size-alpha critical value in <.>_p
    units.  ``f`` maps an array of shifts elementwise.
    """

    regime: Regime
    p: float
    d: int
    alpha: float
    f: Callable[[np.ndarray], np.ndarray]
    kappa: Callable[[int], float]
    law: LimitLaw
    K: Callable[[float], float]
    power: Callable[[float], float]
    critical: Callable[[], float]
    f_at_zero: float = 0.0          # f(0); 1 on the two exponential rows
    f_at_inf: float = math.inf      # lim f(s) as |s| -> inf; finite for p < 0

    @property
    def f_sup(self) -> float:
        return max(self.f_at_zero, self.f_at_inf)

    def shift_sum(self, theta) -> Callable[[float], float]:
        """t -> sum_j f(t theta_j), evaluating f once per distinct |theta_j|."""
        vals, counts = np.unique(np.abs(np.asarray(theta, dtype=float)), return_counts=True)
        return lambda t: float(np.dot(counts, self.f(t * vals)))


def _check_beta(alpha: float, beta: float) -> None:
    if not (0.0 < alpha < beta < 1.0):
        raise DomainError(f"need 0 < alpha < beta < 1, got alpha={alpha}, beta={beta}")


def _exponential_f(s):
    return np.exp(-0.5 * np.square(np.asarray(s, dtype=float)))


def _additive(law: LimitLaw, sigma: float, alpha: float) -> dict:
    """K and power for rows where the shift moves W by R / sigma:
    K = (q_beta - q_alpha) sigma."""

    def K(beta):
        _check_beta(alpha, beta)
        return (law.quantile(beta) - law.quantile(alpha)) * sigma

    return dict(K=K, power=lambda R: float(law.cdf(law.quantile(alpha) + R / sigma)))


def _sum_critical(p: float, d: int, alpha: float, law: LimitLaw) -> Callable[[], float]:
    """Critical value of a sum row: W at its size-alpha boundary, mapped back
    through T = sum_j t(Z_j) to <.>_p units.  For p < 0 small T rejects."""

    def critical():
        w = law.quantile(alpha if p < 0.0 else 1.0 - alpha)
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

    return dict(f=_exponential_f, kappa=float, K=K, power=lambda R: alpha ** R,
                critical=lambda: -math.log(alpha) * math.sqrt(2.0 * math.pi) / (2.0 * d),
                f_at_zero=1.0, f_at_inf=0.0)


def _row_below_neg_one(p, d, alpha, law):
    def K(beta):
        _check_beta(alpha, beta)
        return (law.quantile(beta) / law.quantile(alpha)) ** (1.0 / p)

    return dict(f=_exponential_f, kappa=float, K=K,
                power=lambda R: float(law.cdf(law.quantile(alpha) * R ** p)),
                critical=_sum_critical(p, d, alpha, law), f_at_zero=1.0, f_at_inf=0.0)


def _bounded(p, d, alpha, law, kappa, moment, sigma):
    """Rows p in [-1, 0): f = m(0) - m(s) for the row's batched shift moment m,
    rising from 0 to its bound m(0) = law.center; sigma = law.scale / kappa(d)."""
    top = law.center
    return dict(f=lambda s: top - moment(s), kappa=kappa,
                critical=_sum_critical(p, d, alpha, law), f_at_inf=top,
                **_additive(law, sigma, alpha))


def _unbounded(p, d, alpha, law, moment):
    """Rows p in [0, inf): f = m(s) - m(0) for the row's batched shift moment m,
    unbounded, with the CLT rate sqrt(d)."""
    base = law.center
    f = np.square if p == 2.0 else lambda s: moment(s) - base
    return dict(f=f, kappa=math.sqrt, critical=_sum_critical(p, d, alpha, law),
                **_additive(law, law.scale / math.sqrt(d), alpha))


def _row_pos_inf(p, d, alpha, law):
    c = c_crit_inf(d, alpha)
    lam0 = lambda_inf(d, alpha, 0.0)

    def K(beta):
        _check_beta(alpha, beta)
        return math.log1p(-alpha) - math.log1p(-beta)

    return dict(f=lambda s: -_log_prob_abs_le(c, s) - lam0,
                kappa=lambda dd: 1.0, K=K,
                power=lambda R: 1.0 - (1.0 - alpha) * math.exp(-R), critical=lambda: c)


_ROWS = {
    Regime.NEG_INF: _row_neg_inf,
    Regime.BELOW_NEG_ONE: _row_below_neg_one,
    Regime.NEG_ONE: lambda p, d, a, law: _bounded(
        p, d, a, law, float, lambda s: _mu_tilde_batch(d, s), 1.0),
    Regime.NEG_ONE_TO_NEG_HALF: lambda p, d, a, law: _bounded(
        p, d, a, law, lambda dd: float(dd) ** abs(p), lambda s: _lambda_p_batch(p, s), 1.0),
    Regime.NEG_HALF: lambda p, d, a, law: _bounded(
        p, d, a, law, lambda dd: math.sqrt(dd * math.log(dd)),
        lambda s: _lambda_p_batch(p, s), _NEG_HALF_SIGMA),
    Regime.NEG_HALF_TO_ZERO: lambda p, d, a, law: _bounded(
        p, d, a, law, math.sqrt, lambda s: _lambda_p_batch(p, s), law.scale / math.sqrt(d)),
    Regime.ZERO: lambda p, d, a, law: _unbounded(p, d, a, law, _log_mean_batch),
    Regime.ZERO_TO_INF: lambda p, d, a, law: _unbounded(
        p, d, a, law, lambda s: _lambda_p_batch(p, s)),
    Regime.POS_INF: _row_pos_inf,
}


def regime_row(p, alpha: float, d: int) -> RegimeRow:
    """The row of the regime table containing p, at dimension d and size alpha."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    ep = ExtendedP.of(p)
    law = _LAWS[ep.regime](ep.value, d)
    return RegimeRow(ep.regime, ep.value, d, alpha, law=law,
                     **_ROWS[ep.regime](ep.value, d, alpha, law))
