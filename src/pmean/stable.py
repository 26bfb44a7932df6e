"""One-sided stable limit laws zeta_{p,b} for p in (-inf, -1/2).

The law is infinitely divisible with characteristics a = 0, drift b, and Levy
density sqrt(2/pi) * (-1/p) * x^{-1+1/p} on (0, infinity) under the
truncation-at-|x|<=1 compensation convention.  It is stable of index
alpha = -1/p in (0, 2), totally skewed to the right.

Its characteristic exponent, i delta u - C (-iu)^alpha for alpha != 1, makes
the law an exact affine image of the standardized totally skewed law
Y ~ S1(alpha, beta=1):

    zeta = delta + gamma Y,               gamma = (C cos(pi alpha/2))^(1/alpha),
    zeta = C Y + delta + (2/pi) C ln C    at alpha = 1.

The CDF of Y is Zolotarev's integral over a finite theta-interval, in the
form of Nolan (1997), "Numerical calculation of stable densities and
distribution functions", Theorem 1:

    F(y) = c1 + sign(1 - alpha)/pi Int exp(-|y|^(alpha/(alpha-1)) V(theta)) dtheta,

with exp(-e^(-pi y/2) V(theta)) at alpha = 1.  V is monotone, so the integrand
does not oscillate.  Each integral is split at theta*, where the exponent
equals 1, and both halves are integrated on one fixed tanh-sinh rule
(Takahasi & Mori 1974) whose nodes are shared by every x of a call.

The sampler is Chambers-Mallows-Stuck for Y under the same affine map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import special as sf
from .numcore import (TS_FL, TS_FR, TS_WEIGHTS, AccuracyError, DomainError, RngStream,
                      by_blocks, find_root, tanh_sinh_fractions)

EULER_GAMMA = 0.5772156649015329
CPLUS = math.sqrt(2.0 / math.pi)   # total Levy mass multiplier sqrt(2/pi)


@dataclass(frozen=True)
class StableLaw:
    """Parameters (p, b) of the limit law zeta_{p,b}."""

    p: float
    b: float

    def __post_init__(self):
        if not self.p < -0.5:
            raise DomainError(f"StableLaw requires p < -1/2, got p={self.p}")

    @property
    def alpha(self) -> float:
        """Stable index -1/p in (0, 2)."""
        return -1.0 / self.p


@dataclass(frozen=True)
class _Exponent:
    """CF exponent  i delta u - C (-iu)^a  (a != 1), or the a = 1 family
    i delta u - G(|u| + i (2/pi) u ln|u|)  stored as C = G."""

    a: float
    C: float
    delta: float

    @property
    def scale(self) -> float:
        """gamma in  zeta = gamma Y + shift,  Y ~ S1(a, beta=1); the modulus
        of the CF is exp(-(gamma |u|)^a)."""
        if self.a != 1.0:
            return (self.C * math.cos(math.pi * self.a / 2.0)) ** (1.0 / self.a)
        return self.C

    @property
    def shift(self) -> float:
        """Location of the affine map; the support's lower end when a < 1."""
        if self.a != 1.0:
            return self.delta
        return self.delta + (2.0 / math.pi) * self.C * math.log(self.C)


@lru_cache(maxsize=4096)
def _law_exponent(law: StableLaw) -> _Exponent:
    a = law.alpha
    if a != 1.0:
        return _Exponent(a, CPLUS * sf.gamma(1.0 - a), law.b + CPLUS * a / (a - 1.0))
    return _Exponent(1.0, CPLUS * math.pi / 2.0, law.b + CPLUS * (1.0 - EULER_GAMMA))


# ---------------------------------------------------------------------------
# Zolotarev's integral
# ---------------------------------------------------------------------------

_CHORD_STEPS = 2      # refinements of theta* after the table lookup


class _Zolotarev:
    """(1/pi) Int exp(-e^(c + ln V(theta))) dtheta over the theta-interval of
    Nolan's Theorem 1 for S1(a, beta) with beta = +1, or -1 for the half-line
    y < 0 when a > 1.

    Points are held by their distances dl, dr to the two ends of the interval,
    so V stays accurate where its factors vanish there.  ln V is tabulated on
    a grid of the tanh-sinh variable to locate theta* for any c.
    """

    def __init__(self, a: float, beta: int):
        self.a, self.beta = a, beta
        if a <= 1.0:
            self.length = math.pi
        else:
            self.length = math.pi - math.pi / a if beta > 0 else math.pi / a
        if a != 1.0:
            self.k = a / (a - 1.0)
            self.log_c0 = math.log(math.sin(0.5 * math.pi * abs(1.0 - a))) / (a - 1.0)
        # V rises over the interval for a <= 1 and falls for a > 1
        self.sign = 1.0 if a <= 1.0 else -1.0
        self.grid = np.linspace(-4.0, 4.0, 257)
        self.table = np.maximum.accumulate(self._rising(self.grid))

    def log_v(self, dl, dr):
        a = self.a
        if a == 1.0:
            cos_t = np.sin(np.minimum(dl, dr))
            return math.log(2.0 / math.pi) + np.log(dl / cos_t) + dl * np.cos(dr) / cos_t
        if a < 1.0:
            cos_t = np.sin(np.minimum(dl, dr))
            sin_a, cos_phi = np.sin(a * dl), np.sin((1.0 - a) * dl)
        elif self.beta > 0:
            cos_t = np.sin(dr)
            sin_a, cos_phi = np.sin(a * dl), np.sin(math.pi * (2.0 - a) + (a - 1.0) * dr)
        else:
            cos_t = np.sin(np.minimum(dr, dl + math.pi * (1.0 - 1.0 / a)))
            sin_a, cos_phi = np.sin(a * np.minimum(dl, dr)), np.sin((a - 1.0) * dr)
        return self.log_c0 + self.k * np.log(cos_t / sin_a) + np.log(cos_phi / cos_t)

    def _rising(self, s):
        """asinh(+-ln V) at the tanh-sinh variable s: increasing, and close to
        linear in s near both ends, where ln V grows like e^|s|."""
        fl, fr = tanh_sinh_fractions(s)
        return np.arcsinh(self.sign * self.log_v(self.length * fl, self.length * fr))

    def _split(self, c):
        """Fractions of the interval left and right of theta*, where c + ln V = 0:
        a table lookup, then chord steps on the table cell's slope."""
        target = np.arcsinh(-self.sign * c)
        j = np.clip(np.searchsorted(self.table, target), 1, self.grid.size - 1)
        lo, hi = self.grid[j - 1], self.grid[j]
        slope = np.maximum((self.table[j] - self.table[j - 1]) / (hi - lo), 1e-300)
        s = np.clip(lo + (target - self.table[j - 1]) / slope, lo, hi)
        for _ in range(_CHORD_STEPS):
            s = np.clip(s - (self._rising(s) - target) / slope, lo, hi)
        return tanh_sinh_fractions(s)

    def _block(self, c: np.ndarray) -> np.ndarray:
        cb = c[:, None]
        fl, fr = self._split(cb)
        left, right = self.length * fl, self.length * fr
        dl = np.concatenate([left * TS_FL, left + right * TS_FL], axis=1)
        dr = np.concatenate([right + left * TS_FR, right * TS_FR], axis=1)
        with np.errstate(over="ignore"):
            g = np.exp(-np.exp(cb + self.log_v(dl, dr)))
        m = TS_WEIGHTS.size
        # a product and a row sum, not a matrix-vector product: BLAS sums a
        # block's rows in groups, so equal points in different rows could differ
        halves = g.reshape(-1, 2, m)
        halves *= TS_WEIGHTS
        w = halves.sum(axis=2)
        return (left[:, 0] * w[:, 0] + right[:, 0] * w[:, 1]) / math.pi

    def integral(self, c: np.ndarray) -> np.ndarray:
        return by_blocks(self._block, c)


_zolotarev = lru_cache(maxsize=256)(_Zolotarev)


def _s1_cdf(a: float, y: np.ndarray) -> np.ndarray:
    """CDF of the standardized S1(a, beta=1) law at a 1-D array y (Nolan's
    Theorem 1: c1 = 0 for a < 1, 1 for a > 1; F = 1/a at y = 0 for a > 1)."""
    F = np.where(y > 0, 1.0, 0.0)
    F[np.isnan(y)] = np.nan
    fin = np.isfinite(y)
    if a == 1.0:
        F[fin] = _zolotarev(1.0, 1).integral(-0.5 * math.pi * y[fin])
        return F
    pos, neg = fin & (y > 0), fin & (y < 0)
    with np.errstate(divide="ignore"):
        c = (a / (a - 1.0)) * np.log(np.abs(y))
    if a < 1.0:
        F[pos] = _zolotarev(a, 1).integral(c[pos])
    else:
        F[pos] = 1.0 - _zolotarev(a, 1).integral(c[pos])
        F[neg] = _zolotarev(a, -1).integral(c[neg])
        F[y == 0.0] = 1.0 / a
    return F


def _cdf_exponent(ex: _Exponent, x):
    """F(x) for the law with exponent ex; one vectorized pass over an array x."""
    with np.errstate(over="ignore"):        # past the doubles y is +-inf, and F its limit
        y = (np.asarray(x, dtype=float) - ex.shift) / ex.scale
    F = np.clip(_s1_cdf(ex.a, y.ravel()), 0.0, 1.0).reshape(y.shape)
    return float(F) if F.ndim == 0 else F


def stable_cdf(law: StableLaw, x):
    """Distribution function Phi_{p,b}(x), elementwise on arrays."""
    return _cdf_exponent(_law_exponent(law), x)


# the most |F(x) - q| a quantile x may leave; the solve's absolute tolerance in x
# loses more than that where the quantile nears it, below stable index about 1/8
_QUANTILE_TOL = 1e-8


@lru_cache(maxsize=100_000)
def _quantile_cached(law: StableLaw, q: float) -> float:
    ex = _law_exponent(law)
    step = max(ex.scale, 1.0)
    where = f"the stable quantile at p={law.p:g}, q={q!r}"
    # the right tail is P(X > x) ~ CPLUS x^-a
    try:
        hi = ex.shift + max(4.0 * step, 3.0 * (CPLUS / (1.0 - q)) ** (1.0 / ex.a))
    except OverflowError:
        hi = math.inf
    if hi == math.inf:
        raise AccuracyError(f"{where}: its first bracket leaves the doubles", math.nan, math.inf)
    # F = 0 at the lower end of the support when a < 1
    lo = ex.shift if ex.a < 1.0 else ex.shift - 4.0 * step
    cdf = {}        # F at the points Brent evaluates; it returns one of them

    def gap(x):
        cdf[x] = F = _cdf_exponent(ex, x)
        return F - q

    x = find_root(gap, lo, hi, tol=1e-11)
    F = cdf[x]
    # F(x) in {0, 1} is off the support's interior, where no level q in (0, 1) lies
    if not (abs(F - q) <= _QUANTILE_TOL and 0.0 < F < 1.0):
        raise AccuracyError(f"{where}: F(x) = {F!r}", x, abs(F - q))
    return x


def stable_quantile(law: StableLaw, q: float) -> float:
    """Inverse of stable_cdf on (0, 1); AccuracyError where the solve does not
    hold |F(x) - q| to 1e-8 inside the support."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"stable_quantile requires q in (0,1), got {q}")
    return _quantile_cached(law, float(q))


def _cms_standard(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Chambers-Mallows-Stuck variates from the standardized S(alpha, beta=1) law."""
    V = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=n)
    W = rng.standard_exponential(size=n)
    if alpha != 1.0:
        tana = math.tan(math.pi * alpha / 2.0)
        B = math.atan(tana) / alpha
        S0 = (1.0 + tana ** 2) ** (1.0 / (2.0 * alpha))
        return (S0 * np.sin(alpha * (V + B)) / np.cos(V) ** (1.0 / alpha)
                * (np.cos(V - alpha * (V + B)) / W) ** ((1.0 - alpha) / alpha))
    half_pi = math.pi / 2.0
    return (2.0 / math.pi) * ((half_pi + V) * np.tan(V)
                              - np.log(half_pi * W * np.cos(V) / (half_pi + V)))


def stable_sample(law: StableLaw, n: int, rng: RngStream) -> np.ndarray:
    """n i.i.d. draws from zeta_{p,b}; deterministic in the stream."""
    if n < 1:
        raise DomainError(f"stable_sample requires n >= 1, got {n}")
    ex = _law_exponent(law)
    return ex.scale * _cms_standard(law.alpha, n, rng.generator()) + ex.shift


def support_lower_bound(law: StableLaw) -> float:
    """Essential infimum of the support: the shift of the affine map for
    alpha < 1, -inf otherwise."""
    ex = _law_exponent(law)
    return ex.shift if ex.a < 1.0 else -math.inf
