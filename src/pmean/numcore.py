"""Foundational numerics: normal functions, the fixed tanh-sinh rule,
Gaussian-expectation quadrature, bracketed root finding, and reproducible
counter-based RNG streams.

Everything here is deterministic and re-entrant.  RngStream instances are
single-owner; parallel work gets independence from distinct stream indices,
never from sharing one stream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, optimize
from scipy.special import ndtr, ndtri


class DomainError(ValueError):
    """Input outside the mathematical domain of the operation."""


class BracketError(ValueError):
    """Root bracket does not straddle a sign change."""


class AccuracyError(RuntimeError):
    """Numerical routine could not meet the requested tolerance.

    Carries the best available estimate and an error bound.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


class ConfigError(ValueError):
    """Configuration value outside the supported range (e.g. too few MC reps)."""


SQRT_2PI = math.sqrt(2.0 * math.pi)

# Half-width of the truncated integration domain: the Gaussian mass outside
# [s - R, s + R] is below 1e-19, under any achievable quadrature tolerance.
GAUSS_TAIL_RADIUS = 9.0


def normal_pdf(x):
    """Standard normal density phi(x)."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / SQRT_2PI
    return float(out) if out.ndim == 0 else out


def normal_cdf(x):
    """Standard normal distribution function Phi(x)."""
    out = ndtr(np.asarray(x, dtype=float))
    return float(out) if np.ndim(out) == 0 else out


def normal_quantile(q: float) -> float:
    """Inverse of Phi on (0, 1)."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"normal_quantile requires q in (0,1), got {q}")
    return float(ndtri(q))


# Absolute and relative tolerance, and subdivision budget, of gauss_expect.
QUAD_TOL = 1e-10
QUAD_SUBDIV = 300


def gauss_expect(f: Callable[[float], float], s: float, points: tuple = ()) -> float:
    """E f(Z + s) for Z ~ N(0,1), via adaptive quadrature over z in [-R, R].

    ``points`` are locations in the *argument of f* where f is singular or
    non-smooth (e.g. 0 for f = |.|^p with p < 0); the integration is split
    exactly there.  Integrating in z keeps the Gaussian factor fully resolved
    for huge |s|.
    """
    R = GAUSS_TAIL_RADIUS
    pts = sorted(p - s for p in points if -R < p - s < R)

    def integrand(z):
        return f(z + s) * math.exp(-0.5 * z * z) / SQRT_2PI

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            integrand, -R, R,
            points=pts if pts else None,
            epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=QUAD_SUBDIV,
        )
    if not math.isfinite(val) or err > 10.0 * QUAD_TOL * max(1.0, abs(val)):
        raise AccuracyError("gauss_expect did not converge", val, err)
    return val


def tanh_sinh_fractions(t):
    """Where the tanh-sinh variable t puts a node: its fractions of the interval
    from the left and from the right end, each accurate near its own end."""
    e = np.pi * np.sinh(t)
    return 1.0 / (1.0 + np.exp(-e)), 1.0 / (1.0 + np.exp(e))


# The tanh-sinh rule (Takahasi & Mori 1974) on an interval of unit length,
# step 1/40 over t in [-3.5, 3.5]; the part of the interval beyond the last
# nodes is within 3e-23 of its ends.  Int_a^b g ~ (b - a) sum_k W_k g(a + (b - a) FL_k).
_TS_STEP = 1.0 / 40.0
_TS_T = _TS_STEP * np.arange(-140, 141)
TS_FL, TS_FR = tanh_sinh_fractions(_TS_T)
TS_WEIGHTS = math.pi * _TS_STEP * np.cosh(_TS_T) * TS_FL * TS_FR

# rows per block of a vectorized rule: work arrays hold nodes x BLOCK values
BLOCK = 256


def by_blocks(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """fn over a 1-D array x, BLOCK entries at a time; fn maps a block to as
    many values."""
    out = np.empty(x.shape)
    for i in range(0, x.size, BLOCK):
        out[i:i + BLOCK] = fn(x[i:i + BLOCK])
    return out


def tanh_sinh(g: Callable[[np.ndarray], np.ndarray], a, b) -> np.ndarray:
    """Int_a^b g on the fixed tanh-sinh rule, one integral per row: a and b are
    (m, 1) columns of ends, and g maps the (m, nodes) array of abscissae to
    its values."""
    return (b - a)[:, 0] * (g(a + (b - a) * TS_FL) @ TS_WEIGHTS)


def find_root(g: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12) -> float:
    """Root of g on [lo, hi] by Brent's method; g(lo) and g(hi) must differ in sign."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: g(lo)={glo}, g(hi)={ghi}")
    return float(optimize.brentq(g, lo, hi, xtol=tol, rtol=8.881784197001252e-16))


def expand_bracket(g: Callable[[float], float], start: float = 1.0,
                   max_iter: int = 200) -> tuple[float, float]:
    """Double t from ``start`` until g changes sign on [0, t]; g(0) sets the
    reference sign, and g(0) = 0 returns [0, start] at once.  Raises
    BracketError if the budget of ``max_iter`` evaluations is exhausted."""
    g0 = g(0.0)
    t = start
    if g0 == 0.0:
        return 0.0, t
    for _ in range(max_iter):
        gt = g(t)
        if gt == 0.0 or (g0 < 0) != (gt < 0):
            return 0.0, t
        t *= 2.0
    raise BracketError(f"no sign change found while expanding up to t={t / 2.0}")


@dataclass(frozen=True)
class RngStream:
    """Seeded, counter-based random stream (Philox).

    Identical (seed, stream) always reproduces the same sequence; distinct
    stream indices give independent streams without generating intermediates.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = (np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF), np.uint64(self.stream & 0xFFFFFFFFFFFFFFFF))
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RngStream":
        """Derived stream for worker ``index``; deterministic in (seed, stream, index)."""
        return RngStream(self.seed, (self.stream << 20) ^ (index + 1))

    def standard_normal(self, n: int) -> np.ndarray:
        return self.generator().standard_normal(n)
