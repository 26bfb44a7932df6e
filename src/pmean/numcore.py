"""Foundational numerics: normal functions, the fixed tanh-sinh rule,
Gaussian-expectation quadrature, one root finder (Brent's method, ported
in-repo), and reproducible counter-based RNG streams.

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

from . import special as sf


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


class IndeterminateGrowthError(RuntimeError):
    """Growth-exponent regression landed inside the dead band; no verdict."""


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
    out = sf.ndtr(np.asarray(x, dtype=float))
    return float(out) if np.ndim(out) == 0 else out


def normal_quantile(q: float) -> float:
    """Inverse of Phi on (0, 1)."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"normal_quantile requires q in (0,1), got {q}")
    return sf.ndtri(q)


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
    from scipy import integrate   # loaded on first use: no planning path calls this

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
    if 0 < x.size <= BLOCK:
        return fn(x)
    out = np.empty(x.shape)
    for i in range(0, x.size, BLOCK):
        out[i:i + BLOCK] = fn(x[i:i + BLOCK])
    return out


def tanh_sinh(g: Callable[[np.ndarray], np.ndarray], a, b) -> np.ndarray:
    """Int_a^b g on the fixed tanh-sinh rule, one integral per row: a and b are
    (m, 1) columns of ends, and g maps the (m, nodes) array of abscissae to
    its values."""
    return (b - a)[:, 0] * (g(a + (b - a) * TS_FL) @ TS_WEIGHTS)


def find_root(g: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12,
              max_iter: int = 200) -> float:
    """Root of a monotone g, increasing or decreasing, by Brent's method from
    a first guess [lo, hi] that need not bracket it.  While g(lo) and g(hi)
    share a sign, the end with the smaller |g| (hi on a tie) doubles its
    distance from the other end; after ``max_iter`` such moves, or as soon as
    a widened end gives a g that is not finite, BracketError.  A guess that
    already brackets the root goes to Brent unchanged."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    glo, ghi = g(lo), g(hi)
    moves = 0
    while glo != 0.0 and ghi != 0.0 and (glo < 0) == (ghi < 0):
        if moves == max_iter:
            raise BracketError(f"no sign change on [{lo}, {hi}] after {max_iter} widenings: "
                               f"g(lo)={glo}, g(hi)={ghi}")
        moves += 1
        if abs(ghi) <= abs(glo):
            hi = lo + 2.0 * (hi - lo)
            ghi = g_new = g(hi)
        else:
            lo = hi - 2.0 * (hi - lo)
            glo = g_new = g(lo)
        if not math.isfinite(g_new):
            raise BracketError(f"g is not finite at a widened end of [{lo}, {hi}]: "
                               f"g(lo)={glo}, g(hi)={ghi}")
    return _brent(g, lo, hi, glo, ghi, tol)


# Brent's stopping rule |x - root| <= xtol + rtol |x|: scipy's rtol floor 4 eps
# and iteration budget.
_BRENT_RTOL = 8.881784197001252e-16
_BRENT_ITER = 100


def _brent(g, lo, hi, glo, ghi, xtol):
    """Brent's method (Brent 1973, ch. 4) on [lo, hi], where g(lo) = glo and
    g(hi) = ghi differ in sign or one is zero: scipy's ``brentq.c`` operation
    for operation, so the root has the same bits, without the import of
    ``scipy.optimize`` (and its linalg, sparse and spatial) on every process.
    An end where g is zero is returned as it stands; a NaN value of g raises
    BracketError naming its x, and no convergence in 100 iterations
    AccuracyError with the last one."""
    xpre, xcur, fpre, fcur = float(lo), float(hi), float(glo), float(ghi)
    for x, fx in ((xpre, fpre), (xcur, fcur)):
        if math.isnan(fx):
            raise BracketError(f"g is NaN at x={x!r} on the bracket [{lo}, {hi}]")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_ITER):
        # x < 0 is C's signbit(x) for the nonzero, non-NaN values seen here
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.nan   # NaN fails the short-step test below: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:   # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:              # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:   # C's quotient is inf or NaN, so it bisects
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(g(xcur))
        if math.isnan(fcur):
            raise BracketError(f"g is NaN at x={xcur!r} on the bracket [{lo}, {hi}]")
    raise AccuracyError(f"find_root: Brent's method did not converge on [{lo}, {hi}]",
                        xcur, hi - lo)


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
