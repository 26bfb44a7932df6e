"""The special functions of pmean, from the standard library: ``ndtri``
(Wichura's AS 241, as ``statistics.NormalDist.inv_cdf``), ``gammaln``,
``gamma``, ``erf``, ``exp1``, and the normal distribution function ``ndtr``
and its logarithm ``log_ndtr`` from ``math.erf`` and ``math.erfc``.  Each is a
function of a float applied elementwise to an array, with inf or nan at
poles, off its domain and past overflow, never an exception.

No planning path needs ``scipy.special``: the shifted moments E|Z+s|^p are
summed in ``moments`` by their own series, and Phi and ln Phi are called on
scalars or on arrays of a few hundred shifts.  Only the exact finite-d ARE
recursion in ``are`` keeps scipy's vectorized ``ndtr``, which it calls on
hundreds of thousands of quadrature nodes per solve, ten times faster than
an elementwise Phi.
"""

import functools
import math

import numpy as np

_SQRT1_2 = math.sqrt(0.5)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# ln Phi(x) takes its asymptotic series below this x, where Phi(x) is still a
# normal double (it leaves them near x = -37.5)
_LOG_NDTR_ASYMPTOTIC = -37.0


def _elementwise(scalar):
    """``scalar``, a function of a float, applied elementwise to an array."""
    @functools.wraps(scalar)
    def f(x):
        if isinstance(x, float) or np.ndim(x) == 0:
            return scalar(float(x))
        x = np.asarray(x, dtype=float)
        return np.fromiter(map(scalar, x.ravel().tolist()), float, x.size).reshape(x.shape)

    return f


@_elementwise
def ndtri(q):
    """Inverse of the standard normal distribution function; nan outside [0, 1]."""
    if 0.0 < q < 1.0:
        from statistics import NormalDist       # loads random and fractions: not at import
        return NormalDist().inv_cdf(q)
    return -math.inf if q == 0.0 else math.inf if q == 1.0 else math.nan


erf = _elementwise(math.erf)
_erfc = _elementwise(math.erfc)


@_elementwise
def ndtr(x):
    """Phi(x) = erfc(-x / sqrt 2) / 2, with 1/2 + erf / 2 where |x| < 1 (as cephes)."""
    z = x * _SQRT1_2
    if abs(z) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(z)
    return 1.0 - 0.5 * math.erfc(z) if z > 0.0 else 0.5 * math.erfc(-z)


def log_ndtr(x):
    """ln Phi(x): log1p(-Phi(-x)) for x > 0 and ln Phi(x) down to x = -37; below, the
    asymptotic series -x^2/2 - ln(-x) - ln sqrt(2 pi) + ln(1 + Sum_k (-1)^k (2k-1)!! / x^2k)
    (A&S 26.2.12), whose tenth term is under 1e-19 there.  One array pass for scalars
    and arrays alike, with ``math.erfc`` on each entry."""
    x = np.asarray(x, dtype=float)
    q = 0.5 * _erfc(np.abs(x) * _SQRT1_2)       # Phi(-|x|)
    with np.errstate(all="ignore"):     # ln 0 and (-1e200)^2 are -inf and inf here
        out = np.where(x > 0.0, np.log1p(-q), np.log(q))
        tail = x < _LOG_NDTR_ASYMPTOTIC
        if tail.any():
            xt = x[tail]
            u, term, series = 1.0 / (xt * xt), 1.0, 0.0
            for k in range(1, 11):
                term = term * (-(2 * k - 1) * u)
                series = series + term
            out[tail] = -0.5 * xt * xt - np.log(-xt) - _LN_SQRT_2PI + np.log1p(series)
    return float(out) if out.ndim == 0 else out


@_elementwise
def gammaln(x):
    """ln |Gamma(x)|; +inf at the poles, at +-inf (C99) and past overflow."""
    try:
        return math.lgamma(x)
    except (ValueError, OverflowError):
        return math.inf


@_elementwise
def gamma(x):
    """Gamma(x); +-inf at +-0 and past overflow, nan at the other poles and -inf."""
    try:
        return math.gamma(x)
    except (ValueError, OverflowError):
        return math.nan if x == -math.inf or x < 0.0 and x.is_integer() else math.copysign(math.inf, x)


@_elementwise
def exp1(x):
    """E_1(x) = Int_x^inf e^-t / t dt; nan below 0.  The power series (A&S
    5.1.11) up to x = 1, the continued fraction (A&S 5.1.22) beyond."""
    if not x > 1.0:
        if not x > 0.0:
            return math.inf if x == 0.0 else math.nan
        return -0.5772156649015329 - math.log(x) - sum(
            (-x) ** k / (k * math.factorial(k)) for k in range(1, 20))
    t = 0.0         # the fraction in its even form, from its 120th level up
    for i in range(120, 0, -1):
        t = i * i / (x + 2 * i + 1 - t)
    return math.exp(-x) / (x + 1.0 - t)
