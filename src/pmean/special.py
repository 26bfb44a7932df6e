"""The special functions of pmean: ``ndtri`` (Wichura's AS 241, as
``statistics.NormalDist.inv_cdf``), ``gammaln``, ``gamma``, ``erf`` and ``exp1``
from the standard library, as functions of a float applied elementwise to an
array, with inf or nan at poles, off their domain and past overflow, never an
exception.  ``ndtr``, ``log_ndtr`` and ``hyp1f1`` are the ``scipy.special``
objects, imported at first use and cached in this module's globals (PEP 562):
the planning path calls them on arrays of shifts, where a NumPy 1F1 series took
seven times as long as scipy's hyp1f1 on 200 shifts.  So critical values off
the p = +inf row, the stable rows, ``ap-curve`` and ``verify-ap`` never import
``scipy.special``, whose import costs about as much as the rest of ``import
pmean``, numpy included.
"""

import functools
import math

import numpy as np

_FROM_SCIPY = ("ndtr", "log_ndtr", "hyp1f1")


def __getattr__(name):
    if name not in _FROM_SCIPY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.special
    value = globals()[name] = getattr(scipy.special, name)
    return value


def _elementwise(scalar):
    """``scalar``, a function of a float, applied elementwise to an array."""
    each = np.frompyfunc(scalar, 1, 1)

    @functools.wraps(scalar)
    def f(x):
        if isinstance(x, float) or np.ndim(x) == 0:
            return scalar(float(x))
        with np.errstate(all="ignore"):     # comparing a nan sets the invalid flag
            return each(np.asarray(x, dtype=float)).astype(float)

    return f


@_elementwise
def ndtri(q):
    """Inverse of the standard normal distribution function; nan outside [0, 1]."""
    if 0.0 < q < 1.0:
        from statistics import NormalDist       # loads random and fractions: not at import
        return NormalDist().inv_cdf(q)
    return -math.inf if q == 0.0 else math.inf if q == 1.0 else math.nan


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


erf = _elementwise(math.erf)


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
