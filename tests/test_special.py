"""The standard-library special functions of ``pmean.special`` (ndtri, gammaln,
gamma, erf, exp1, ndtr, log_ndtr) against 40-digit mpmath, and against
``scipy.special``.

Each bound is stated with the oracle grid it holds on.  Past the grids, the
values at poles, 0, 1, +-inf, nan and overflow are those of ``scipy.special``
(save where scipy leaves the doubles or at ``gammaln(-inf)``), and no input
raises or warns.
"""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pmean import special as sf

NAMES = ("ndtri", "gammaln", "gamma", "erf", "exp1")
EDGES = [-math.inf, -1e308, -171.5, -3.0, -2.5, -1.0, -1e-310, -0.0, 0.0, 5e-324, 1e-300,
         0.5, 1.0, 1.0 + 2.0 ** -52, 2.0, 171.6, 171.7, 745.2, 800.0, 1e308, math.inf, math.nan]
QS = [-1.0, -0.0, 0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0 ** -53, 1.0, 1.5, math.inf, math.nan]

# the grids: random points and ones next to poles, decades, and the
# series/continued-fraction seam of exp1 at x = 1
_RNG = np.random.default_rng(20261019)
_NEAR_POLES = (-np.arange(0.0, 40.0)[:, None] + np.array([-1e-3, -1e-9, 1e-9, 1e-3])).ravel()
X_POS = np.concatenate([_RNG.uniform(0.0, 30.0, 600), np.geomspace(1e-300, 1e300, 121),
                        [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]])
X_NEG = np.concatenate([-_RNG.uniform(0.0, 170.0, 300), _NEAR_POLES[_NEAR_POLES < 0.0]])
Q = np.concatenate([_RNG.uniform(0.0, 1.0, 600), np.geomspace(1e-300, 0.5, 61),
                    1.0 - np.geomspace(1.1e-16, 0.5, 41), [0.5, 0.5 + 1e-12]])
X_E1 = np.concatenate([_RNG.uniform(0.0, 5.0, 400), np.geomspace(1e-300, 700.0, 121),
                       1.0 + np.array([-1e-9, 0.0, 1e-15, 1e-9, 1e-3])])


def units(got, ref, floor):
    """|got - ref| in units of the spacing of doubles at max(|ref|, floor)."""
    return float(abs(mp.mpf(got) - ref)) / np.spacing(max(abs(float(ref)), floor))


def rel(got, ref):
    return float(abs((mp.mpf(got) - ref) / ref))


def same(a, b):
    """Equal as doubles, nan equal to nan and -0.0 apart from 0.0."""
    a, b = float(a), float(b)
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) == math.copysign(1, b))


def test_gammaln_oracle():
    # math.lgamma: within 8 units of spacing(max(|ref|, 1)) for x > 0, where
    # pmean calls it; within 32 next to the poles of the negative axis
    with mp.workdps(40):
        pos = max(units(sf.gammaln(x), mp.loggamma(mp.mpf(x)), 1.0) for x in X_POS)
        neg = max(units(sf.gammaln(x), mp.log(abs(mp.gamma(mp.mpf(x)))), 1.0)
                  for x in X_NEG if x != round(x))
    assert pos <= 8.0 and neg <= 32.0, (pos, neg)


def test_gamma_oracle():
    # math.gamma: within 1e-15 relative wherever Gamma(x) is a normal double
    xs = np.concatenate([X_POS[X_POS < 171.6], X_NEG])
    with mp.workdps(40):
        refs = [(x, mp.gamma(mp.mpf(x))) for x in xs if not (x <= 0 and x == round(x))]
        worst = max(rel(sf.gamma(x), r) for x, r in refs if abs(r) >= np.finfo(float).tiny)
    assert worst <= 1e-15, worst


def test_erf_oracle():
    # math.erf: within 2 units of spacing(|ref|)
    xs = np.concatenate([X_POS[X_POS < 7.0], -X_POS[X_POS < 7.0]])
    with mp.workdps(40):
        worst = max(units(sf.erf(x), mp.erf(mp.mpf(x)), 1e-300) for x in xs)
    assert worst <= 2.0, worst


def test_ndtri_oracle():
    # AS 241: within 1e-15 relative of the exact quantile of the double q
    with mp.workdps(40):
        def exact(q):
            q = mp.mpf(q)
            if 1e-10 < q < 1 - mp.mpf(1e-10):
                return mp.sqrt(2) * mp.erfinv(2 * q - 1)
            return mp.findroot(lambda z: mp.ncdf(z) - q, float(scipy.special.ndtri(float(q))))
        worst = max(rel(sf.ndtri(q), exact(q)) for q in Q if q != 0.5)
    assert worst <= 1e-15, worst
    assert sf.ndtri(0.5) == 0.0


def test_exp1_oracle():
    # series up to 1, continued fraction past it: within 1.5e-15 relative
    # wherever E_1(x) is a normal double, and to 0 past x = 745.2
    with mp.workdps(40):
        worst = max(rel(sf.exp1(x), mp.e1(mp.mpf(x))) for x in X_E1)
        tail = max(abs(float(sf.exp1(x)) - float(mp.e1(x))) for x in np.linspace(700.0, 760.0, 61))
    assert worst <= 1.5e-15, worst
    assert tail <= 8 * 5e-324, tail


# Phi and ln Phi on [-1e5, 40]: random points, decades of both signs, and the
# seam of ln Phi's asymptotic series at x = -37
X_NORMAL = np.concatenate([_RNG.uniform(-40.0, 40.0, 600), -np.geomspace(1e-3, 1e5, 161),
                           np.geomspace(1e-3, 40.0, 81),
                           [-37.0 - 1e-9, -37.0, -37.0 + 1e-9, -38.5, -1.0, 0.0, 1.0, 6.0]])
EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


def test_ndtr_oracle():
    # erfc(-x / sqrt 2) / 2 with x / sqrt 2 to double-double in the left tail:
    # within 2 eps relative while Phi is a normal double (the worst on this
    # grid is 1.44 eps; with x / sqrt 2 rounded it was 823 eps, about
    # (1 + x^2) eps / 2), and 1e-321 absolute below
    with mp.workdps(40):
        for x in X_NORMAL:
            got, ref = sf.ndtr(x), mp.ncdf(mp.mpf(x))
            bound = 2.0 * EPS * ref if ref >= TINY else 1e-321
            assert abs(got - ref) <= bound, (x, got, ref)


def test_log_ndtr_oracle():
    # within 3 eps relative for x <= 0, the asymptotic series below -37
    # included; for x > 0 it is -Phi(-x) to first order, so within (1 + x^2) eps
    # relative while that is a normal double, and 1e-321 absolute below
    with mp.workdps(40):
        for x in X_NORMAL:
            got = sf.log_ndtr(x)
            ref = mp.log(mp.ncdf(x)) if x <= 0.0 else mp.log1p(-mp.ncdf(-x))
            rel = 3.0 if x <= 0.0 else 1.0 + x * x
            bound = rel * EPS * abs(ref) if abs(ref) >= TINY else 1e-321
            assert abs(got - ref) <= bound, (x, got, ref)


def test_normal_edges():
    # the limits, nan, and the doubles past which -x^2/2 leaves them; arrays
    # keep their shape, and nothing warns (warnings are errors in this suite)
    cases = [(-math.inf, 0.0, -math.inf), (-1e200, 0.0, -math.inf), (-40.0, 0.0, None),
             (math.inf, 1.0, 0.0), (40.0, 1.0, 0.0), (0.0, 0.5, -math.log(2.0))]
    for x, phi, log_phi in cases:
        assert sf.ndtr(x) == phi and type(sf.ndtr(x)) is float
        if log_phi is not None:
            assert sf.log_ndtr(x) == log_phi
    assert sf.log_ndtr(-40.0) == pytest.approx(float(mp.log(mp.ncdf(-40))), rel=1e-15)
    assert math.isnan(sf.ndtr(math.nan)) and math.isnan(sf.log_ndtr(math.nan))
    grid = np.array([[-50.0, 0.0], [3.0, math.nan]])
    for f in (sf.ndtr, sf.log_ndtr):
        out = f(grid)
        assert out.shape == grid.shape and out.dtype == float
        assert all(same(a, f(x)) for a, x in zip(out.ravel(), grid.ravel()))


def agree(got, want, tol):
    """``got`` is ``want`` where scipy gives inf, nan or a zero; elsewhere within tol."""
    if math.isfinite(want) and want != 0.0:
        return abs(got - want) <= tol
    return same(got, want)


# tolerances against scipy: each function's oracle bound plus scipy's own error
TOL = {
    "ndtri": lambda want: 2e-15 * abs(want),
    "gammaln": lambda want: 34 * np.spacing(max(abs(want), 1.0)),
    "gamma": lambda want: 2e-15 * abs(want),
    "erf": lambda want: 2 * np.spacing(abs(want)),
    "exp1": lambda want: 3e-15 * abs(want),
}


@pytest.mark.parametrize("name", NAMES)
def test_edges_as_scipy(name):
    # scalars and arrays give scipy's values, with no exception or warning
    # (warnings are errors in this suite).  Where lgamma and gamma stay in
    # the doubles, scipy does not: gammaln at subnormal x (scipy overflows
    # 1/x to inf) and gamma(-171.5), a subnormal that scipy flushes to 0.
    # gammaln(-inf) is C99's +inf, where scipy gives -inf; ln|Gamma| has no
    # limit there.
    f, g = getattr(sf, name), getattr(scipy.special, name)
    xs = QS if name == "ndtri" else EDGES
    for x in xs:
        want, got = g(x), f(x)
        if name == "gammaln" and (x == -math.inf or 0.0 < abs(x) < np.finfo(float).tiny):
            want = float(mp.log(abs(mp.gamma(mp.mpf(x))))) if math.isfinite(x) else math.inf
        if (name, x) == ("gamma", -171.5):
            want = float(mp.gamma(x))
        assert agree(got, want, TOL[name](want)), (x, got, want)
        assert type(got) is float and type(f(np.float64(x))) is float
    grid = np.array(xs).reshape(-1, 1)
    out = f(grid)
    assert out.dtype == float and out.shape == grid.shape
    assert all(same(a, f(x)) for a, x in zip(out.ravel(), xs))


DOMAIN = {"ndtri": st.floats(0.0, 1.0), "gammaln": st.floats(-1e300, 1e300),
          "gamma": st.floats(-180.0, 180.0), "erf": st.floats(allow_nan=False),
          "exp1": st.floats(0.0, 800.0)}


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_agrees_with_scipy(name, data):
    x = data.draw(DOMAIN[name])
    if name == "gammaln":
        assume(not 0.0 < abs(x) < np.finfo(float).tiny)
    want, got = getattr(scipy.special, name)(x), getattr(sf, name)(x)
    if name == "gamma" and abs(want) < np.finfo(float).tiny:
        assert abs(got) < np.finfo(float).tiny or same(got, want)   # both underflow
    else:
        assert agree(got, want, TOL[name](want)), (x, got, want)
