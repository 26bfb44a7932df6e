import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import pmean
from pmean import special as sf
from pmean.numcore import (AccuracyError, BracketError, DomainError, RngStream,
                           find_root, gauss_expect, normal_cdf, normal_pdf,
                           normal_quantile)


def mp_quantile_oracle(q):
    """Bisection on the high-precision mpmath normal CDF."""
    import mpmath as mp
    mp.mp.dps = 30
    lo, hi = mp.mpf(-10), mp.mpf(10)
    for _ in range(120):
        mid = (lo + hi) / 2
        if mp.ncdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def test_normal_quantile_values():
    assert normal_quantile(0.5) == 0.0
    assert abs(normal_quantile(0.975) - mp_quantile_oracle(0.975)) < 1e-12
    assert abs(normal_quantile(0.95) - mp_quantile_oracle(0.95)) < 1e-12


def test_normal_pdf_cdf_basics():
    assert abs(normal_pdf(0.0) - 1.0 / math.sqrt(2 * math.pi)) < 1e-15
    xs = np.linspace(-6, 6, 101)
    assert np.all(normal_pdf(xs) == normal_pdf(-xs))
    cdf = normal_cdf(xs)
    assert np.all(np.diff(cdf) > 0)


def test_cdf_quantile_roundtrip():
    for q in np.linspace(0.001, 0.999, 41):
        assert abs(normal_cdf(normal_quantile(q)) - q) <= 1e-12


def test_cdf_symmetry_identity():
    xs = np.linspace(-8, 8, 161)
    assert np.max(np.abs(normal_cdf(xs) + normal_cdf(-xs) - 1.0)) <= 1e-14


def test_quantile_domain_errors():
    for q in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            normal_quantile(q)


def test_gauss_expect_moments():
    assert abs(gauss_expect(lambda x: x * x, 0.0) - 1.0) < 1e-12
    assert abs(gauss_expect(abs, 0.0) - math.sqrt(2 / math.pi)) < 1e-12
    assert abs(gauss_expect(lambda x: x * x, 1.0) - 2.0) < 1e-12


def test_gauss_expect_reflection_symmetry():
    # E f(Z+s) = E f~(Z-s) with f~(x) = f(-x), for a fixed function family
    rng = np.random.default_rng(1234)
    for _ in range(20):
        a = rng.uniform(0.3, 2.5)
        k = rng.uniform(-2.0, 2.0)
        s = rng.uniform(-3.0, 3.0)
        f = lambda x, a=a, k=k: abs(x - k) ** a + math.sin(a * x)
        g = lambda x, f=f: f(-x)
        assert abs(gauss_expect(f, s) - gauss_expect(g, -s)) < 1e-9


def test_gauss_expect_singular_split():
    val = gauss_expect(lambda y: abs(y) ** -0.5, 0.0, points=(0.0,))
    # E|Z|^{-1/2} = 2^{-1/4} Gamma(1/4) / sqrt(pi)
    from scipy.special import gamma
    assert abs(val - 2 ** -0.25 * gamma(0.25) / math.sqrt(math.pi)) < 1e-9


def test_gauss_expect_budget_exhaustion():
    with pytest.raises(AccuracyError) as exc:
        gauss_expect(lambda x: math.cos(200.0 * x * x), 0.0)
    assert math.isfinite(exc.value.estimate)
    assert exc.value.error_bound > 0


def test_find_root_examples():
    assert abs(find_root(lambda x: x * x - 2.0, 1.0, 2.0) - math.sqrt(2)) < 1e-12
    r = find_root(lambda x: normal_cdf(x) - 0.975, 0.0, 4.0)
    assert abs(r - mp_quantile_oracle(0.975)) < 1e-10
    with pytest.raises(BracketError):
        find_root(lambda x: 2.0 + math.atan(x), 2.0, 3.0)


def test_find_root_idempotent():
    g = lambda x: math.cos(x) - x
    r1 = find_root(g, 0.0, 1.0)
    r2 = find_root(g, max(0.0, r1 - 1e-6), min(1.0, r1 + 1e-6))
    assert abs(r1 - r2) < 1e-11


def test_find_root_widens():
    assert abs(find_root(lambda t: t - 5.0, 0.0, 1.0) - 5.0) < 1e-12
    # x - 1 on [2, 3]: the left end, where |g| is smaller, moves onto the root
    assert find_root(lambda x: x - 1.0, 2.0, 3.0) == 1.0
    with pytest.raises(BracketError):
        find_root(lambda t: -1.0, 0.0, 1.0, max_iter=5)


def test_find_root_widening_path():
    # each move doubles the moving end's distance from the other end, and
    # the last end reached is named when the budget runs out
    seen = []

    def g(t):
        seen.append(t)
        return -1.0

    with pytest.raises(BracketError, match=repr(8.0)):
        find_root(g, 0.0, 1.0, max_iter=3)
    assert seen == [0.0, 1.0, 2.0, 4.0, 8.0]
    # a tie moves hi; a smaller |g| at lo moves lo
    assert find_root(lambda x: -x - 1.0, 0.0, 1.0) == -1.0
    # a widened end where g is NaN stops the widening at once, naming the ends
    seen.clear()

    def g_nan(t):
        seen.append(t)
        return -1.0 / (1.0 + t) if t < 3.0 else math.nan

    with pytest.raises(BracketError, match=r"\[0\.0, 4\.0\]"):
        find_root(g_nan, 0.0, 1.0)
    assert seen == [0.0, 1.0, 2.0, 4.0]


# smooth g, strictly monotone in floating point over the range widening reaches
_SHAPES = (math.atan, math.asinh, lambda u: u + u ** 3 / 3.0)


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(range(len(_SHAPES))),
       root=st.floats(-50.0, 50.0),
       scale=st.floats(0.05, 20.0),
       sign=st.sampled_from((-1.0, 1.0)),
       lo_off=st.floats(-60.0, 60.0),
       width=st.floats(1e-3, 30.0))
def test_find_root_monotone_property(shape, root, scale, sign, lo_off, width):
    h = _SHAPES[shape]

    def g(x):
        return sign * h((x - root) / scale)

    lo = root + lo_off
    hi = lo + width
    x = find_root(g, lo, hi, tol=1e-12)
    assert abs(x - root) <= 1e-12 + 4.0 * 8.881784197001252e-16 * abs(root)
    glo, ghi = g(lo), g(hi)
    if glo != 0.0 and ghi != 0.0 and (glo < 0) != (ghi < 0):
        # a guess that brackets the root goes to Brent unchanged
        assert x == brentq(g, lo, hi, xtol=1e-12, rtol=8.881784197001252e-16)


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(range(len(_SHAPES))),
       root=st.floats(-50.0, 50.0),
       scale=st.floats(1e-3, 20.0),
       sign=st.sampled_from((-1.0, 1.0)),
       left=st.floats(1e-6, 60.0),
       right=st.floats(1e-6, 60.0),
       tol=st.sampled_from((1e-11, 1e-12, 1e-13)))
def test_find_root_matches_brentq_bits(shape, root, scale, sign, left, right, tol):
    # on a guess that brackets the root, the in-repo Brent takes scipy's steps
    h = _SHAPES[shape]

    def g(x):
        return sign * h((x - root) / scale)

    lo, hi = root - left, root + right
    assert find_root(g, lo, hi, tol=tol) == brentq(g, lo, hi, xtol=tol,
                                                   rtol=8.881784197001252e-16)


def test_find_root_nonconvergence_is_accuracy_error():
    # Brent stalls on |x|^0.01 in 100 iterations: typed error, not RuntimeError,
    # carrying the same last iterate as scipy's brentq
    g = lambda x: math.copysign(abs(x) ** 0.01, x)
    with pytest.raises(AccuracyError) as exc:
        find_root(g, -1.0, 1e300)
    last, info = brentq(g, -1.0, 1e300, xtol=1e-12, rtol=8.881784197001252e-16,
                        full_output=True, disp=False)
    assert not info.converged
    assert exc.value.estimate == last
    assert exc.value.error_bound > 0


def test_find_root_nan_in_brent_is_bracket_error():
    # NaN at lo of a guess that brackets (NaN < 0 is False, so no widening)
    with pytest.raises(BracketError, match=r"x=0\.0\b"):
        find_root(lambda x: 0.5 - x if x > 0.0 else math.nan, 0.0, 1.0)
    # NaN inside the bracket, where Brent's first secant step lands
    with pytest.raises(BracketError, match=r"x=0\.5\b"):
        find_root(lambda x: math.nan if 0.3 < x < 0.7 else x - 0.5, 0.0, 1.0)


def test_cli_import_leaves_unused_scipy_out():
    # the import loads no scipy module at all: none of integrate, optimize,
    # linalg, sparse, spatial, fft or special, and no numpy either
    code = ("import sys, pmean.cli; "
            "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


# Each command and whether a fresh process running it loads any scipy module.
# pmean.special serves every special function from the standard library and
# moments sums E|Z+s|^p by its own series, so only the exact finite-d ARE
# recursion, which keeps scipy's vectorized ndtr, loads scipy.
SCIPY_LOADS = [
    (["version"], False),
    (["are", "--p", "3", "--alpha", "0.05", "--beta", "0.8", "--useq", "spike"], False),
    (["simulate", "--p", "3", "--d", "100", "--alpha", "0.05", "--reps", "2000", "--seed", "5",
      "--shift", "equalized:0.3"], False),
    (["schur2-check", "--p", "1", "--d", "2", "--c", "1.5", "--v", "1.4142135623730951,0",
      "--w", "1,1", "--reps", "2000", "--seed", "9"], False),
    (["critval", "--p", "3", "--d", "1000", "--alpha", "0.05"], False),
    (["critval", "--p", "-1", "--d", "10000", "--alpha", "0.05"], False),
    (["critval", "--p", "2", "--d", "1000", "--alpha", "0.05"], False),
    (["feasible", "--p", "-2", "--d", "10000", "--alpha", "0.05", "--beta", "0.8",
      "--u", "block:100:1.0"], False),
    (["ap-curve", "--from", "-0.49", "--to", "8", "--step", "0.01", "--format", "json"], False),
    (["verify-ap", "--from", "-0.499", "--to", "50", "--step", "0.001"], False),
    (["ks", "--p", "-2", "--d", "1000", "--nrep", "200", "--seed", "3"], False),
    *[(["critval", "--p", p, "--d", "1000", "--alpha", "0.05"], False)
      for p in ("-inf", "-0.7", "-0.5", "-0.3", "0")],
    (["power", "--p", "3", "--d", "1000", "--alpha", "0.05", "--shift", "equalized:0.12"], False),
    (["samplesize", "--p", "1", "--d", "1000", "--alpha", "0.05", "--beta", "0.8",
      "--theta", "equalized:0.05"], False),
    (["are-finite", "--p", "1", "--d", "2", "--u", "1,0.5", "--alpha", "0.05", "--beta", "0.8"],
     True),
    (["ks", "--p", "3", "--d", "100", "--nrep", "200", "--seed", "3"], False),
    (["critval", "--p", "inf", "--d", "1000", "--alpha", "0.05"], False),
]


@pytest.mark.parametrize("argv, loads", SCIPY_LOADS)
def test_cli_commands_load_scipy_special_on_first_use(argv, loads):
    code = ("import sys, pmean.cli; code = pmean.cli.run(sys.argv[1:]); "
            "print(code, any(m.split('.')[0] == 'scipy' for m in sys.modules), file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, check=True)
    want_code = 3 if argv[0] == "feasible" else 0   # block:100 is infeasible at p = -2
    assert out.stderr.split() == [str(want_code), str(loads)]


# What a fresh process loads for a command that computes nothing, and for one
# command per library module: each handler imports the module it runs, and
# numpy only comes with the library.
MODULE_LOADS = [
    (["version"], set(), {"numpy", "pmean.numcore", "pmean.hypotest"}),
    (["--help"], set(), {"numpy", "pmean.numcore"}),
    (["critval", "--p", "3"], set(), {"numpy", "pmean.numcore"}),      # usage error: no --d
    (["critval", "--p", "3", "--d", "1000", "--alpha", "0.05"], {"numpy", "pmean.hypotest"},
     {"pmean.are", "pmean.mc", "concurrent.futures"}),
    (["simulate", "--p", "3", "--d", "100", "--alpha", "0.05", "--reps", "2000", "--seed", "5",
      "--shift", "equalized:0.3"], {"pmean.mc", "concurrent.futures"}, {"pmean.are"}),
    (["ap-curve", "--from", "0", "--to", "1", "--step", "0.5", "--format", "json"],
     {"pmean.are"}, {"pmean.mc"}),
]


@pytest.mark.parametrize("argv, loaded, not_loaded", MODULE_LOADS)
def test_cli_commands_load_only_their_module(argv, loaded, not_loaded):
    code = ("import json, sys, pmean.cli\n"
            "try:\n    code = pmean.cli.run(sys.argv[1:])\n"
            "except SystemExit as e:\n    code = e.code\n"
            "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         check=True)
    exit_code, modules = json.loads(out.stderr.splitlines()[-1])
    assert exit_code == (64 if argv == ["critval", "--p", "3"] else 0)
    assert loaded <= set(modules) and not not_loaded & set(modules)


def test_special_names_are_scipy_objects():
    # every name the package reads from pmean.special is pmean's own function,
    # none is scipy's, and the module serves no other name (no PEP 562 hook).
    # The one scipy name left is ndtr, which are.py imports from scipy.special
    # where its exact finite-d ARE recursion uses it.
    names, imports = set(), []
    for path in Path(pmean.__file__).parent.glob("*.py"):
        text = path.read_text()
        names.update(re.findall(r"\bsf\.(\w+)", text))
        imports += [(path.name, m) for m in re.findall(r"^\s*(?:from|import) (scipy\S*.*)$",
                                                        text, re.M)]
    assert names == {"ndtr", "log_ndtr", "ndtri", "gammaln", "gamma", "erf", "exp1"}
    for name in sorted(names):
        assert getattr(sf, name) is vars(sf)[name] is not getattr(scipy.special, name)
    assert not hasattr(sf, "__getattr__")
    for name in ("no_such_function", "erfc", "hyp1f1"):
        with pytest.raises(AttributeError, match=name):
            getattr(sf, name)
    assert [(f, m) for f, m in imports if "special" in m] == [("are.py", "scipy.special import ndtr")]


def test_rng_stream_reproducible():
    a = RngStream(123, 4).standard_normal(64)
    b = RngStream(123, 4).standard_normal(64)
    assert np.array_equal(a, b)
    c = RngStream(123, 5).standard_normal(64)
    assert not np.array_equal(a, c)
    d = RngStream(124, 4).standard_normal(64)
    assert not np.array_equal(a, d)


def test_rng_substream_deterministic():
    s = RngStream(7, 1)
    x = s.substream(3).standard_normal(8)
    y = s.substream(3).standard_normal(8)
    assert np.array_equal(x, y)
    z = s.substream(4).standard_normal(8)
    assert not np.array_equal(x, z)
