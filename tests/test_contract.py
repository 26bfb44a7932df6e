"""The CLI's contract on the deterministic subcommands, over random arguments.

A derandomized hypothesis test drives ``pmean.cli.run`` in process with p on
the extended line (also within 10^-k of -1, -1/2 and 0), d from 1 to 1e7,
0 < alpha < beta < 1, and shift magnitudes from 1e-300 to 1e300.  Every
command must

* exit with a documented code: 0, 2 (domain), 3 (infeasible), 4 (accuracy)
  or 64 (usage);
* on exit 0, print one JSON document whose result holds only finite
  numbers: powers in [0, 1], critical values >= 0, sample sizes >= 1;
* let no warning escape, apart from the snap of a p within 1e-12 of a
  regime boundary, which is documented.

To run it with more examples and a random seed, call
``settings(CONTRACT, max_examples=..., derandomize=False)(given(commands())(check_contract))``;
hypothesis prints the argv of any failure.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pmean import cli

EXITS = (0, 2, 3, 4, 64)

CONTRACT = settings(max_examples=500, derandomize=True, database=None, deadline=20_000,
                    suppress_health_check=[HealthCheck.too_slow])

_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

exponents = st.one_of(
    st.sampled_from([-math.inf, math.inf, -1.0, -0.5, 0.0, 1.0, 2.0]),
    st.floats(-1e3, 1e3),
    st.builds(lambda b, sign, k: b + sign * 10.0 ** -k, st.sampled_from([-1.0, -0.5, 0.0]),
              st.sampled_from([-1.0, 1.0]), st.integers(1, 15)),
)
# mostly desk sizes, sometimes up to 1e7
dims = st.one_of(st.integers(1, 1000), st.integers(1, 10 ** 7))
magnitudes = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), st.integers(-300, 299))


@st.composite
def levels(draw):
    """alpha < beta, both in (0, 1)."""
    a, b = sorted((draw(_UNIT), draw(_UNIT)))
    if a == b:
        b = math.nextafter(b, 1.0)
    return repr(a), repr(b)


@st.composite
def vectors(draw, d):
    kind = draw(st.sampled_from(["equalized", "spike", "block"]))
    t = repr(draw(magnitudes))
    if kind == "block":
        return f"block:{draw(st.integers(1, d))}:{t}"
    return f"{kind}:{t}"


@st.composite
def commands(draw):
    cmd = draw(st.sampled_from(["critval", "power", "samplesize", "feasible", "are",
                                "are-finite"]))
    p = repr(draw(exponents))
    alpha, beta = draw(levels())
    if cmd == "are":
        useq = draw(st.one_of(st.sampled_from(["equalized", "spike"]),
                              st.floats(0.0, 1.0).map(lambda g: f"block:{g!r}")))
        return ["are", "--p", p, "--alpha", alpha, "--beta", beta, "--useq", useq,
                "--dims", draw(st.sampled_from(["10,100,10000", "100,10000,1000000"]))]
    if cmd == "are-finite":
        d = draw(st.integers(1, 3))
        u = ",".join(repr(draw(st.one_of(st.just(0.0), magnitudes))) for _ in range(d))
        return ["are-finite", "--p", p, "--d", str(d), "--u", u, "--alpha", alpha,
                "--beta", beta]
    d = draw(dims)
    argv = [cmd, "--p", p, "--d", str(d), "--alpha", alpha]
    if cmd == "power":
        return argv + ["--shift", draw(vectors(d))]
    if cmd == "samplesize":
        return argv + ["--beta", beta, "--theta", draw(vectors(d))]
    if cmd == "feasible":
        return argv + ["--beta", beta, "--u", draw(vectors(d))]
    return argv


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    escaped = [w for w in caught if "snapped to boundary" not in str(w.message)]
    assert not escaped, f"{argv}: {[str(w.message) for w in escaped]}"
    assert code in EXITS, f"{argv}: exit {code}"
    if code != 0:
        assert out.getvalue() == "" or argv[0] == "feasible", f"{argv}: stdout on exit {code}"
        return
    doc = json.loads(out.getvalue())
    result, diag = doc["result"], doc["diagnostics"]
    assert all(math.isfinite(x) for x in _numbers(result)), f"{argv}: {result}"
    for key in ("power", "critical_value", "n", "are"):
        if key in result:
            lo = 1 if key == "n" else 0
            assert result[key] >= lo, f"{argv}: {result}"
    if "power" in result:
        assert result["power"] <= 1.0, f"{argv}: {result}"
    if "power_at_n" in diag:
        assert 0.0 <= diag["power_at_n"] <= 1.0, f"{argv}: {diag}"
    if argv[0] == "are" and result["value"] is not None:
        assert result["value"] >= 0.0, f"{argv}: {result}"


@CONTRACT
@given(commands())
def test_deterministic_contract(argv):
    check_contract(argv)
