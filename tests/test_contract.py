"""The CLI's contract on every subcommand, over random arguments.

Derandomized hypothesis tests drive ``pmean.cli.run`` in process.  The
deterministic subcommands take p on the extended line (also within 10^-k of
-1, -1/2 and 0), d from 1 to 1e7, 0 < alpha < beta < 1, and shift magnitudes
from 1e-300 to 1e300.  The simulating subcommands (``critval --method mc``,
``simulate``, ``ks``, ``schur2-check``) run at their reps floor with d <= 100
and 1 or 2 threads; ``ap-curve`` and ``verify-ap`` take grids of at most 1000
points, across [-1e3, 1e3], near -1/2, 0 and 2, and at magnitudes up to 1e300.
Every command must

* exit with a documented code: 0, 2 (domain), 3 (infeasible), 4 (accuracy)
  or 64 (usage);
* on exit 0, print one JSON document whose result holds only finite
  numbers: powers, estimates, probabilities, KS distances and a_p in [0, 1],
  critical values >= 0, sample sizes >= 1, and an explicit ``--critval``
  echoed as given;
* let no warning escape, apart from the snap of a p within 1e-12 of a
  regime boundary, which is documented.

To run it with more examples and a random seed, call
``settings(CONTRACT, max_examples=..., derandomize=False)(given(commands())(check_contract))``,
and the same with ``simulations()``; hypothesis prints the argv of any failure.
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


# the positive numbers of the grid commands: up to 1e300
_GRID_MAGNITUDES = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99),
                             st.integers(-15, 299))


@st.composite
def grids(draw):
    """--from, --to and --step of a grid of at most 1000 points."""
    lo = draw(st.one_of(
        st.floats(-1e3, 1e3),
        st.builds(lambda b, sign, k: b + sign * 10.0 ** -k, st.sampled_from([-0.5, 0.0, 2.0]),
                  st.sampled_from([-1.0, 1.0]), st.integers(1, 15)),
        st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]), magnitudes)))
    step = draw(st.one_of(st.floats(1e-3, 10.0), _GRID_MAGNITUDES))
    hi = lo + draw(st.integers(0, 999)) * step
    return ["--from", repr(lo), "--to", repr(hi if math.isfinite(hi) else lo),
            "--step", repr(step)]


@st.composite
def simulations(draw):
    """The simulating subcommands at their reps floor with d <= 100, and the
    grid commands."""
    cmd = draw(st.sampled_from(["critval", "simulate", "ks", "schur2-check", "ap-curve",
                                "verify-ap"]))
    if cmd == "verify-ap":
        return [cmd] + draw(grids())
    if cmd == "ap-curve":
        psi = ["--psi"] if draw(st.booleans()) else []
        return [cmd] + draw(grids()) + ["--format", "json"] + psi
    p, d = repr(draw(exponents)), draw(st.integers(1, 100))
    argv = [cmd, "--p", p, "--d", str(d), "--seed", str(draw(st.integers(0, 2 ** 31))),
            "--threads", str(draw(st.integers(1, 2)))]
    alpha = draw(levels())[0]
    if cmd == "critval":
        return argv + ["--alpha", alpha, "--method", "mc", "--reps", "1000"]
    if cmd == "simulate":
        shift = draw(st.one_of(st.none(), vectors(d)))
        critval = draw(st.one_of(st.sampled_from(["mc", "asymptotic"]),
                                 st.floats(0.0, 1e3, exclude_min=True).map(repr),
                                 magnitudes.map(repr)))
        return argv + ["--alpha", alpha, "--reps", "1000", "--critval", critval] \
            + ([] if shift is None else ["--shift", shift])
    if cmd == "ks":
        return argv + ["--nrep", "100"]
    # spike:t majorizes equalized:t at any d; swapped, the precondition fails unless d = 1
    t = repr(draw(magnitudes))
    v, w = f"spike:{t}", f"equalized:{t}"
    if draw(st.booleans()):
        v, w = w, v
    return argv + ["--c", repr(draw(st.floats(0.0, 1e3))), "--v", v, "--w", w, "--reps", "1000"]


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
    # an infeasible direction and a failed verify-ap still print their document
    if code != 0 and (argv[0], code) not in (("feasible", 3), ("verify-ap", 4)):
        assert out.getvalue() == "", f"{argv}: stdout on exit {code}"
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
    for key in ("estimate", "prob_v", "prob_w", "distance"):
        if key in result:
            assert 0.0 <= result[key] <= 1.0, f"{argv}: {result}"
    if argv[0] == "ap-curve":
        assert all(0.0 <= row[1] <= 1.0 for row in result["rows"]), f"{argv}: {result}"
    if argv[0] == "simulate" and doc["config"]["critval"] not in ("mc", "asymptotic"):
        critval = argv[argv.index("--critval") + 1]
        assert doc["config"]["critval"] == critval, f"{argv}: {doc['config']}"
        assert result["critical_value"] == float(f"{float(critval):.12g}"), f"{argv}: {result}"


@CONTRACT
@given(commands())
def test_deterministic_contract(argv):
    check_contract(argv)


@CONTRACT
@given(simulations())
def test_simulating_and_grid_contract(argv):
    check_contract(argv)
