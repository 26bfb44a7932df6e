"""Golden corpus: the CLI's exit code and stdout for a fixed set of commands.

The commands cover every subcommand and all nine regimes (p in {-inf, -2,
-1, -0.7, -1/2, -0.3, 0, 1, 2, 3, +inf}) at desk sizes.  They run in
process through ``pmean.cli.run`` with the CLI's 12-digit output rounding
switched off, so the corpus holds full-precision numbers:

* deterministic entries compare every number to 1e-12 relative and every
  other value exactly;
* seeded Monte Carlo entries compare stdout byte for byte.

The entries of the simulating subcommands are recorded at ``--threads 1``
and also replayed at ``--threads 2``, where they must print the same.

Each entry is ``tests/golden/<name>.json``.  To rewrite the corpus after an
intended, recorded output change, run

    PYTHONPATH=src python tests/test_golden.py [name ...]
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from pmean import cli

GOLDEN = Path(__file__).with_name("golden")
REL_TOL = 1e-12


def _cmd(*argv):
    return list(argv) + (["--threads", "1"] if argv[0] in cli.SIMULATING else [])


DETERMINISTIC = {
    "version": ["version"],
    "critval-neg-inf": _cmd("critval", "--p", "-inf", "--d", "1000", "--alpha", "0.05"),
    "critval-m2": _cmd("critval", "--p", "-2", "--d", "1000", "--alpha", "0.05"),
    "critval-m1": _cmd("critval", "--p", "-1", "--d", "1000", "--alpha", "0.05"),
    "critval-m0.7": _cmd("critval", "--p", "-0.7", "--d", "1000", "--alpha", "0.05"),
    "critval-m0.5": _cmd("critval", "--p", "-0.5", "--d", "1000", "--alpha", "0.05"),
    "critval-m0.3": _cmd("critval", "--p", "-0.3", "--d", "1000", "--alpha", "0.05"),
    "critval-0": _cmd("critval", "--p", "0", "--d", "1000", "--alpha", "0.05"),
    "critval-1": _cmd("critval", "--p", "1", "--d", "1000", "--alpha", "0.05"),
    "critval-2": _cmd("critval", "--p", "2", "--d", "1000", "--alpha", "0.05"),
    "critval-3": _cmd("critval", "--p", "3", "--d", "1000", "--alpha", "0.01"),
    "critval-pos-inf": _cmd("critval", "--p", "inf", "--d", "1000", "--alpha", "0.05"),
    "power-neg-inf": _cmd("power", "--p", "-inf", "--d", "200", "--alpha", "0.05",
                          "--shift", "equalized:1.2"),
    "power-m0.7": _cmd("power", "--p", "-0.7", "--d", "200", "--alpha", "0.05",
                       "--shift", "block:50:0.8"),
    "power-0": _cmd("power", "--p", "0", "--d", "200", "--alpha", "0.05",
                    "--shift", "equalized:0.4"),
    "power-pos-inf": _cmd("power", "--p", "inf", "--d", "200", "--alpha", "0.05",
                          "--shift", "spike:0.4"),
    "samplesize-m2": _cmd("samplesize", "--p", "-2", "--d", "500", "--alpha", "0.05",
                          "--beta", "0.8", "--theta", "equalized:0.05"),
    "samplesize-m1": _cmd("samplesize", "--p", "-1", "--d", "1000", "--alpha", "0.05",
                          "--beta", "0.5", "--theta", "equalized:0.02"),
    "samplesize-m0.5": _cmd("samplesize", "--p", "-0.5", "--d", "500", "--alpha", "0.05",
                            "--beta", "0.8", "--theta", "block:400:0.05"),
    "samplesize-2": _cmd("samplesize", "--p", "2", "--d", "500", "--alpha", "0.05",
                         "--beta", "0.9", "--theta", "spike:0.1"),
    "samplesize-3": _cmd("samplesize", "--p", "3", "--d", "500", "--alpha", "0.05",
                         "--beta", "0.8", "--theta", "block:20:0.1"),
    "samplesize-pos-inf": _cmd("samplesize", "--p", "inf", "--d", "500", "--alpha", "0.05",
                               "--beta", "0.8", "--theta", "equalized:0.05"),
    "feasible-m2": _cmd("feasible", "--p", "-2", "--d", "1000", "--alpha", "0.05",
                        "--beta", "0.8", "--u", "block:800:1.0"),
    "feasible-m1": _cmd("feasible", "--p", "-1", "--d", "1000", "--alpha", "0.05",
                        "--beta", "0.5", "--u", "equalized:1.0"),
    "feasible-m0.3": _cmd("feasible", "--p", "-0.3", "--d", "1000", "--alpha", "0.05",
                          "--beta", "0.8", "--u", "block:100:1.0"),
    "feasible-1": _cmd("feasible", "--p", "1", "--d", "100", "--alpha", "0.05",
                       "--beta", "0.8", "--u", "spike:1.0"),
    "are-m0.3": _cmd("are", "--p", "-0.3", "--alpha", "0.05", "--beta", "0.8",
                     "--useq", "block:0.5", "--dims", "100,1000,100000"),
    "are-0-spike": _cmd("are", "--p", "0", "--alpha", "0.05", "--beta", "0.8",
                        "--useq", "spike"),
    "are-3-spike": _cmd("are", "--p", "3", "--alpha", "0.05", "--beta", "0.8",
                        "--useq", "spike"),
    "are-finite-1": _cmd("are-finite", "--p", "1", "--d", "2", "--u", "1,0.5",
                         "--alpha", "0.05", "--beta", "0.8"),
    "ap-curve": _cmd("ap-curve", "--from", "-0.6", "--to", "3", "--step", "0.3",
                     "--psi", "--format", "json"),
    "verify-ap": _cmd("verify-ap", "--from", "-0.45", "--to", "6", "--step", "0.05"),
}

MONTE_CARLO = {
    "critval-mc": _cmd("critval", "--p", "3", "--d", "100", "--alpha", "0.05",
                       "--method", "mc", "--reps", "20000", "--seed", "1"),
    "simulate-neg-inf": _cmd("simulate", "--p", "-inf", "--d", "50", "--alpha", "0.05",
                             "--reps", "4000", "--seed", "3", "--shift", "equalized:0.1"),
    "simulate-m0.5-asymptotic": _cmd("simulate", "--p", "-0.5", "--d", "100", "--alpha",
                                     "0.05", "--reps", "4000", "--seed", "4",
                                     "--critval", "asymptotic"),
    "ks-neg-inf": _cmd("ks", "--p", "-inf", "--d", "100", "--nrep", "500", "--seed", "5"),
    "ks-m2": _cmd("ks", "--p", "-2", "--d", "100", "--nrep", "300", "--seed", "6"),
    "ks-m1": _cmd("ks", "--p", "-1", "--d", "100", "--nrep", "100", "--seed", "7"),
    "ks-m0.7": _cmd("ks", "--p", "-0.7", "--d", "100", "--nrep", "100", "--seed", "8"),
    "ks-m0.5": _cmd("ks", "--p", "-0.5", "--d", "100", "--nrep", "500", "--seed", "9"),
    "ks-m0.3": _cmd("ks", "--p", "-0.3", "--d", "100", "--nrep", "500", "--seed", "10"),
    "ks-0": _cmd("ks", "--p", "0", "--d", "100", "--nrep", "500", "--seed", "11"),
    "ks-3": _cmd("ks", "--p", "3", "--d", "100", "--nrep", "500", "--seed", "12"),
    "ks-pos-inf": _cmd("ks", "--p", "inf", "--d", "100", "--nrep", "500", "--seed", "13"),
    "schur2-check": _cmd("schur2-check", "--p", "1", "--d", "2", "--c", "1.5",
                         "--v", "1.4142135623730951,0", "--w", "1,1", "--reps", "4000",
                         "--seed", "14"),
}

CASES = {**{k: ("deterministic", v) for k, v in DETERMINISTIC.items()},
         **{k: ("mc", v) for k, v in MONTE_CARLO.items()}}


def run_full_precision(argv):
    """(exit code, stdout) of one in-process CLI call, numbers unrounded."""
    buf = io.StringIO()
    rounding = cli._round12
    cli._round12 = lambda obj: obj
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
    finally:
        cli._round12 = rounding
    return code, buf.getvalue()


def assert_close(got, want, where="result"):
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), f"{where}: keys differ"
        for k in want:
            assert_close(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def check(kind, argv, code, stdout):
    """Run argv and compare its exit code and stdout with the recorded ones."""
    got_code, out = run_full_precision(argv)
    assert got_code == code
    if kind == "mc":
        assert out == stdout
    elif stdout:
        assert_close(json.loads(out), json.loads(stdout))
    else:
        assert out == ""


def load(name):
    kind, argv = CASES[name]
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert want["argv"] == argv and want["kind"] == kind
    return kind, argv, want


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    kind, argv, want = load(name)
    check(kind, argv, want["exit"], want["stdout"])


@pytest.mark.parametrize("name", sorted(k for k, (_, argv) in CASES.items()
                                        if "--threads" in argv))
def test_golden_two_threads(name):
    """The entries recorded at --threads 1 print the same at --threads 2, but
    for the thread count their config echoes."""
    kind, argv, want = load(name)
    assert argv[-2:] == ["--threads", "1"]
    stdout = want["stdout"]
    if stdout:
        assert stdout.count('"threads": 1') == 1
        stdout = stdout.replace('"threads": 1', '"threads": 2')
    check(kind, argv[:-1] + ["2"], want["exit"], stdout)


def capture(names):
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        kind, argv = CASES[name]
        code, out = run_full_precision(argv)
        doc = {"argv": argv, "kind": kind, "exit": code, "stdout": out}
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{name}: exit {code}")


if __name__ == "__main__":
    capture(sys.argv[1:] or sorted(CASES))
