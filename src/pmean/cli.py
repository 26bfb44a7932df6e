"""Command-line front end.

Subcommands wrap the public operations one-to-one and print a JSON document
{"config": ..., "result": ..., "diagnostics": ...} (CSV for ``ap-curve``).
The config is the parsed command line, every flag with its resolved value, so
re-running the echoed config reproduces the output byte for byte under a
fixed seed.

Exit codes: 0 success, 2 domain/configuration errors, 3 infeasibility,
4 accuracy failures, 64 usage errors.

The command line is parsed before numpy or the library is loaded, and each
handler imports only the module it runs, so ``version``, ``--help`` and usage
errors load neither.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import __version__


# The subcommands that draw random numbers, the only ones with --seed/--stream/--threads.
SIMULATING = ("critval", "simulate", "ks", "schur2-check")
# The most points an ap-curve or verify-ap grid may have.
MAX_GRID_POINTS = 1_000_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_p(text: str) -> float:
    t = text.strip().lower()
    if t in ("-inf", "-infinity"):
        return -math.inf
    if t in ("inf", "+inf", "infinity"):
        return math.inf
    return float(t)


def parse_count(text: str) -> int:
    """A count (--d, --reps, --nrep): an integer, also in float notation (1e6)."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not value.is_integer():
        raise ValueError(f"not an integer: {text}")
    return int(value)


def parse_finite(text: str) -> float:
    """A float flag (--alpha, --beta, --c, --from, --to, --step): finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text}")
    return value


def parse_threads(text: str) -> int:
    """--threads (default PMEAN_THREADS): an integer >= 1."""
    value = int(text)
    if value < 1:
        raise ValueError(f"fewer than 1 thread: {text}")
    return value


def parse_dims(text: str) -> str:
    """--dims: comma-separated counts >= 1.  The text is checked here and kept
    as typed, so the echoed config holds the string the user gave."""
    if any(parse_count(x) < 1 for x in text.split(",")):
        raise ValueError(f"dimensions must be >= 1: {text}")
    return text


_VECTOR_FORMS = ("comma-separated numbers, equalized:<t>, spike:<t>, block:<k>:<s> "
                "or a file of numbers")
_SEQUENCE_FORMS = "equalized, spike or block:<gamma>"


def _floats(spec: str, texts, forms: str) -> np.ndarray:
    """The numbers ``texts`` of the flag value ``spec``; a DomainError that
    quotes spec and the forms it may take if one is not a number."""
    import numpy as np
    from .numcore import DomainError
    try:
        return np.array([float(x) for x in texts], dtype=float)
    except ValueError:
        raise DomainError(f"malformed {spec!r}: expected {forms}") from None


def parse_vector(spec: str, d: int) -> np.ndarray:
    """Vector inputs: comma literals, ``equalized:<t>``, ``spike:<t>``,
    ``block:<k>:<s>``, or a readable file of whitespace-separated numbers."""
    import numpy as np
    from .numcore import DomainError
    s = spec.strip()
    kind, _, rest = s.partition(":")
    if kind in ("equalized", "spike", "block"):
        # equalized:<t> is block:<d>:<t>, and spike:<t> is block:1:<t sqrt(d)>
        try:
            k, t = rest.split(":") if kind == "block" else (d if kind == "equalized" else 1, rest)
            k, t = int(k), float(t)
        except ValueError:
            raise DomainError(f"malformed {spec!r}: expected {_VECTOR_FORMS}") from None
        if not 1 <= k <= d:
            raise DomainError(f"block size {k} outside [1, d={d}]")
        v = np.zeros(d)
        v[:k] = t * math.sqrt(d) if kind == "spike" else t
    elif "," in s:
        v = _floats(spec, s.split(","), _VECTOR_FORMS)
    elif os.path.exists(s):
        with open(s) as fh:
            v = _floats(spec, fh.read().split(), _VECTOR_FORMS)
    else:
        v = _floats(spec, [s], _VECTOR_FORMS)
    if v.size != d:
        raise DomainError(f"vector has {v.size} entries, expected d={d}")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"vector {spec!r} has a non-finite entry")
    return v


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    np = sys.modules.get("numpy")      # no numpy scalar exists before numpy is loaded
    if np is not None and isinstance(obj, np.floating):
        return float(f"{float(obj):.12g}")
    if np is not None and isinstance(obj, np.integer):
        return int(obj)
    return obj


def _emit(args, out, result: dict, diagnostics: dict):
    """Write CSV where --format csv, else JSON that echoes the parsed
    arguments as the config."""
    if getattr(args, "format", "json") == "csv":
        out.write(",".join(result["header"]) + "\n")
        for row in result["rows"]:
            out.write(",".join(f"{x:.12g}" for x in row) + "\n")
    else:
        # the config keeps every digit, so that re-running it reproduces the run
        doc = {"config": vars(args), **_round12({"result": result, "diagnostics": diagnostics})}
        out.write(json.dumps(doc, sort_keys=True) + "\n")


def build_parser() -> _Parser:
    ap = _Parser(prog="pmean", description="p-mean tests for high-dimensional Gaussian means")
    sub = ap.add_subparsers(dest="cmd", required=True)
    threads = os.environ.get("PMEAN_THREADS", "1")
    shared = {"p": None, "d": parse_count, "alpha": parse_finite, "beta": parse_finite}

    def command(name, help, *flags, formats=("json",)):
        """A subcommand with the required ``flags`` (keys of ``shared``)."""
        sp = sub.add_parser(name, help=help)
        for flag in flags:
            sp.add_argument("--" + flag, type=shared[flag], required=True)
        sp.add_argument("--format", choices=formats, default=formats[0])
        if name in SIMULATING:
            # the string default goes through parse_threads too, so a bad
            # PMEAN_THREADS is a usage error like a bad --threads
            sp.add_argument("--threads", type=parse_threads, default=threads)
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--stream", type=int, default=0)
        return sp

    sp = command("critval", "size-alpha critical value for <Z>_p", "p", "d", "alpha")
    sp.add_argument("--method", choices=("asymptotic", "mc"), default="asymptotic")
    sp.add_argument("--reps", type=parse_count, default=100_000)

    sp = command("power", "asymptotic power against a shift sqrt(n) theta", "p", "d", "alpha")
    sp.add_argument("--shift", required=True)

    sp = command("samplesize", "smallest n reaching power beta", "p", "d", "alpha", "beta")
    sp.add_argument("--theta", required=True)

    sp = command("feasible", "feasibility of a direction for p < 0", "p", "d", "alpha", "beta")
    sp.add_argument("--u", required=True)

    sp = command("are", "large-d ARE phase-transition verdict", "p", "alpha", "beta")
    sp.add_argument("--useq", required=True,
                    help="equalized | spike | block:<gamma> (k = ceil(d^gamma))")
    sp.add_argument("--dims", type=parse_dims, default="100,10000,1000000")

    sp = command("are-finite", "exact finite-d ARE (d <= 3) by quadrature",
                 "p", "d", "alpha", "beta")
    sp.add_argument("--u", required=True)

    def grid(sp):
        sp.add_argument("--from", dest="lo", type=parse_finite, required=True)
        sp.add_argument("--to", dest="hi", type=parse_finite, required=True)
        sp.add_argument("--step", type=parse_finite, required=True)
        return sp

    sp = grid(command("ap-curve", "tabulate the equalized-ARE constant a_p",
                      formats=("csv", "json")))
    sp.add_argument("--psi", action="store_true",
                    help="add the figure coordinates psi(p/4), psi(a_p)")
    sp.add_argument("--out", default="-")

    grid(command("verify-ap", "Gamma-ratio bound r(p) > 1 + p^2/2 on a grid"))

    sp = command("simulate", "Monte Carlo size or power of the test", "p", "d", "alpha")
    sp.add_argument("--shift", default=None, help="omit for size (zero shift)")
    sp.add_argument("--critval", default="mc", help="'mc', 'asymptotic', or an explicit number")
    sp.add_argument("--reps", type=parse_count, required=True)

    sp = command("ks", "KS distance of the normalized statistic to its limit law", "p", "d")
    sp.add_argument("--nrep", type=parse_count, required=True)

    sp = command("schur2-check", "Schur^2 ordering of two shifted rejection probabilities",
                 "p", "d")
    sp.add_argument("--c", type=parse_finite, required=True)
    sp.add_argument("--v", required=True)
    sp.add_argument("--w", required=True)
    sp.add_argument("--reps", type=parse_count, required=True)

    sub.add_parser("version", help="print the package version")
    return ap


# One handler per subcommand: each returns (result, diagnostics[, exit code]),
# and imports the one library module it runs.

def _version(args):
    return {"version": __version__}, {}


def _critval(args):
    from .hypotest import critical_value
    p = parse_p(args.p)
    if args.method == "mc":
        from .mc import empirical_critval
        from .numcore import RngStream
        r = empirical_critval(p, args.d, args.alpha, args.reps,
                              RngStream(args.seed, args.stream), threads=args.threads)
        return ({"critical_value": r.estimate, "method": "mc"},
                {"half_width": r.half_width, "reps": r.reps})
    cv = critical_value(p, args.d, args.alpha)
    return {"critical_value": cv.value, "method": cv.method}, {}


def _power(args):
    from .hypotest import power_asymptotic
    shift = parse_vector(args.shift, args.d)
    return {"power": power_asymptotic(parse_p(args.p), args.d, args.alpha, shift)}, {}


def _samplesize(args):
    from .hypotest import TestPlan, as_shift_scale, n_for_scale, power_asymptotic
    theta = parse_vector(args.theta, args.d)
    plan = TestPlan(parse_p(args.p), args.d, args.alpha, args.beta, theta)
    t = as_shift_scale(plan)
    n = n_for_scale(t)
    pw = power_asymptotic(plan.p, args.d, args.alpha, math.sqrt(n) * theta)
    return {"n": n, "shift_scale": t}, {"power_at_n": pw}


def _feasible(args):
    from .hypotest import TestPlan, feasibility
    u = parse_vector(args.u, args.d)
    f = feasibility(TestPlan(parse_p(args.p), args.d, args.alpha, args.beta, u))
    return ({"feasible": f.feasible, "threshold": f.threshold, "d0": f.d0},
            {"detail": f.detail}, 0 if f.feasible else 3)


def _are(args):
    from dataclasses import replace
    from .are import block_sequence, classify_are, equalized_sequence, spike_sequence
    from .numcore import DomainError
    if args.useq == "equalized":
        seq = equalized_sequence()
    elif args.useq == "spike":
        seq = spike_sequence()
    elif args.useq.startswith("block:"):
        (gamma,) = _floats(args.useq, [args.useq[len("block:"):]], _SEQUENCE_FORMS)
        seq = block_sequence(float(gamma))
    else:
        raise DomainError(f"unknown direction sequence {args.useq!r}: expected {_SEQUENCE_FORMS}")
    seq = replace(seq, probe_dims=tuple(parse_count(x) for x in args.dims.split(",")))
    v = classify_are(parse_p(args.p), seq, args.alpha, args.beta)
    return {"tag": v.tag, "value": v.value}, {"rationale": v.rationale}


def _are_finite(args):
    from .are import are_finite
    u = parse_vector(args.u, args.d)
    return {"are": are_finite(parse_p(args.p), args.d, u, args.alpha, args.beta)}, {}


def _p_grid(args) -> np.ndarray:
    """--from, --from + --step, ... up to --to."""
    import numpy as np
    from .numcore import DomainError
    if args.step <= 0.0:
        raise DomainError(f"--step must be positive, got {args.step}")
    if args.lo > args.hi:
        raise DomainError(f"--from {args.lo} exceeds --to {args.hi}: the grid is empty")
    if args.step < 2.0 * math.ulp(max(abs(args.lo), abs(args.hi))):
        raise DomainError(f"--step {args.step} is below twice the spacing of the doubles "
                          "on the grid: it would merge or drop points")
    # counted before np.arange allocates its ceil((hi - lo) / step + 1/2) points
    if (args.hi - args.lo) / args.step + 0.5 > MAX_GRID_POINTS:
        raise DomainError(f"--step {args.step} gives a grid of over {MAX_GRID_POINTS} points")
    return np.arange(args.lo, args.hi + args.step / 2.0, args.step)


def _ap_curve(args):
    import numpy as np
    from .are import ap_curve
    grid = _p_grid(args)
    with np.errstate(over="ignore"):    # p 1e9 may overflow past 1e15, where p is kept as it is
        grid = np.where(np.abs(grid) < 1e15, np.round(grid, 9), grid)
    table = ap_curve(grid, with_transform=args.psi)
    return {"header": ["p", "a_p"] + (["psi_p", "psi_a"] if args.psi else []),
            "rows": [[float(x) for x in row] for row in table]}, {}


def _verify_ap(args):
    import numpy as np
    from .are import verify_ap_bound
    from .numcore import DomainError
    grid = _p_grid(args)
    grid = grid[(np.abs(grid) > 1e-12) & (np.abs(grid - 2.0) > 1e-12) & (grid > -0.5)]
    if grid.size == 0:
        raise DomainError("no point of the --from/--to grid lies in (-1/2, inf) apart from 0 and 2")
    rep = verify_ap_bound(grid)
    return ({"points": int(rep.grid.size), "r_violations": rep.r_violations,
             "partial_violations": rep.partial_violations, "r_margin_min": rep.r_margin_min,
             "partial_margin_min": rep.partial_margin_min, "ok": rep.ok},
            {}, 0 if rep.ok else 4)


def _simulate(args):
    import numpy as np
    from .hypotest import critical_value
    from .mc import empirical_critval, empirical_power
    from .numcore import DomainError, RngStream
    p = parse_p(args.p)
    shift = np.zeros(args.d) if args.shift is None else parse_vector(args.shift, args.d)
    diag = {}
    if args.critval == "mc":
        cv = empirical_critval(p, args.d, args.alpha, args.reps,
                               RngStream(args.seed, args.stream + 1_000_003),
                               threads=args.threads)
        cval = cv.estimate
        diag["critval_half_width"] = cv.half_width
    elif args.critval == "asymptotic":
        cval = critical_value(p, args.d, args.alpha).value
    else:
        cval = float(args.critval)
        if not math.isfinite(cval):
            raise DomainError(f"--critval must be finite, got {args.critval}")
    r = empirical_power(p, args.d, shift, cval, args.reps, RngStream(args.seed, args.stream),
                        threads=args.threads)
    return {"estimate": r.estimate, "half_width": r.half_width, "critical_value": cval}, diag


def _ks(args):
    from .mc import limit_law_ks
    from .numcore import RngStream
    fit = limit_law_ks(parse_p(args.p), args.d, args.nrep,
                       RngStream(args.seed, args.stream), threads=args.threads)
    return {"distance": fit.distance, "law": fit.law}, {}


def _schur2_check(args):
    from .mc import schur2_check
    from .numcore import RngStream
    v = parse_vector(args.v, args.d)
    w = parse_vector(args.w, args.d)
    r = schur2_check(parse_p(args.p), args.d, args.c, v, w, args.reps,
                     RngStream(args.seed, args.stream), threads=args.threads)
    return ({"tag": r.tag, "prob_v": r.prob_v.estimate, "prob_w": r.prob_w.estimate,
             "z_score": r.z_score}, {"detail": r.detail})


_HANDLERS = {"version": _version, "critval": _critval, "power": _power,
             "samplesize": _samplesize, "feasible": _feasible, "are": _are,
             "are-finite": _are_finite, "ap-curve": _ap_curve, "verify-ap": _verify_ap,
             "simulate": _simulate, "ks": _ks, "schur2-check": _schur2_check}


def _dispatch(args, out) -> int:
    result, diagnostics, *code = _HANDLERS[args.cmd](args)
    if getattr(args, "out", "-") == "-":
        _emit(args, out, result, diagnostics)
    else:
        with open(args.out, "w") as dest:
            _emit(args, dest, result, diagnostics)
    return code[0] if code else 0


_NEGATIVE_VALUE = re.compile(r"^-(inf(inity)?|\d|\.\d)", re.IGNORECASE)


def _merge_negative_values(argv):
    """Attach value tokens that begin with '-' (e.g. -inf, -1,0) to their flag,
    which argparse would otherwise read as options."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and "=" not in tok and i + 1 < len(argv) \
                and _NEGATIVE_VALUE.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv) -> int:
    """Parse and execute one command; structured output on stdout, diagnostics
    on stderr; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 64
    try:
        return _dispatch(args, sys.stdout)
    except (ValueError, RuntimeError, OSError) as e:
        status = _failure(e)
        if status is None:
            raise
        print(f"{status[1]}: {e}", file=sys.stderr)
        return status[0]


def _failure(e: Exception):
    """(exit code, label) of a failed command, None for an error that is not
    the library's.  The library's errors subclass ValueError or RuntimeError;
    a handler that raised one has loaded the modules imported here."""
    from .hypotest import InfeasibleError
    from .numcore import AccuracyError, IndeterminateGrowthError
    if isinstance(e, InfeasibleError):
        return 3, "infeasible"
    if isinstance(e, (AccuracyError, IndeterminateGrowthError)):
        return 4, "accuracy"
    if isinstance(e, (ValueError, OSError)):
        return 2, "error"
    return None


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
