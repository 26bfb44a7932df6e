"""Command-line front end.

Subcommands wrap the public operations one-to-one and print a JSON document
{"config": ..., "result": ..., "diagnostics": ...} (or CSV where tabular).
Every run echoes its fully resolved configuration, so re-running the echoed
config reproduces the output byte for byte under a fixed seed.

Exit codes: 0 success, 2 domain/configuration errors, 3 infeasibility,
4 accuracy failures, 64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .are import (IndeterminateGrowthError, ap_curve, are_finite, block_sequence,
                  classify_are, equalized_sequence, spike_sequence, verify_ap_bound)
from .hypotest import (InfeasibleError, TestPlan, as_shift_scale, critical_value,
                       feasibility, power_asymptotic)
from .mc import empirical_critval, empirical_power, limit_law_ks, schur2_check
from .numcore import AccuracyError, BracketError, ConfigError, DomainError, RngStream


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


def parse_vector(spec: str, d: int) -> np.ndarray:
    """Vector inputs: comma literals, ``equalized:<t>``, ``spike:<t>``,
    ``block:<k>:<s>``, or a readable file of whitespace-separated numbers."""
    s = spec.strip()
    if s.startswith("equalized:"):
        return float(s.split(":", 1)[1]) * np.ones(d)
    if s.startswith("spike:"):
        v = np.zeros(d)
        v[0] = float(s.split(":", 1)[1]) * math.sqrt(d)
        return v
    if s.startswith("block:"):
        _, k, val = s.split(":")
        k = int(k)
        if not 1 <= k <= d:
            raise DomainError(f"block size {k} outside [1, d={d}]")
        v = np.zeros(d)
        v[:k] = float(val)
        return v
    if "," in s:
        v = np.array([float(x) for x in s.split(",")], dtype=float)
    elif os.path.exists(s):
        with open(s) as fh:
            v = np.array([float(x) for x in fh.read().split()], dtype=float)
    else:
        v = np.array([float(s)], dtype=float)
    if v.size != d:
        raise DomainError(f"vector has {v.size} entries, expected d={d}")
    return v


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit_json(out, config: dict, result: dict, diagnostics: dict | None = None):
    doc = {"config": _round12(config), "result": _round12(result),
           "diagnostics": _round12(diagnostics or {})}
    out.write(json.dumps(doc, sort_keys=True) + "\n")


def _emit_csv(out, header: list[str], rows):
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(f"{x:.12g}" if isinstance(x, float) else str(x) for x in row) + "\n")


def build_parser() -> _Parser:
    ap = _Parser(prog="pmean", description="p-mean tests for high-dimensional Gaussian means")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(sp, seed=True):
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--threads", type=int,
                        default=int(os.environ.get("PMEAN_THREADS", "1")))
        if seed:
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--stream", type=int, default=0)

    sp = sub.add_parser("critval", help="size-alpha critical value for <Z>_p")
    sp.add_argument("--p", required=True)
    sp.add_argument("--d", type=parse_count, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--method", choices=("asymptotic", "mc"), default="asymptotic")
    sp.add_argument("--reps", type=parse_count, default=100_000)
    common(sp)

    sp = sub.add_parser("power", help="asymptotic power against a shift sqrt(n) theta")
    sp.add_argument("--p", required=True)
    sp.add_argument("--d", type=parse_count, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--shift", required=True)
    common(sp)

    sp = sub.add_parser("samplesize", help="smallest n reaching power beta")
    sp.add_argument("--p", required=True)
    sp.add_argument("--d", type=parse_count, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--theta", required=True)
    sp.add_argument("--slack", type=float, default=0.0)
    common(sp)

    sp = sub.add_parser("feasible", help="feasibility of a direction for p < 0")
    sp.add_argument("--p", required=True)
    sp.add_argument("--d", type=parse_count, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--u", required=True)
    sp.add_argument("--slack", type=float, default=0.0)
    common(sp)

    sp = sub.add_parser("are", help="large-d ARE phase-transition verdict")
    sp.add_argument("--p", required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--useq", required=True,
                    help="equalized | spike | block:<gamma> (k = ceil(d^gamma))")
    sp.add_argument("--dims", default="100,10000,1000000")
    common(sp)

    sp = sub.add_parser("are-finite", help="exact finite-d ARE (d <= 3) by quadrature")
    sp.add_argument("--p", required=True)
    sp.add_argument("--d", type=parse_count, required=True)
    sp.add_argument("--u", required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    common(sp)

    sp = sub.add_parser("ap-curve", help="tabulate the equalized-ARE constant a_p")
    sp.add_argument("--from", dest="lo", type=float, required=True)
    sp.add_argument("--to", dest="hi", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.add_argument("--psi", action="store_true",
                    help="add the figure coordinates psi(p/4), psi(a_p)")
    sp.add_argument("--out", default="-")
    common(sp)
    sp.set_defaults(format="csv")

    sp = sub.add_parser("verify-ap", help="Gamma-ratio bound r(p) > 1 + p^2/2 on a grid")
    sp.add_argument("--from", dest="lo", type=float, required=True)
    sp.add_argument("--to", dest="hi", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    common(sp)

    sp = sub.add_parser("simulate", help="Monte Carlo size or power of the test")
    sp.add_argument("--p", required=True)
    sp.add_argument("--d", type=parse_count, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--shift", default=None, help="omit for size (zero shift)")
    sp.add_argument("--critval", default="mc",
                    help="'mc', 'asymptotic', or an explicit number")
    sp.add_argument("--reps", type=parse_count, required=True)
    common(sp)

    sp = sub.add_parser("ks", help="KS distance of the normalized statistic to its limit law")
    sp.add_argument("--p", required=True)
    sp.add_argument("--d", type=parse_count, required=True)
    sp.add_argument("--nrep", type=parse_count, required=True)
    common(sp)

    sp = sub.add_parser("schur2-check", help="Schur^2 ordering of two shifted rejection probabilities")
    sp.add_argument("--p", required=True)
    sp.add_argument("--d", type=parse_count, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--v", required=True)
    sp.add_argument("--w", required=True)
    sp.add_argument("--reps", type=parse_count, required=True)
    common(sp)

    sp = sub.add_parser("version", help="print the package version")
    common(sp, seed=False)
    return ap


def _config_dict(args, fields):
    cfg = {"cmd": args.cmd}
    for f in fields:
        cfg[f] = getattr(args, f)
    return cfg


def _dispatch(args, out) -> int:
    threads = max(1, args.threads) if hasattr(args, "threads") else 1

    if args.cmd == "version":
        _emit_json(out, {"cmd": "version"}, {"version": __version__})
        return 0

    if args.cmd == "critval":
        cfg = _config_dict(args, ["p", "d", "alpha", "method", "reps", "seed", "stream",
                                  "threads", "format"])
        p = parse_p(args.p)
        if args.method == "mc":
            r = empirical_critval(p, args.d, args.alpha, args.reps,
                                  RngStream(args.seed, args.stream), threads=threads)
            _emit_json(out, cfg, {"critical_value": r.estimate, "method": "mc"},
                       {"half_width": r.half_width, "reps": r.reps})
        else:
            cv = critical_value(p, args.d, args.alpha)
            _emit_json(out, cfg, {"critical_value": cv.value, "method": cv.method})
        return 0

    if args.cmd == "power":
        cfg = _config_dict(args, ["p", "d", "alpha", "shift", "threads", "format",
                                  "seed", "stream"])
        shift = parse_vector(args.shift, args.d)
        beta = power_asymptotic(parse_p(args.p), args.d, args.alpha, shift)
        _emit_json(out, cfg, {"power": beta})
        return 0

    if args.cmd == "samplesize":
        cfg = _config_dict(args, ["p", "d", "alpha", "beta", "theta", "slack",
                                  "threads", "format", "seed", "stream"])
        theta = parse_vector(args.theta, args.d)
        plan = TestPlan(parse_p(args.p), args.d, args.alpha, args.beta, theta)
        t = as_shift_scale(plan, slack=args.slack)
        n = max(1, int(math.ceil(t * t - 1e-9)))
        pw = power_asymptotic(plan.p, args.d, args.alpha, math.sqrt(n) * theta)
        _emit_json(out, cfg, {"n": n, "shift_scale": t},
                   {"power_at_n": pw})
        return 0

    if args.cmd == "feasible":
        cfg = _config_dict(args, ["p", "d", "alpha", "beta", "u", "slack",
                                  "threads", "format", "seed", "stream"])
        u = parse_vector(args.u, args.d)
        plan = TestPlan(parse_p(args.p), args.d, args.alpha, args.beta, u)
        f = feasibility(plan, slack=args.slack)
        _emit_json(out, cfg, {"feasible": f.feasible, "threshold": f.threshold, "d0": f.d0},
                   {"detail": f.detail})
        return 0 if f.feasible else 3

    if args.cmd == "are":
        cfg = _config_dict(args, ["p", "alpha", "beta", "useq", "dims", "threads",
                                  "format", "seed", "stream"])
        if args.useq == "equalized":
            seq = equalized_sequence()
        elif args.useq == "spike":
            seq = spike_sequence()
        elif args.useq.startswith("block:"):
            seq = block_sequence(float(args.useq.split(":", 1)[1]))
        else:
            raise DomainError(f"unknown direction sequence {args.useq!r}")
        dims = tuple(int(float(x)) for x in args.dims.split(","))
        seq = type(seq)(seq.generator, dims)
        v = classify_are(parse_p(args.p), seq, args.alpha, args.beta)
        _emit_json(out, cfg, {"tag": v.tag, "value": v.value}, {"rationale": v.rationale})
        return 0

    if args.cmd == "are-finite":
        cfg = _config_dict(args, ["p", "d", "u", "alpha", "beta", "threads", "format",
                                  "seed", "stream"])
        u = parse_vector(args.u, args.d)
        val = are_finite(parse_p(args.p), args.d, u, args.alpha, args.beta)
        _emit_json(out, cfg, {"are": val})
        return 0

    if args.cmd == "ap-curve":
        cfg = _config_dict(args, ["lo", "hi", "step", "psi", "out", "format",
                                  "threads"])
        ps = np.round(np.arange(args.lo, args.hi + args.step / 2.0, args.step), 9)
        table = ap_curve(ps, with_transform=args.psi)
        header = ["p", "a_p"] + (["psi_p", "psi_a"] if args.psi else [])
        dest = out if args.out == "-" else open(args.out, "w")
        try:
            if args.format == "csv":
                _emit_csv(dest, header, [tuple(float(x) for x in row) for row in table])
            else:
                _emit_json(dest, cfg, {"header": header,
                                       "rows": [[float(x) for x in row] for row in table]})
        finally:
            if dest is not out:
                dest.close()
        return 0

    if args.cmd == "verify-ap":
        cfg = _config_dict(args, ["lo", "hi", "step", "threads", "format"])
        grid = np.arange(args.lo, args.hi + args.step / 2.0, args.step)
        grid = grid[(np.abs(grid) > 1e-12) & (np.abs(grid - 2.0) > 1e-12) & (grid > -0.5)]
        rep = verify_ap_bound(grid)
        res = {"points": int(rep.grid.size), "r_violations": rep.r_violations,
               "partial_violations": rep.partial_violations,
               "r_margin_min": rep.r_margin_min,
               "partial_margin_min": rep.partial_margin_min, "ok": rep.ok}
        _emit_json(out, cfg, res)
        return 0 if rep.ok else 4

    if args.cmd == "simulate":
        cfg = _config_dict(args, ["p", "d", "alpha", "shift", "critval", "reps",
                                  "seed", "stream", "threads", "format"])
        p = parse_p(args.p)
        rng = RngStream(args.seed, args.stream)
        diag = {}
        if args.critval == "mc":
            cv = empirical_critval(p, args.d, args.alpha, args.reps,
                                   RngStream(args.seed, args.stream + 1_000_003),
                                   threads=threads)
            cval = cv.estimate
            diag["critval_half_width"] = cv.half_width
        elif args.critval == "asymptotic":
            cval = critical_value(p, args.d, args.alpha).value
        else:
            cval = float(args.critval)
        shift = (np.zeros(args.d) if args.shift is None
                 else parse_vector(args.shift, args.d))
        r = empirical_power(p, args.d, shift, cval, args.reps, rng, threads=threads)
        _emit_json(out, cfg, {"estimate": r.estimate, "half_width": r.half_width,
                              "critical_value": cval}, diag)
        return 0

    if args.cmd == "ks":
        cfg = _config_dict(args, ["p", "d", "nrep", "seed", "stream", "threads", "format"])
        fit = limit_law_ks(parse_p(args.p), args.d, args.nrep,
                           RngStream(args.seed, args.stream), threads=threads)
        _emit_json(out, cfg, {"distance": fit.distance, "law": fit.law})
        return 0

    if args.cmd == "schur2-check":
        cfg = _config_dict(args, ["p", "d", "c", "v", "w", "reps", "seed", "stream",
                                  "threads", "format"])
        v = parse_vector(args.v, args.d)
        w = parse_vector(args.w, args.d)
        r = schur2_check(parse_p(args.p), args.d, args.c, v, w, args.reps,
                         RngStream(args.seed, args.stream), threads=threads)
        _emit_json(out, cfg, {"tag": r.tag, "prob_v": r.prob_v.estimate,
                              "prob_w": r.prob_w.estimate, "z_score": r.z_score},
                   {"detail": r.detail})
        return 0

    raise UsageError(f"unknown subcommand {args.cmd!r}")


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
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3
    except (AccuracyError, IndeterminateGrowthError) as e:
        print(f"accuracy: {e}", file=sys.stderr)
        return 4
    except (DomainError, ConfigError, BracketError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
