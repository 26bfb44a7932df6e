"""The pmean benchmark.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 30 --trace 0

Runs whole passes of one workload, each in a fresh process, for up to
``--seconds`` seconds (at least one pass; another starts only if the last
one would still fit), checks every answer, and prints as the last line of
stdout one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones, taken from traced passes.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("plan", "montecarlo", "stablelaw", "cli")
MIN_SETUPS = 3          # set-up samples per run; the median is reported
DEADLINE_S = 170.0      # a run that is not done by then is stopped and fails


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def spawn(args, mode: str, index: int, deadline: float) -> dict:
    """One worker process; returns its parsed result."""
    out = OUT / f"trace-{args.workload}-seed{args.seed}-{index}.json.gz"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t_spawn = perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), args.workload, str(args.seed),
           mode, str(args.trace), "1" if args.tiny else "0", repr(t_spawn), str(out)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} {mode} did not finish in time")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pmean" / "__init__.py").is_file():
        print(f"perfbench: no pmean sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    start = perf_counter()
    deadline = start + DEADLINE_S
    passes = []
    while True:
        t0 = perf_counter()
        passes.append(spawn(args, "pass", len(passes), deadline))
        last = perf_counter() - t0
        if perf_counter() - start + last > args.seconds:
            break
    setups = [s for p in passes for s in p["setup_s"]]
    if not args.trace and args.workload != "cli":
        while len(setups) < MIN_SETUPS:
            setups += spawn(args, "setup", 0, deadline)["setup_s"]

    for p in passes:
        for f in p["errors"] + p["wrong"]:
            print(f"FAILED {f}", file=sys.stderr)
    # a query counts once per pass, however many of its checks failed
    failed = sum(len({f.split(":", 1)[0] for f in p["errors"] + p["wrong"]}) for p in passes)
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "query_p50_s": (statistics.median(t for p in passes for t in p["query_s"]), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    summary = " ".join(f"{k}={v:.4g}" for k, (v, _) in e2e.items())
    print(f"perfbench: {args.workload} seed={args.seed} passes={len(passes)} "
          f"trace={args.trace} {summary}", file=sys.stderr)
    if args.trace:
        import tracer
        sums = {}
        for p in passes:
            tracer.add_sums(sums, {k: tuple(v) for k, v in p["layer_sums"].items()})
        metrics = tracer.layer_metrics(sums)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": not any(p["wrong"] for p in passes),
                      "attempted": sum(p["attempted"] for p in passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
