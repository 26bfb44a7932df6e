"""Reference figures: run the benchmark on one or more seed sets, one run at a
time, and print each metric's median, quartiles and spread (interquartile
range over median) per set as a Markdown table.

    python3 perfbench/reference.py --workload plan --sets 1-10 11-20 [--trace 0]

Runs of different sets are interleaved in time (the first seed of each set,
then the second of each, ...), so every set meets the same machine; this
box's speed drifts over minutes.  With --trace 1 the table also shows the
traced passes' wall time, from run.py's summary line.  Quartiles are
``statistics.quantiles(values, n=4)``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = [ln for ln in proc.stderr.splitlines() if ln.startswith("perfbench:")][-1]
    print(summary, file=sys.stderr, flush=True)
    if trace == "1":
        wall = float(summary.split("wall_s=")[1].split()[0])
        res["metrics"]["traced wall_s"] = {"value": wall, "unit": "s"}
    return res


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--sets", type=seed_range, nargs="+", required=True)
    ap.add_argument("--seconds", default=json.loads((HERE.parent / "BENCHMARK.json").read_text())[
        "run_seconds"])
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args(argv)
    results = [[] for _ in args.sets]
    for i in range(max(map(len, args.sets))):
        for seeds, out in zip(args.sets, results):
            if i < len(seeds):
                out.append(run(args.workload, seeds[i], args.seconds, args.trace))
    for seeds, out in zip(args.sets, results):
        shares = sorted({(r["failed"], r["attempted"], r["correct"]) for r in out})
        print(f"\n{args.workload}, seeds {seeds[0]}-{seeds[-1]}, "
              f"(failed, attempted, correct) per run: {shares}\n")
        print("| metric | unit | median | q1 | q3 | spread |")
        print("|---|---|---|---|---|---|")
        for k, m in out[0]["metrics"].items():
            vals = [r["metrics"][k]["value"] for r in out]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {k} | {m['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} |")


if __name__ == "__main__":
    main(sys.argv[1:])
