"""One fresh process of a benchmark run: set-up, then (in ``pass`` mode) one
pass over the workload's query list, then the checks.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 perfbench/worker.py <root> <workload> <seed> <mode> <trace> <tiny> <t_spawn> <out>

``t_spawn`` is the parent's ``perf_counter()`` just before the spawn; on
Linux it is CLOCK_MONOTONIC, shared by every process, so set-up time counts
from process start.  The last line of stdout is the result as JSON.
"""

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _run_queries(queries, results, times, errors):
    for label, thunk in queries:
        t0 = perf_counter()
        try:
            results[label] = thunk()
        except Exception:   # any exception other than a documented answer is a failed query
            errors[label] = traceback.format_exc(limit=4)
        times.append(perf_counter() - t0)


def _check_all(workload, queries, results, errors):
    """(errors, wrong): queries that raised, and answers that failed a check."""
    raised, failures = [], []
    for label, _ in queries:
        if label in errors:
            raised.append(f"{label}: {errors[label].strip().splitlines()[-1]}")
            continue
        try:
            msgs = workload.check(label, results[label])
        except Exception:
            msgs = ["check raised " + traceback.format_exc(limit=4).strip().splitlines()[-1]]
        failures += [f"{label}: {m}" for m in msgs]
    return raised, failures


def in_process(root, name, seed, mode, trace, tiny, t_spawn, out):
    import pmean
    import tracer
    import workloads
    workloads.warm_up()
    setup_s = perf_counter() - t_spawn
    if mode == "setup":
        return {"setup_s": [setup_s]}
    wl = workloads.WORKLOADS[name](seed, tiny)
    queries = wl.queries()
    results, times, errors = {}, [], {}
    tr = tracer.Tracer() if trace else None
    if tr:
        tr.install()
    cpu0 = _cpu(resource.RUSAGE_SELF)
    t0 = perf_counter()
    _run_queries(queries, results, times, errors)
    wall = perf_counter() - t0
    cpu = _cpu(resource.RUSAGE_SELF) - cpu0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res = {"setup_s": [setup_s], "wall_s": wall, "cpu_s": cpu, "query_s": times,
           "peak_rss_mb": peak, "attempted": len(queries)}
    if tr:
        tr.uninstall()
        tr.dump(out, {"workload": name, "seed": seed, "pmean": pmean.__version__})
        res["layer_sums"] = tracer.layer_sums(tr.spans, tr.cache_delta)
    res["errors"], res["wrong"] = _check_all(wl, queries, results, errors)
    return res


def cli(root, seed, trace, tiny, t_spawn, out):
    """The cli workload: every query is a fresh CLI process."""
    import tracer
    from workloads import Cli, run_cli
    wl = Cli(seed, tiny)
    setup = [run_cli(root, ["version"])[2] for _ in range(1 if tiny else 5)]
    out_dir = Path(out).parent
    results, times, traced = {}, [], {}
    cpu0 = _cpu(resource.RUSAGE_CHILDREN) + _cpu(resource.RUSAGE_SELF)
    t0 = perf_counter()
    for i, (label, argv) in enumerate(wl.cmds):
        span_file = out_dir / f"cli-{seed}-{i}.json" if trace else None
        code, text, wall = run_cli(root, argv, span_file)
        results[label] = (code, text)
        times.append(wall)
        if trace:
            traced[label] = (argv[0], wall, span_file)
    wall = perf_counter() - t0
    cpu = _cpu(resource.RUSAGE_CHILDREN) + _cpu(resource.RUSAGE_SELF) - cpu0
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    res = {"setup_s": setup, "wall_s": wall, "cpu_s": cpu, "query_s": times,
           "peak_rss_mb": peak, "attempted": len(wl.cmds)}
    if trace:
        res["layer_sums"] = _cli_layer_sums(tracer, traced, out)
    queries = [(label, None) for label, _ in wl.cmds]
    res["errors"], res["wrong"] = _check_all(wl, queries, results, {})
    return res


def _cli_layer_sums(tracer, traced, out):
    """Layer sums of the traced CLI processes, plus the cli.* metrics."""
    import gzip
    sums, spans = {}, []
    for label, (sub, wall, span_file) in traced.items():
        doc = json.loads(span_file.read_text())
        span_file.unlink()
        tracer.add_sums(sums, tracer.layer_sums(doc["spans"], doc["cache_delta"]))
        tracer.add_sums(sums, {"cli.import_s": (doc["import_s"], 1.0),
                               f"cli.process_s.{sub}": (wall, 1.0)})
        if label == "critval p=3":
            sums["cli.lazy_import_misses"] = (float(len(doc["lazy_misses"])), 1.0)
        spans.append({"process": label, "import_s": doc["import_s"], "spans": doc["spans"]})
    for key in tracer.PER_PASS:   # counted per pass, not per process
        if key in sums:
            sums[key] = (sums[key][0], 1.0)
    with gzip.open(out, "wt") as fh:
        json.dump({"workload": "cli", "fields": tracer.SPAN_FIELDS, "processes": spans}, fh)
    return sums


def main(argv):
    root, name, seed, mode, trace, tiny, t_spawn, out = argv
    root = Path(root)
    sys.path.insert(0, str(root / "src"))
    seed, trace, tiny, t_spawn = int(seed), trace == "1", tiny == "1", float(t_spawn)
    if name == "cli":
        res = cli(root, seed, trace, tiny, t_spawn, out)
    else:
        res = in_process(root, name, seed, mode, trace, tiny, t_spawn, out)
    print(json.dumps(res))


if __name__ == "__main__":
    main(sys.argv[1:])
