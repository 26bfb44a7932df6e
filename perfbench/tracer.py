"""Span tracer for the benchmark's traced passes.

It wraps public functions of ``pmean`` from outside the package: every module
namespace that binds a wrapped function gets the wrapper, so calls made
through ``from .x import f`` bindings are seen too.  Each wrapper records one
span (id, parent id, name, start, end, work units, attribute) per call.
Spans live in memory and are written out when the pass ends.

``layer_sums`` turns spans into per-layer (numerator, denominator) pairs.
The pairs add across processes and passes, and ``layer_metrics`` divides
them at the end, so a metric over several passes weighs every call alike.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import itertools
import json
import threading
from time import perf_counter

import numpy as np

SPAN_FIELDS = ["id", "parent", "name", "start", "end", "units", "attr"]

# span names of the Monte Carlo calls whose time is the base of the RNG and
# kernel shares
MC_CALLS = ("mc.empirical_critval", "mc.empirical_power", "mc.empirical_size_multi")

# (metric, unit, better) of every per-layer metric, in the order printed
PER_LAYER = [
    ("numcore.gauss_expect.calls", "count", "lower"),
    ("numcore.gauss_expect.us_per_call", "us", "lower"),
    ("numcore.find_root.evals_per_solve", "count", "lower"),
    ("numcore.rng.ns_per_elem", "ns", "lower"),
    ("moments.regime_f.calls", "count", "lower"),
    ("moments.regime_f.us_per_coord", "us", "lower"),
    ("moments.lambda_p.us_per_call", "us", "lower"),
    ("moments.mu_tilde.us_per_call", "us", "lower"),
    ("moments.log_moment.us_per_call", "us", "lower"),
    ("moments.cache_hit_ratio", "ratio", "higher"),
    ("stable.cdf.ms_per_point.pm2", "ms", "lower"),
    ("stable.cdf.ms_per_point.pm1", "ms", "lower"),
    ("stable.cdf.ms_per_point.pm0.7", "ms", "lower"),
    ("stable.quantile.ms_per_call", "ms", "lower"),
    ("stable.quantile.cdf_evals_per_call", "count", "lower"),
    ("stable.sample.ns_per_draw", "ns", "lower"),
    ("hypotest.critical_value.ms_per_call", "ms", "lower"),
    ("hypotest.sample_size.ms_per_call", "ms", "lower"),
    ("hypotest.power_asymptotic.ms_per_call", "ms", "lower"),
    ("hypotest.sample_size.f_evals_per_call", "count", "lower"),
    ("hypotest.pmean_rows.ns_per_elem", "ns", "lower"),
    ("are.classify_are.ms_per_call", "ms", "lower"),
    ("are.are_finite.ms_per_call", "ms", "lower"),
    ("are.orlicz_norm.ms_per_call", "ms", "lower"),
    ("mc.elems_per_s.threads1", "elem/s", "higher"),
    ("mc.elems_per_s.threads2", "elem/s", "higher"),
    ("mc.rng_share", "ratio", "lower"),
    ("mc.kernel_share", "ratio", "lower"),
    ("mc.chunks", "count", "lower"),
    ("mc.limit_law_ks.s_per_call", "s", "lower"),
    ("cli.import_s", "s", "lower"),
] + [(f"cli.process_s.{sub}", "s", "lower") for sub in (
    "version", "critval", "power", "samplesize", "feasible", "are", "are-finite",
    "ap-curve", "verify-ap", "simulate", "ks", "schur2-check")] + [
    ("cli.lazy_import_misses", "count", "lower"),
]

# counts reported per pass: their denominator is 1 per pass
PER_PASS = ("numcore.gauss_expect.calls", "moments.regime_f.calls", "mc.chunks")

# stable index -1/p of the laws whose CDF cost is reported per point
_CDF_INDEX = {"pm2": 0.5, "pm1": 1.0, "pm0.7": 1.0 / 0.7}


class _TracedGenerator:
    """A numpy Generator whose normal fill is recorded as an rng span."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self.standard_normal = tracer.wrap("numcore.rng", gen.standard_normal,
                                           units=lambda a, k, out: np.size(out))

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Installs span-recording wrappers on pmean and keeps the spans."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self._cache_before = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def wrap(self, name, fn, units=None, attr=None):
        """fn recording one span per call; ``units(args, kwargs, result)`` and
        ``attr(args, kwargs)`` give the span's work units and attribute."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                n = (units(args, kwargs, out) if units else 1) if ok else 0
                a = attr(args, kwargs) if attr else 0.0
                tracer.spans.append((sid, parent, name, t0, t1, float(n), float(a)))

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch_everywhere(self, home, name, wrapped):
        import pmean
        modules = [pmean] + [getattr(pmean, m) for m in
                             ("numcore", "moments", "stable", "hypotest", "are", "mc", "cli")
                             if hasattr(pmean, m)]
        original = getattr(home, name)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def install(self):
        from pmean import are, hypotest, mc, moments, numcore, stable

        tr = self
        numcore_find_root = numcore.find_root

        def find_root(g, *args, **kwargs):
            evals = [0]

            def counted(x):
                evals[0] += 1
                return g(x)

            return tr.wrap("numcore.find_root", numcore_find_root,
                           units=lambda a, k, out: evals[0])(counted, *args, **kwargs)

        self._patch_everywhere(numcore, "find_root", find_root)
        self._patch_everywhere(numcore, "gauss_expect",
                               self.wrap("numcore.gauss_expect", numcore.gauss_expect))

        generator = numcore.RngStream.generator
        self._patches.append((numcore.RngStream, "generator", generator))
        numcore.RngStream.generator = lambda stream: _TracedGenerator(generator(stream), tr)

        for name in ("lambda_p", "mu_tilde", "log_moment"):
            self._patch_everywhere(moments, name,
                                   self.wrap(f"moments.{name}", getattr(moments, name)))

        regime_row = moments.regime_row

        def traced_row(*args, **kwargs):
            row = regime_row(*args, **kwargs)
            f = tr.wrap("moments.regime_f", row.f, units=lambda a, k, out: np.size(a[0]))
            return dataclasses.replace(row, f=f)

        self._patch_everywhere(moments, "regime_row", traced_row)

        self._patch_everywhere(stable, "stable_cdf", self.wrap(
            "stable.stable_cdf", stable.stable_cdf, units=lambda a, k, out: np.size(a[1])))
        self._patch_everywhere(stable, "stable_quantile",
                               self.wrap("stable.stable_quantile", stable.stable_quantile))
        self._patch_everywhere(stable, "stable_sample", self.wrap(
            "stable.stable_sample", stable.stable_sample, units=lambda a, k, out: np.size(out)))
        # the one CDF evaluation behind both the cached CDF and the quantile solve
        self._patch_everywhere(stable, "_cdf_exponent", self.wrap(
            "stable.cdf_eval", stable._cdf_exponent, attr=lambda a, k: a[0].a))

        for name in ("critical_value", "sample_size", "power_asymptotic", "feasibility"):
            self._patch_everywhere(hypotest, name,
                                   self.wrap(f"hypotest.{name}", getattr(hypotest, name)))
        self._patch_everywhere(hypotest, "pmean_rows", self.wrap(
            "hypotest.pmean_rows", hypotest.pmean_rows, units=lambda a, k, out: np.size(a[1])))

        for name in ("classify_are", "are_finite", "orlicz_norm"):
            self._patch_everywhere(are, name, self.wrap(f"are.{name}", getattr(are, name)))

        threads = lambda a, k: k.get("threads", a[5] if len(a) > 5 else 1)
        self._patch_everywhere(mc, "empirical_critval", self.wrap(
            "mc.empirical_critval", mc.empirical_critval,
            units=lambda a, k, out: a[1] * a[3], attr=threads))
        self._patch_everywhere(mc, "empirical_power", self.wrap(
            "mc.empirical_power", mc.empirical_power,
            units=lambda a, k, out: a[1] * a[4], attr=lambda a, k: k.get(
                "threads", a[6] if len(a) > 6 else 1)))
        self._patch_everywhere(mc, "empirical_size_multi", self.wrap(
            "mc.empirical_size_multi", mc.empirical_size_multi,
            units=lambda a, k, out: a[1] * a[3], attr=threads))
        self._patch_everywhere(mc, "_stat_rows_multi", self.wrap(
            "mc.stat_rows_multi", mc._stat_rows_multi, units=lambda a, k, out: np.size(a[1])))
        self._patch_everywhere(mc, "limit_law_ks", self.wrap("mc.limit_law_ks", mc.limit_law_ks))

        run_chunks = mc._run_chunks

        def traced_chunks(fn, sizes, nthreads):
            parent = tr.current()

            def chunk(i, m):
                stack = tr._stack()
                if stack:          # the calling thread: nesting is already right
                    return fn(i, m)
                stack.append(parent)   # a pool thread: hang its spans under the call
                try:
                    return fn(i, m)
                finally:
                    stack.pop()

            return run_chunks(chunk, sizes, nthreads)

        self._patch_everywhere(mc, "_run_chunks", self.wrap(
            "mc.run_chunks", traced_chunks, units=lambda a, k, out: len(a[1])))
        self._cache_before = _cache_counts()

    def uninstall(self):
        for obj, key, value in reversed(self._patches):
            setattr(obj, key, value)
        self._patches.clear()
        after = _cache_counts()
        self.cache_delta = tuple(b - a for a, b in zip(self._cache_before, after))

    def dump(self, path, meta: dict):
        with gzip.open(path, "wt") as fh:
            json.dump(dict(meta, fields=SPAN_FIELDS, spans=self.spans), fh)


def _cache_counts() -> tuple:
    """(hits, misses) summed over the moments module's lru caches."""
    from pmean import moments
    hits = misses = 0
    for fn in (moments._lambda_p_cached, moments._log_mean_cached, moments._mu_tilde_cached):
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def layer_sums(spans, cache_delta=(0, 0)) -> dict:
    """Per-layer (numerator, denominator) pairs from one process's spans."""
    by_id = {s[0]: s for s in spans}
    names = {}
    for s in spans:
        names.setdefault(s[2], []).append(s)

    def under(span, ancestors) -> bool:
        parent = span[1]
        while parent:
            p = by_id.get(parent)
            if p is None:
                return False
            if p[2] in ancestors:
                return True
            parent = p[1]
        return False

    def dur(s):
        return s[4] - s[3]

    def group(name):
        return names.get(name, [])

    def per_call(name, scale):
        g = group(name)
        return (scale * sum(map(dur, g)), len(g))

    def per_unit(name, scale, spans_=None):
        g = group(name) if spans_ is None else spans_
        return (scale * sum(map(dur, g)), sum(s[5] for s in g))

    child_time = {}
    for s in spans:
        if s[1]:
            child_time[s[1]] = child_time.get(s[1], 0.0) + dur(s)

    out = {
        "numcore.gauss_expect.calls": (len(group("numcore.gauss_expect")), 1),
        "numcore.gauss_expect.us_per_call": per_call("numcore.gauss_expect", 1e6),
        "numcore.find_root.evals_per_solve": (sum(s[5] for s in group("numcore.find_root")),
                                              len(group("numcore.find_root"))),
        "numcore.rng.ns_per_elem": per_unit("numcore.rng", 1e9),
        "moments.regime_f.calls": (len(group("moments.regime_f")), 1),
        "moments.regime_f.us_per_coord": per_unit("moments.regime_f", 1e6),
        "moments.lambda_p.us_per_call": per_call("moments.lambda_p", 1e6),
        "moments.mu_tilde.us_per_call": per_call("moments.mu_tilde", 1e6),
        "moments.log_moment.us_per_call": per_call("moments.log_moment", 1e6),
        "moments.cache_hit_ratio": (cache_delta[0], cache_delta[0] + cache_delta[1]),
        "stable.quantile.ms_per_call": per_call("stable.stable_quantile", 1e3),
        "stable.quantile.cdf_evals_per_call": (
            sum(1 for s in group("stable.cdf_eval") if under(s, {"stable.stable_quantile"})),
            len(group("stable.stable_quantile"))),
        "stable.sample.ns_per_draw": (
            1e9 * sum(dur(s) - child_time.get(s[0], 0.0) for s in group("stable.stable_sample")),
            sum(s[5] for s in group("stable.stable_sample"))),
        "hypotest.critical_value.ms_per_call": per_call("hypotest.critical_value", 1e3),
        "hypotest.sample_size.ms_per_call": per_call("hypotest.sample_size", 1e3),
        "hypotest.power_asymptotic.ms_per_call": per_call("hypotest.power_asymptotic", 1e3),
        "hypotest.sample_size.f_evals_per_call": (
            sum(1 for s in group("moments.regime_f") if under(s, {"hypotest.sample_size"})),
            len(group("hypotest.sample_size"))),
        "hypotest.pmean_rows.ns_per_elem": per_unit("hypotest.pmean_rows", 1e9),
        "are.classify_are.ms_per_call": per_call("are.classify_are", 1e3),
        "are.are_finite.ms_per_call": per_call("are.are_finite", 1e3),
        "are.orlicz_norm.ms_per_call": per_call("are.orlicz_norm", 1e3),
        "mc.chunks": (sum(s[5] for s in group("mc.run_chunks")), 1),
        "mc.limit_law_ks.s_per_call": per_call("mc.limit_law_ks", 1.0),
    }
    for key, index in _CDF_INDEX.items():
        pts = [s for s in group("stable.cdf_eval") if abs(s[6] - index) < 1e-9]
        out[f"stable.cdf.ms_per_point.{key}"] = (1e3 * sum(map(dur, pts)), len(pts))

    calls = [s for name in MC_CALLS for s in group(name)]
    for nthreads in (1, 2):
        sel = [s for s in calls if int(s[6]) == nthreads]
        out[f"mc.elems_per_s.threads{nthreads}"] = (sum(s[5] for s in sel), sum(map(dur, sel)))
    # base: thread-seconds the calls had (wall time times threads), so the
    # shares stay within [0, 1] at either thread count
    base = sum(dur(s) * max(1, int(s[6])) for s in calls)
    mc_set = set(MC_CALLS)
    out["mc.rng_share"] = (
        sum(dur(s) for s in group("numcore.rng") if under(s, mc_set)), base)
    out["mc.kernel_share"] = (
        sum(dur(s) for name in ("hypotest.pmean_rows", "mc.stat_rows_multi")
            for s in group(name) if under(s, mc_set)), base)
    return {k: (float(a), float(b)) for k, (a, b) in out.items()}


def add_sums(total: dict, part: dict) -> dict:
    for key, (a, b) in part.items():
        ta, tb = total.get(key, (0.0, 0.0))
        total[key] = (ta + a, tb + b)
    return total


def layer_metrics(sums: dict) -> dict:
    """Every per-layer metric; 0 where the workload never ran the layer."""
    out = {}
    for name, unit, _ in PER_LAYER:
        a, b = sums.get(name, (0.0, 0.0))
        out[name] = {"value": a / b if b else 0.0, "unit": unit}
    return out
