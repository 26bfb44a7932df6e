"""Monte Carlo verification harness: empirical size/power, empirical critical
values, limit-law goodness of fit, and property checks (monotonicity in the
shift scale, Schur-squared orderings, random-direction growth).

Replications are partitioned into fixed-size chunks; chunk k always consumes
the substream (seed, stream, k), and chunk results merge in index order, so
results are bit-stable for any thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .hypotest import _log_power_sum, _pmean_from_logs, pmean_rows
from .moments import ExtendedP, limit_law
from .numcore import ConfigError, DomainError, RngStream

Z95 = 1.959963984540054


@dataclass(frozen=True)
class MCResult:
    estimate: float
    half_width: float       # 95% CI half-width
    reps: int
    seed: int
    stream: int = 0

    def ci(self) -> tuple[float, float]:
        return self.estimate - self.half_width, self.estimate + self.half_width


def _chunk_plan(reps: int, d: int) -> list[int]:
    rows = max(1, min(65536, (1 << 22) // max(d, 1)))
    sizes = [rows] * (reps // rows)
    if reps % rows:
        sizes.append(reps % rows)
    return sizes


def _run_chunks(fn: Callable[[int, int], object], sizes: Sequence[int], threads: int) -> list:
    """fn(chunk_index, chunk_size) -> result, executed over a fixed partition;
    results returned in chunk order regardless of scheduling."""
    if threads <= 1:
        return [fn(i, m) for i, m in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, i, m) for i, m in enumerate(sizes)]
        return [f.result() for f in futures]


def _proportion_result(count: int, reps: int, rng: RngStream) -> MCResult:
    est = count / reps
    hw = Z95 * math.sqrt(max(est * (1.0 - est), 1e-300) / reps)
    return MCResult(est, hw, reps, rng.seed, rng.stream)


def empirical_power(p, d: int, shift, c: float, reps: int, rng: RngStream,
                    threads: int = 1) -> MCResult:
    """Proportion estimate of P(<Z + s>_p > c) with a binomial 95% CI."""
    if reps < 1000:
        raise ConfigError(f"empirical_power needs reps >= 1000, got {reps}")
    s = np.asarray(shift, dtype=float)
    if s.shape != (d,):
        raise DomainError(f"shift must have dimension d={d}")
    ep = ExtendedP.of(p)
    sizes = _chunk_plan(reps, d)

    def one(i: int, m: int) -> int:
        z = rng.substream(i).generator().standard_normal((m, d))
        z += s
        return int(np.count_nonzero(pmean_rows(ep, z) > c))

    count = sum(_run_chunks(one, sizes, threads))
    return _proportion_result(count, reps, rng)


def empirical_critval(p, d: int, alpha: float, reps: int, rng: RngStream,
                      threads: int = 1) -> MCResult:
    """Empirical (1-alpha)-quantile of <Z>_p, CI from binomial order statistics."""
    if reps < 1000:
        raise ConfigError(f"empirical_critval needs reps >= 1000, got {reps}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    ep = ExtendedP.of(p)
    sizes = _chunk_plan(reps, d)

    def one(i: int, m: int) -> np.ndarray:
        z = rng.substream(i).generator().standard_normal((m, d))
        return pmean_rows(ep, z)

    return _upper_quantile(np.concatenate(_run_chunks(one, sizes, threads)), alpha, rng)


def _upper_quantile(stats: np.ndarray, alpha: float, rng: RngStream) -> MCResult:
    """Empirical (1-alpha)-quantile of the draws, with the 95% CI half-width
    from binomial order statistics; sorts ``stats`` in place."""
    reps = stats.size
    stats.sort()
    k = min(max(int(math.ceil((1.0 - alpha) * reps)) - 1, 0), reps - 1)
    spread = int(math.ceil(Z95 * math.sqrt(reps * alpha * (1.0 - alpha))))
    lo = stats[max(0, k - spread)]
    hi = stats[min(reps - 1, k + spread)]
    return MCResult(float(stats[k]), float(hi - lo) / 2.0, reps, rng.seed, rng.stream)


def _stat_rows_multi(eps: Sequence[ExtendedP], z: np.ndarray) -> list[np.ndarray]:
    """<.>_p row statistics for several p, sharing log|z|."""
    az = np.abs(z)
    with np.errstate(divide="ignore"):
        logs = np.log(az)
    out = []
    for ep in eps:
        pv = ep.value
        if pv == math.inf:
            out.append(az.max(axis=1))
        elif pv == -math.inf:
            out.append(az.min(axis=1))
        else:
            out.append(_pmean_from_logs(pv, logs))
    return out


def empirical_critval_multi(ps: Sequence, d: int, alpha: float, reps: int,
                            rng: RngStream, threads: int = 1) -> dict:
    """Empirical (1-alpha)-quantiles of <Z>_p for several p from one shared
    set of draws."""
    if reps < 1000:
        raise ConfigError(f"empirical_critval_multi needs reps >= 1000, got {reps}")
    eps = [ExtendedP.of(p) for p in ps]
    sizes = _chunk_plan(reps, d)

    def one(i: int, m: int) -> list[np.ndarray]:
        z = rng.substream(i).generator().standard_normal((m, d))
        return _stat_rows_multi(eps, z)

    parts = _run_chunks(one, sizes, threads)
    return {ep.value: _upper_quantile(np.concatenate([part[j] for part in parts]), alpha, rng)
            for j, ep in enumerate(eps)}


def empirical_size_multi(ps: Sequence, d: int, crit: dict, reps: int, rng: RngStream,
                         threads: int = 1) -> dict:
    """Empirical sizes for several p at once, sharing the same normal draws
    (one pass over Z; the per-p estimates are then positively correlated but
    individually unbiased with the usual binomial CI)."""
    if reps < 1000:
        raise ConfigError(f"empirical_size_multi needs reps >= 1000, got {reps}")
    eps = [ExtendedP.of(p) for p in ps]
    sizes = _chunk_plan(reps, d)

    def one(i: int, m: int) -> np.ndarray:
        z = rng.substream(i).generator().standard_normal((m, d))
        stats = _stat_rows_multi(eps, z)
        return np.array([np.count_nonzero(stats[j] > float(crit[ep.value]))
                         for j, ep in enumerate(eps)], dtype=np.int64)

    totals = np.sum(_run_chunks(one, sizes, threads), axis=0)
    return {ep.value: _proportion_result(int(totals[j]), reps, rng)
            for j, ep in enumerate(eps)}


def ks_distance(samples, cdf) -> float:
    """sup_x |empirical CDF - cdf(x)| over the sample points."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        raise DomainError("ks_distance needs a nonempty sample")
    F = np.asarray(cdf(xs), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(np.abs(F - i / n)), np.max(np.abs(F - (i - 1) / n))))


# ---------------------------------------------------------------------------
# Limit-law goodness of fit per regime
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitLawFit:
    p: float
    d: int
    nrep: int
    distance: float
    law: str


def limit_law_ks(p, d: int, nrep: int, rng: RngStream, threads: int = 1) -> LimitLawFit:
    """KS distance between the regime-normalized statistic and its limit law.

    The statistic is sum_j |Z_j|^p (log-sum for p = 0, min/max at the
    endpoints), centered and scaled as the regime's ``moments.limit_law`` says.
    """
    if nrep < 100:
        raise ConfigError(f"limit_law_ks needs nrep >= 100, got {nrep}")
    pv = ExtendedP.of(p).value
    law = limit_law(pv, d)
    sizes = _chunk_plan(nrep, d)

    def sums(i: int, m: int) -> np.ndarray:
        az = np.abs(rng.substream(i).generator().standard_normal((m, d)))
        if pv == math.inf:
            return az.max(axis=1)
        if pv == -math.inf:
            return az.min(axis=1)
        with np.errstate(divide="ignore"):
            logs = np.log(az)
        if pv == 0.0:
            return logs.sum(axis=1)
        mx, s = _log_power_sum(pv, logs)
        return np.exp(mx + np.log(s))

    t = np.concatenate(_run_chunks(sums, sizes, threads))
    stat = (t - d * law.center) / law.scale
    return LimitLawFit(pv, d, nrep, ks_distance(stat, law.cdf), law.name)


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------

def majorizes_squares(v, w, tol: float = 1e-8) -> bool:
    """w^2 majorized by v^2: equal coordinate sums of squares and dominated
    sorted prefix sums."""
    v2 = np.sort(np.square(np.asarray(v, dtype=float)))[::-1]
    w2 = np.sort(np.square(np.asarray(w, dtype=float)))[::-1]
    if v2.shape != w2.shape:
        return False
    cv, cw = np.cumsum(v2), np.cumsum(w2)
    scale = max(cv[-1], 1.0)
    if abs(cv[-1] - cw[-1]) > tol * scale:
        return False
    return bool(np.all(cv >= cw - tol * scale))


@dataclass(frozen=True)
class Schur2Result:
    tag: str                 # "consistent-concave" | "consistent-convex" | "inconclusive" | "violation"
    prob_v: MCResult
    prob_w: MCResult
    z_score: float           # (P_w - P_v) / se(diff)
    detail: str = ""


def schur2_check(p, d: int, c: float, v, w, reps: int, rng: RngStream,
                 threads: int = 1) -> Schur2Result:
    """Compare P(<Z+v>_p > c) against P(<Z+w>_p > c) for w^2 majorized by v^2.

    A 3-sigma rule decides: the ordering P_w >= P_v is Schur^2-concave
    behaviour, P_v >= P_w is Schur^2-convex; an ordering incompatible with
    the regime of p (concave for p <= 2, convex for p >= 2) is a violation;
    anything within 3 sigma is inconclusive, never a violation.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if not majorizes_squares(v, w):
        raise DomainError("precondition failed: w^2 must be majorized by v^2 "
                          "(equal sums of squares, dominated sorted prefix sums)")
    pv_res = empirical_power(p, d, v, c, reps, rng, threads=threads)
    pw_res = empirical_power(p, d, w, c, reps, RngStream(rng.seed, rng.stream + 1),
                             threads=threads)
    se = math.sqrt((pv_res.half_width ** 2 + pw_res.half_width ** 2)) / Z95
    diff = pw_res.estimate - pv_res.estimate
    z = diff / se if se > 0 else 0.0
    pval = float(ExtendedP.of(p).value)
    if abs(z) <= 3.0:
        return Schur2Result("inconclusive", pv_res, pw_res, z,
                            "difference within 3 sigma; consistent with both orderings")
    if z > 3.0:
        tag = "consistent-concave" if pval <= 2.0 else "violation"
        det = "P at the more equalized shift is larger"
    else:
        tag = "consistent-convex" if pval >= 2.0 else "violation"
        det = "P at the more unequalized shift is larger"
    return Schur2Result(tag, pv_res, pw_res, z, det)


@dataclass(frozen=True)
class DirectionGrowthReport:
    p: float
    rows: tuple  # (d, fraction below threshold, threshold exponent value)


def random_direction_check(p: float, d_list: Iterable[int], reps: int,
                           rng: RngStream) -> DirectionGrowthReport:
    """For u uniform on the sqrt(d)-sphere, the fraction of draws with
    <u>_p < d^{(p-2)/(4p)}; tends to 1 as d grows when p > 2."""
    if not p > 2.0 or not math.isfinite(p):
        raise DomainError(f"random_direction_check requires finite p > 2, got {p}")
    rows = []
    for k, d in enumerate(d_list):
        gen = rng.substream(k).generator()
        rowsz = max(1, min(reps, (1 << 22) // max(d, 1)))
        below = 0
        done = 0
        thr = d ** ((p - 2.0) / (4.0 * p))
        while done < reps:
            m = min(rowsz, reps - done)
            z = gen.standard_normal((m, d))
            norms = np.sqrt(np.sum(z * z, axis=1))
            u = math.sqrt(d) * z / norms[:, None]
            below += int(np.count_nonzero(pmean_rows(p, u) < thr))
            done += m
        rows.append((int(d), below / reps, thr))
    return DirectionGrowthReport(p, tuple(rows))
