"""Monte Carlo verification harness: empirical size/power, empirical critical
values, limit-law goodness of fit, and property checks (monotonicity in the
shift scale, Schur-squared orderings, random-direction growth).

Replications are partitioned into fixed-size chunks; chunk k always consumes
the substream (seed, stream, k), and chunk results merge in index order, so
results are bit-stable for any thread count.  The chunks are that substream
partition, fixed forever.  A chunk is drawn and reduced in blocks of
BLOCK_ELEMS elements, and a block is only the unit of memory: each thread
holds one block whatever the number of draws.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .hypotest import _abs_pmean_rows, _power_sums, pmean_rows
from .moments import extended_p, limit_law
from .numcore import ConfigError, DomainError, RngStream

Z95 = 1.959963984540054

# elements per block of a chunk's draws (1 MB of doubles, sized for L2)
BLOCK_ELEMS = 1 << 17


@dataclass(frozen=True)
class MCResult:
    estimate: float
    half_width: float       # 95% CI half-width
    reps: int
    seed: int
    stream: int = 0

    def ci(self) -> tuple[float, float]:
        return self.estimate - self.half_width, self.estimate + self.half_width


def _run_chunks(fn: Callable[[int, int], object], sizes: Sequence[int], threads: int) -> list:
    """fn(chunk_index, chunk_size) -> result, executed over a fixed partition;
    results returned in chunk order regardless of scheduling."""
    if threads <= 1:
        return [fn(i, m) for i, m in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, i, m) for i, m in enumerate(sizes)]
        return [f.result() for f in futures]


def _draw_chunks(rows: Callable[[np.ndarray], object], rng: RngStream, reps: int, d: int,
                 threads: int) -> list:
    """rows(z) over reps standard normal rows of width d.

    The chunks are the substream partition, fixed forever: at most 2^22
    elements (and 65536 rows) each, chunk i drawn from rng.substream(i).
    Inside a chunk, the rows are drawn and reduced a block of BLOCK_ELEMS
    elements at a time into one reused buffer; a block is only the unit of
    memory, since the substream gives the same numbers drawn in pieces.
    rows may overwrite its block but not return a view of it, since the next
    block reuses the buffer.  The results come back flattened in (chunk,
    block) order."""
    per = max(1, min(65536, (1 << 22) // max(d, 1)))
    sizes = [per] * (reps // per) + ([reps % per] if reps % per else [])
    r = max(1, BLOCK_ELEMS // max(d, 1))

    def one(i: int, m: int) -> list:
        g = rng.substream(i).generator()
        buf = np.empty((min(r, m), d))
        return [rows(g.standard_normal((k, d), out=buf[:k]))
                for k in (min(r, m - j) for j in range(0, m, r))]

    return [part for parts in _run_chunks(one, sizes, threads) for part in parts]


def _check_reps(reps: int, floor: int = 1000, name: str = "reps") -> None:
    if reps < floor:
        raise ConfigError(f"Monte Carlo needs {name} >= {floor}, got {reps}")


def _proportion_result(count: int, reps: int, rng: RngStream) -> MCResult:
    est = count / reps
    hw = Z95 * math.sqrt(max(est * (1.0 - est), 1e-300) / reps)
    return MCResult(est, hw, reps, rng.seed, rng.stream)


def _exceedances(ps: Sequence[float], crits: Sequence[float], shift, d: int, reps: int,
                 rng: RngStream, threads: int) -> np.ndarray:
    """Per p, the number of draws with <Z + shift>_p > crit (shift None: zero)."""

    def rows(z: np.ndarray) -> list:
        if shift is not None:
            z += shift
        return [np.count_nonzero(t > c) for t, c in zip(_stat_rows_multi(ps, z), crits)]

    return np.sum(_draw_chunks(rows, rng, reps, d, threads), axis=0)


def empirical_power(p, d: int, shift, c: float, reps: int, rng: RngStream,
                    threads: int = 1) -> MCResult:
    """Proportion estimate of P(<Z + s>_p > c) with a binomial 95% CI."""
    _check_reps(reps)
    s = np.asarray(shift, dtype=float)
    if s.shape != (d,):
        raise DomainError(f"shift must have dimension d={d}")
    count = _exceedances([extended_p(p)], [c], s, d, reps, rng, threads)[0]
    return _proportion_result(int(count), reps, rng)


def empirical_critval(p, d: int, alpha: float, reps: int, rng: RngStream,
                      threads: int = 1) -> MCResult:
    """Empirical (1-alpha)-quantile of <Z>_p, CI from binomial order statistics."""
    pv = extended_p(p)
    return empirical_critval_multi([pv], d, alpha, reps, rng, threads)[pv]


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


def _stat_rows_multi(ps: Sequence[float], z: np.ndarray) -> list[np.ndarray]:
    """<.>_p row statistics of z for several p from ``extended_p``; z is
    overwritten by |z|."""
    return _abs_pmean_rows(ps, np.abs(z, out=z))


def empirical_critval_multi(ps: Sequence, d: int, alpha: float, reps: int,
                            rng: RngStream, threads: int = 1) -> dict:
    """Empirical (1-alpha)-quantiles of <Z>_p for several p from one shared
    set of draws."""
    _check_reps(reps)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    pvs = [extended_p(p) for p in ps]
    parts = _draw_chunks(lambda z: _stat_rows_multi(pvs, z), rng, reps, d, threads)
    return {pv: _upper_quantile(np.concatenate([part[j] for part in parts]), alpha, rng)
            for j, pv in enumerate(pvs)}


def empirical_size_multi(ps: Sequence, d: int, crit: dict, reps: int, rng: RngStream,
                         threads: int = 1) -> dict:
    """Empirical sizes for several p at once, sharing the same normal draws
    (one pass over Z; the per-p estimates are then positively correlated but
    individually unbiased with the usual binomial CI)."""
    _check_reps(reps)
    pvs = [extended_p(p) for p in ps]
    crits = [float(crit[pv]) for pv in pvs]
    totals = _exceedances(pvs, crits, None, d, reps, rng, threads)
    return {pv: _proportion_result(int(totals[j]), reps, rng) for j, pv in enumerate(pvs)}


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
    _check_reps(nrep, 100, "nrep")
    pv = extended_p(p)
    law = limit_law(pv, d)

    def sums(z: np.ndarray) -> np.ndarray:
        # in place: the draws are not needed again
        az = np.abs(z, out=z)
        if not math.isfinite(pv):
            return _abs_pmean_rows([pv], az)[0]
        with np.errstate(divide="ignore", over="ignore"):
            if pv == 0.0:
                return np.log(az, out=az).sum(axis=1)
            s, k, m = _power_sums(pv, az, np.empty_like(az))
            t = s * np.exp2(-pv * k)
            return t if m is None else t * m ** pv

    t = np.concatenate(_draw_chunks(sums, rng, nrep, d, threads))
    stat = (t - d * law.center) / law.scale
    return LimitLawFit(pv, d, nrep, ks_distance(stat, law.cdf), law.name)


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------

def majorizes_squares(v, w) -> bool:
    """w^2 majorized by v^2: equal sums of squares and dominated sorted prefix
    sums, to 1e-8 of the sum, after dividing both by their largest |coordinate|."""
    v, w = np.abs(np.asarray(v, dtype=float)), np.abs(np.asarray(w, dtype=float))
    if v.shape != w.shape:
        return False
    top = max(v.max(), w.max()) or 1.0
    cv, cw = (np.cumsum(np.sort(np.square(x / top))[::-1]) for x in (v, w))
    tol = 1e-8 * cv[-1]
    return bool(abs(cv[-1] - cw[-1]) <= tol and np.all(cv >= cw - tol))


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
    pval = extended_p(p)
    pv_res = empirical_power(pval, d, v, c, reps, rng, threads=threads)
    pw_res = empirical_power(pval, d, w, c, reps, RngStream(rng.seed, rng.stream + 1),
                             threads=threads)
    se = math.sqrt((pv_res.half_width ** 2 + pw_res.half_width ** 2)) / Z95
    diff = pw_res.estimate - pv_res.estimate
    z = diff / se if se > 0 else 0.0
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
    <u>_p < d^{(p-2)/(4p)}; tends to 1 as d grows when p > 2.  The k-th
    dimension draws from rng.substream(k).  The fraction is a diagnostic, so
    reps has limit_law_ks's floor of 100."""
    if not p > 2.0 or not math.isfinite(p):
        raise DomainError(f"random_direction_check requires finite p > 2, got {p}")
    _check_reps(reps, 100)
    rows = []
    for k, d in enumerate(d_list):
        thr = d ** ((p - 2.0) / (4.0 * p))

        def below(z: np.ndarray) -> int:
            norms = np.sqrt(np.sum(z * z, axis=1))
            u = math.sqrt(d) * z / norms[:, None]
            return int(np.count_nonzero(pmean_rows(p, u) < thr))

        count = sum(_draw_chunks(below, rng.substream(k), reps, d, 1))
        rows.append((int(d), count / reps, thr))
    return DirectionGrowthReport(p, tuple(rows))
