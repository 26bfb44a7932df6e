"""The p-mean test: statistics, decisions, critical values, asymptotic power,
sample size, and feasibility of directions.

Under the Gaussian limit model the null statistic is <Z>_p with
Z ~ N(0, I_d), so a size-alpha critical value c solves P(<Z>_p > c) = alpha.
Asymptotic critical values translate the per-regime limit laws into <.>_p
units.  For p < 0 the rejection region flips once through the p-th power:

    <z>_p > c   <=>   sum_j |z_j|^p < d c^p,

so the limit quantile enters at level alpha (not 1 - alpha); the algebra is
in ``moments`` with the regime table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .moments import extended_p, regime_row
from .numcore import AccuracyError, ConfigError, DomainError, RngStream, find_root


class InfeasibleError(ValueError):
    """The direction cannot reach the requested power for this p (too many zeros)."""

    def __init__(self, message: str, threshold: float, d0: int):
        super().__init__(message)
        self.threshold = threshold
        self.d0 = d0


# ---------------------------------------------------------------------------
# p-means
# ---------------------------------------------------------------------------

def pmean(p, s) -> float:
    """The p-mean <s>_p = ((1/d) sum |s_j|^p)^(1/p), extended by continuity:
    min |s_j| at p = -inf, geometric mean at p = 0, max |s_j| at p = +inf.
    For p < 0, any exact zero coordinate gives <s>_p = 0."""
    return float(pmean_rows(p, np.atleast_2d(np.asarray(s, dtype=float)))[0])


def pmean_rows(p, x: np.ndarray) -> np.ndarray:
    """Row-wise p-means of a 2-D array (see ``_abs_pmean_rows``)."""
    pv = extended_p(p)
    x = np.abs(np.asarray(x, dtype=float))
    if x.ndim != 2 or x.shape[1] == 0:
        raise DomainError("pmean expects a nonempty vector or 2-D array of rows")
    return _abs_pmean_rows([pv], x)[0]


def _abs_pmean_rows(pvs, az: np.ndarray) -> list:
    """Row-wise p-means of the nonnegative 2-D array az, one array per extended
    p value in pvs: (sum_j az_j^p / d)^(1/p) from ``_power_sums`` for finite
    p != 0, e^(mean ln az) at p = 0, and the row max and min at p = +-inf."""
    d = az.shape[1]
    buf = np.empty_like(az)   # untouched, so free, when every p is infinite
    out = []
    for pv in pvs:
        if pv == math.inf:
            out.append(az.max(axis=1))
        elif pv == -math.inf:
            out.append(az.min(axis=1))
        elif pv == 0.0:
            out.append(_geometric_mean(az, buf))
        else:
            out.append(_root_mean(pv, d, *_power_sums(pv, az, buf)))
    return out


def _geometric_mean(az: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """e^(mean ln az) per row of the nonnegative 2-D array az; buf is scratch
    of az's shape.  From az_j = f_j 2^e_j, the sum of the e_j is exact and
    only ln f_j in [-ln 2, 0) is rounded, so the result does not carry the
    rounding of large |ln az_j| (about eps max |ln az_j| relative when taken
    directly).  The mean e_j sum / d = q + r / d leaves 2^q to ``ldexp``.  A
    zero or infinite coordinate gives 0, inf or NaN."""
    d = az.shape[1]
    # |e_j| <= 1074 fits 16 bits, a quarter of az's memory
    e = np.empty(az.shape, dtype=np.int16)
    f, _ = np.frexp(az, out=(buf, e), casting="unsafe")
    q, r = np.divmod(e.sum(axis=1, dtype=np.int64), d)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.log(f, out=f).sum(axis=1)
    return np.ldexp(np.exp((r * math.log(2.0) + s) / d), q)


def _root_mean(pv: float, d: int, s: np.ndarray, k: np.ndarray,
               m: Optional[np.ndarray]) -> np.ndarray:
    """m 2^-k (s / d)^(1/p) per row, the p-mean from ``_power_sums``; inf past the
    doubles, where an infinite coordinate can take it at p < 0."""
    # 1/p = inv + inv_lo to double-double (int / int rounds correctly), and
    # x^inv_lo = 1 + inv_lo ln x keeps the root accurate where |ln x| is large
    inv = 1.0 / pv
    (a, b), (c, e) = pv.as_integer_ratio(), inv.as_integer_ratio()
    inv_lo = (b * e - a * c) / (a * e)
    mean = s / d
    with np.errstate(over="ignore"):
        rows = np.power(mean, inv)
        if inv_lo:
            np.add(rows, rows * (inv_lo * np.log(mean)), out=rows, where=rows < math.inf)
        rows = np.ldexp(rows, -k)
        return rows if m is None else rows * m


# az^p into the scratch array t, by multiplication or sqrt where p allows
_POWERS = {
    1.0: lambda az, t: az,
    2.0: lambda az, t: np.multiply(az, az, out=t),
    3.0: lambda az, t: np.multiply(np.multiply(az, az, out=t), az, out=t),
    -1.0: lambda az, t: np.divide(1.0, az, out=t),
    -2.0: lambda az, t: np.square(np.divide(1.0, az, out=t), out=t),
    0.5: lambda az, t: np.sqrt(az, out=t),
    -0.5: lambda az, t: np.divide(1.0, np.sqrt(az, out=t), out=t),
}

# a direct sum below this may have lost bits to terms that underflowed
_DIRECT_FLOOR = 2.0 ** -960


def _power_sums(pv: float, az: np.ndarray, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                                   Optional[np.ndarray]]:
    """(s, k, m) with sum_j az_j^p = (m 2^-k)^p s per row of the nonnegative 2-D
    array az, for finite p != 0; buf is scratch of az's shape.  A row is
    summed directly, pairwise by ``sum(axis=1)`` (k = 0), or, if that sum is not
    finite or is below 2^-960, again on az 2^k, the exact scaling that puts its
    max (p > 0) or min (p < 0) in [1/2, 1), enough for |p| <= 960.  Where that is
    0 or inf, so is the p-mean: (s, k) = (d, +-2^30), and 2^(-k p) is 0 or inf
    past |p| = 1e-6.  A row whose sum still leaves the doubles is divided by
    that coordinate m (k = 0), whose term is then exactly 1, so s lies in
    [1, d].  m is None, 1 on every row, when no row needs that."""
    power = _POWERS.get(pv, lambda az, t: np.power(az, pv, out=t))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = power(az, buf).sum(axis=1)
    k, m = np.zeros(s.shape, dtype=np.int32), None
    slow = ~((s >= _DIRECT_FLOOR) & (s < math.inf))
    if slow.any():
        a = az[slow]
        top = a.max(axis=1) if pv > 0 else a.min(axis=1)
        e = np.frexp(top)[1]
        with np.errstate(divide="ignore", over="ignore"):
            t = power(np.ldexp(a, -e[:, None]), buf[:len(a)]).sum(axis=1)
        edge = (top == 0.0) | (top == math.inf)
        k[slow] = np.where(edge, np.where(top == 0.0, 1 << 30, -1 << 30), -e)
        s[slow] = t = np.where(edge, az.shape[1], t)
        far = (t < _DIRECT_FLOOR) | (t == math.inf)
        if far.any():
            rows = np.flatnonzero(slow)[far]
            m = np.ones(s.shape)
            m[rows] = top[far]
            with np.errstate(over="ignore"):
                s[rows] = power(a[far] / top[far, None], buf[:len(rows)]).sum(axis=1)
            k[rows] = 0
    return s, k, m


def level_set(x) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct |x_j| and their counts, 0 first where x has zeros: the arrays
    of ``np.unique(np.abs(x), return_counts=True)``, sorting only x's nonzero entries."""
    x = np.asarray(x, dtype=float)
    vals, counts = np.unique(np.abs(x[x != 0.0]), return_counts=True)
    d0 = x.size - counts.sum()
    return (np.insert(vals, 0, 0.0), np.insert(counts, 0, d0)) if d0 else (vals, counts)


def level_pmean(p: float, levels) -> float:
    """<x>_p for p in (0, inf] from x's level set, as top (sum_k c_k (v_k/top)^p / d)^(1/p)."""
    vals, counts = levels
    top = float(vals[-1])
    return top * float(np.dot(counts, (vals / top) ** p) / counts.sum()) ** (1.0 / p) if top else 0.0


def decide(p, c: float, n: int, sample_mean) -> bool:
    """The test delta_{n,p,c}: reject iff sqrt(n) <mean>_p > c (strict)."""
    if n < 1:
        raise DomainError(f"decide requires n >= 1, got {n}")
    return bool(math.sqrt(n) * pmean(p, sample_mean) > c)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestPlan:
    """One power / sample-size / feasibility query."""

    __test__ = False  # not a pytest class, despite the name

    p: float
    d: int
    alpha: float
    beta: float
    theta1: np.ndarray
    levels: tuple = field(init=False, repr=False, compare=False)   # level_set(theta1)

    def __post_init__(self):
        object.__setattr__(self, "p", extended_p(self.p))
        object.__setattr__(self, "theta1", np.asarray(self.theta1, dtype=float))
        if not (0.0 < self.alpha < self.beta < 1.0):
            raise DomainError(f"need 0 < alpha < beta < 1, got ({self.alpha}, {self.beta})")
        if self.d < 1 or self.theta1.shape != (self.d,):
            raise DomainError(f"theta1 needs shape (d,) with d={self.d} >= 1, got {self.theta1.shape}")
        object.__setattr__(self, "levels", level_set(self.theta1))

    @cached_property
    def direction(self) -> np.ndarray:
        """theta1 normalized to a <.>_2-unit vector, computed once per plan
        and read-only."""
        vals, counts = self.levels
        # dividing by max |theta_j| first keeps <.>_2 clear of under- and overflow
        top = float(vals[-1])
        if top == 0.0:
            u = np.zeros_like(self.theta1)
        else:
            norm = level_pmean(2.0, (vals / top, counts))
            u = self.theta1 / top / norm
            norm = level_pmean(2.0, (vals / top / norm, counts))
            if abs(norm - 1.0) > 1e-12:
                raise AccuracyError("direction is not <.>_2-unit after normalization", norm, 1e-12)
        u.flags.writeable = False
        return u


# ---------------------------------------------------------------------------
# Critical values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalValue:
    value: float
    method: str
    half_width: Optional[float] = None   # 95% CI half-width (Monte Carlo only)
    reps: Optional[int] = None

    def __float__(self) -> float:
        return self.value


def critical_value(p, d: int, alpha: float, method: str = "asymptotic",
                   reps: int = 100_000, rng: Optional[RngStream] = None) -> CriticalValue:
    """Size-alpha critical value for <Z>_p in <.>_p units.

    ``asymptotic`` reads the regime row's limit law; ``mc`` is
    ``mc.empirical_critval``: the empirical (1 - alpha)-quantile of <Z>_p
    with an order-statistic CI.
    """
    pv = extended_p(p)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if method == "mc":
        from .mc import empirical_critval   # mc imports this module

        r = empirical_critval(pv, d, alpha, reps, rng if rng is not None else RngStream(0, 0))
        return CriticalValue(r.estimate, "mc", half_width=r.half_width, reps=reps)
    if method != "asymptotic":
        raise ConfigError(f"unknown critical-value method {method!r}")
    return CriticalValue(regime_row(pv, alpha, d).critical(), "asymptotic")


# ---------------------------------------------------------------------------
# Power, sample size, feasibility
# ---------------------------------------------------------------------------

def _shift_row(p, d: int, alpha: float, shift):
    """The regime row at (p, d, alpha) and sum_j f(s_j) over the shift s, which
    must be a nonempty 1-D vector of dimension d."""
    s = np.asarray(shift, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise DomainError("the shift must be a nonempty 1-D vector")
    if s.size != d:
        raise DomainError(f"shift dimension {s.size} != d = {d}")
    row = regime_row(p, alpha, d)
    return row, row.shift_sum(level_set(s))(1.0)


def power_asymptotic(p, d: int, alpha: float, shift) -> float:
    """Asymptotic power of the size-alpha test against the shift s = sqrt(n) theta_1,
    obtained by solving the sufficient-shift relation for beta."""
    row, total = _shift_row(p, d, alpha, shift)
    return row.power(total / row.kappa)


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    threshold: float     # sharp bound on d_0 for this (p, d, alpha, beta)
    d0: int
    detail: str = ""


def _feasibility(plan: TestPlan, row) -> Feasibility:
    d = plan.d
    d0 = int(plan.levels[1][0]) if plan.levels[0][0] == 0.0 else 0
    K, kappa, f0 = row.K(plan.beta), row.kappa, row.f_at_zero
    thr = d - (K * kappa - d * f0) / (row.f_at_inf - f0)
    if math.isinf(row.f_at_inf):
        detail = "p >= 0: every nonzero direction is feasible"
    elif f0 > row.f_at_inf:
        detail = f"d_0 <= K*d with K={K:.6g}"
    else:
        detail = f"d_0 <= d - K*kappa/f_sup, K={K:.6g}, kappa={kappa:.6g}, sup f={row.f_sup:.6g}"
    return Feasibility(bool(0 <= thr and d0 <= thr), float(thr), d0, detail)


def feasibility(plan: TestPlan) -> Feasibility:
    """Whether the direction of theta1 can reach power beta at size alpha.

    Each of the d_0(u) exact zeros of the direction contributes f(0) to the
    shift sum and every other coordinate can contribute up to f(inf), so the
    sum reaches K kappa_p(d) iff d_0 is at most the sharp threshold
    d - (K kappa - d f(0)) / (f(inf) - f(0)); that is d for p >= 0, where f is
    unbounded."""
    return _feasibility(plan, regime_row(plan.p, plan.alpha, plan.d))


def as_shift_scale(plan: TestPlan) -> float:
    """The scalar t* > 0 with sum_j f_p(t* theta_j) = K kappa_p(d); the
    asymptotically sufficient shift in the direction of theta1 is t* theta1."""
    top = float(plan.levels[0][-1])
    if top == 0.0:
        raise DomainError("theta1 must be nonzero")
    row = regime_row(plan.p, plan.alpha, plan.d)
    feas = _feasibility(plan, row)
    if not feas.feasible:
        if feas.threshold < 0:
            # only rows with f bounded above go negative: even d_0 = 0 falls short
            why = (f"no direction reaches beta={plan.beta} at d={plan.d}, since "
                   f"K*kappa/f_sup = {plan.d - feas.threshold:.6g} > d")
        else:
            why = f"direction infeasible: d_0={feas.d0} exceeds threshold {feas.threshold:.6g}"
        raise InfeasibleError(f"p={plan.p}: {why} ({feas.detail})", feas.threshold, feas.d0)
    target = row.K(plan.beta) * row.kappa
    shift_sum = row.shift_sum(plan.levels)

    def g(t):
        return shift_sum(t) - target

    # widen t = 1, 2, 4, ... only while t max|theta_j| stays finite
    _, exponent = math.frexp(top)
    t = find_root(g, 0.0, 1.0, tol=1e-12, max_iter=min(1023, 1024 - exponent))
    if t < 1e-9 and (g(math.ulp(0.0)) < 0.0) != (g(2e-9) < 0.0):
        # the absolute tolerance leaves a root this small few digits: solve in ln t
        t = math.exp(find_root(lambda l: g(math.exp(l)), -744.5, math.log(2e-9), tol=1e-12))
    return t


def n_for_scale(t: float) -> int:
    """The sample size n = ceil(t^2), at least 1, for shift scale t; a t^2 up
    to 1e-9 above an integer rounds down to it.  DomainError where t^2 leaves
    the doubles."""
    if t * t == math.inf:
        raise DomainError(f"the shift scale t*={t!r} has t*^2 past the doubles: "
                          "no sample size")
    return max(1, int(math.ceil(t * t - 1e-9)))


def sample_size(plan: TestPlan) -> int:
    """Smallest integer n with asymptotic power >= beta: n = ceil(t*^2) with
    t* from the sufficient-shift equation (ceiling of ||s||^2 / ||theta1||^2)."""
    return n_for_scale(as_shift_scale(plan))


def as_shift_residual(p, d: int, alpha: float, beta: float, s) -> float:
    """(sum_j f_p(s_j) - K kappa_p(d)) / kappa_p(d): zero iff s satisfies the
    sufficient-shift equation; the sign says over- vs under-powered."""
    row, total = _shift_row(p, d, alpha, s)
    return (total - row.K(beta) * row.kappa) / row.kappa
