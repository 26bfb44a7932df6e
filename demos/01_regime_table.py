"""Tour of the nine-regime sufficient-shift table.

For each exponent p, asymptotically sufficient shifts s = sqrt(n) theta are
characterized by  sum_j f_p(s_j) ~ K_{alpha,beta;p} kappa_p(d).  Each regime
is one row, ``regime_row(p, alpha, d)``, holding f_p, kappa_p(d), f(0), the
limit law of the statistic, K(beta) and its inverse (the power reached at
R = sum_j f_p(s_j) / kappa_p(d)) and the critical value.  This script prints
the rows at (alpha, beta) = (0.05, 0.95) and shows the equivalence between
solving that equation and the asymptotic power formula.
"""

import math

import numpy as np

from pmean import TestPlan, as_shift_residual, power_asymptotic, regime_row, sample_size

ALPHA, BETA = 0.05, 0.95
D = 10_000

print(f"regime table at (alpha, beta) = ({ALPHA}, {BETA}), d = {D}")
print(f"{'p':>8} | {'kappa(d)':>12} | {'K':>10} | {'f(1)':>10} | {'f(0)':>6} "
      f"| {'critical':>10} | limit law")
print("-" * 100)
for p in (-math.inf, -2.0, -1.0, -0.7, -0.5, -0.25, 0.0, 1.0, 2.0, 3.0, math.inf):
    row = regime_row(p, ALPHA, D)
    print(f"{p:8} | {row.kappa:12.4g} | {row.K(BETA):10.5g} "
          f"| {float(row.f(1.0)):10.5g} | {row.f_at_zero:6.0f} "
          f"| {row.critical():10.5g} | {row.law.name}")

print()
print("solving the shift equation and reading power back:")
theta = np.full(D, 0.02)
for p in (-2.0, 0.0, 1.0, 3.0, math.inf):
    plan = TestPlan(p, D, ALPHA, BETA, theta)
    n = sample_size(plan)
    s = math.sqrt(n) * theta
    resid = as_shift_residual(p, D, ALPHA, BETA, s)
    beta_hat = power_asymptotic(p, D, ALPHA, s)
    print(f"  p={p:5}: n = {n:6d}, normalized residual {resid:+.2e}, "
          f"power at n = {beta_hat:.6f}")

print()
print("power at the zero shift is the size in every regime:")
for p in (-math.inf, -1.0, -0.5, 0.0, 2.0, math.inf):
    print(f"  p={p:5}: {power_asymptotic(p, D, ALPHA, np.zeros(D)):.6f}")
