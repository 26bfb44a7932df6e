"""The one-sided stable laws behind the p < -1/2 regimes.

For p = -2 the limit of sum |Z_j|^{-2} / d^2 is the standard Levy law, whose
closed form 2(1 - Phi(1/sqrt(x))) cross-checks the CDF computed from
Zolotarev's integral.  The Chambers-Mallows-Stuck sampler is validated by KS
against that CDF.
"""

import math

import numpy as np
from scipy.special import ndtr

from pmean import (RngStream, StableLaw, b_p, ks_distance, stable_cdf,
                   stable_quantile, stable_sample)

law = StableLaw(-2.0, b_p(-2.0))
print(f"zeta_(-2, b_-2): stable index {law.alpha}, b = {law.b:.6f}")
print(f"{'x':>10} | {'Zolotarev':>14} | {'Levy closed form':>16}")
for x in (0.1, 0.26032, 2.198, 10.0, 254.31):
    print(f"{x:10.4f} | {stable_cdf(law, x):14.10f} | "
          f"{2 * (1 - ndtr(1 / math.sqrt(x))):16.10f}")

print()
print("quantiles and the regime constant K_{0.05,0.95;-2}:")
q05, q95 = stable_quantile(law, 0.05), stable_quantile(law, 0.95)
print(f"  q(0.05) = {q05:.6f}, q(0.95) = {q95:.6f}, "
      f"K = (q95/q05)^(-1/2) = {(q95 / q05) ** -0.5:.6f}")

print()
print("sampler vs CDF across the index range:")
for p in (-0.7, -1.0, -2.0, -4.0):
    lw = StableLaw(p, b_p(p))
    s = stable_sample(lw, 40_000, RngStream(7, 0))
    sub = np.sort(np.random.default_rng(0).choice(s, 1500, replace=False))
    d = ks_distance(sub, lambda x: stable_cdf(lw, x))
    print(f"  p = {p:5}: index {lw.alpha:.3f}, KS over 1500 points = {d:.4f}")
