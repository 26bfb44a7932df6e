"""p-mean tests for high-dimensional Gaussian means.

Test statistics <x>_p = ((1/d) sum |x_j|^p)^(1/p) on the extended exponent
line p in [-inf, inf], their critical values, asymptotic power and sample
size from the nine-regime sufficient-shift table, the one-sided stable limit
laws feeding the p < -1/2 regimes, Pitman asymptotic relative efficiency with
its phase transitions, and a Monte Carlo harness verifying the asymptotics at
desk scale.
"""

__version__ = "0.1.0"

from .numcore import (AccuracyError, BracketError, ConfigError, DomainError,
                      RngStream, find_root, gauss_expect, normal_cdf, normal_pdf,
                      normal_quantile)
from .moments import (ExtendedP, LimitLaw, Regime, RegimeRow, b_p, c_crit_inf, lambda_inf,
                      lambda_p, lambda_p_zero, lambda_pm, limit_law, log_moment, mu_tilde,
                      regime_row)
from .stable import (StableLaw, stable_cdf, stable_quantile, stable_sample,
                     support_lower_bound)
from .hypotest import (CriticalValue, Feasibility, InfeasibleError, ShiftVector,
                       TestPlan, as_shift_residual, as_shift_scale, critical_value,
                       decide, feasibility, pmean, pmean_rows, power_asymptotic,
                       sample_size)
from .are import (AREVerdict, DirectionSequence, IndeterminateGrowthError,
                  a_p, a_p_moment_route, ap_curve, are_finite, attaining_sequence,
                  block_sequence, classify_are, equalized_sequence, gamma_ratio,
                  orlicz_norm, spike_sequence, verify_ap_bound)
from .mc import (LimitLawFit, MCResult, Schur2Result, empirical_critval,
                 empirical_power, empirical_size_multi, ks_distance, limit_law_ks,
                 majorizes_squares, random_direction_check, schur2_check)
