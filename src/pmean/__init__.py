"""p-mean tests for high-dimensional Gaussian means.

Test statistics <x>_p = ((1/d) sum |x_j|^p)^(1/p) on the extended exponent
line p in [-inf, inf], their critical values, asymptotic power and sample
size from the nine-regime sufficient-shift table, the one-sided stable limit
laws feeding the p < -1/2 regimes, Pitman asymptotic relative efficiency with
its phase transitions, and a Monte Carlo harness verifying the asymptotics at
desk scale.

The names below are looked up in their modules on access (PEP 562), so
``import pmean`` loads neither numpy nor any module of the library, and each
name is its module's object.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "numcore": ("AccuracyError", "BracketError", "ConfigError", "DomainError",
                "IndeterminateGrowthError", "RngStream", "find_root", "gauss_expect",
                "normal_cdf", "normal_pdf", "normal_quantile"),
    "moments": ("LimitLaw", "Regime", "RegimeRow", "b_p", "c_crit_inf", "extended_p",
                "lambda_inf", "lambda_p", "lambda_p_zero", "lambda_pm", "limit_law",
                "log_moment", "mu_tilde", "regime_of", "regime_row"),
    "stable": ("StableLaw", "stable_cdf", "stable_quantile", "stable_sample",
               "support_lower_bound"),
    "hypotest": ("CriticalValue", "Feasibility", "InfeasibleError", "TestPlan",
                 "as_shift_residual", "as_shift_scale", "critical_value", "decide",
                 "feasibility", "pmean", "pmean_rows", "power_asymptotic", "sample_size"),
    "are": ("AREVerdict", "DirectionSequence", "a_p", "a_p_moment_route", "ap_curve",
            "are_finite", "attaining_sequence", "block_sequence", "classify_are",
            "equalized_sequence", "gamma_ratio", "orlicz_norm", "spike_sequence",
            "verify_ap_bound"),
    "mc": ("LimitLawFit", "MCResult", "Schur2Result", "empirical_critval", "empirical_power",
           "empirical_size_multi", "ks_distance", "limit_law_ks", "majorizes_squares",
           "random_direction_check", "schur2_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
