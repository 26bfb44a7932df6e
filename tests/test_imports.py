"""Every name a module of the package imports is read somewhere in that module,
and the package exports its names without importing them.

No linter ships with the test dependencies, so this walks each module's
syntax tree.  ``__init__.py`` is exempt, since it only names its exports, and
so is ``from __future__``.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pmean"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by an import and never read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in read)


def test_finds_an_unused_import():
    source = "import math\nfrom typing import Callable, Sequence\n\nf: Callable = math.floor\n"
    assert unused_imports(source) == [(2, "Sequence")]
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# The names ``pmean`` exported when ``__init__.py`` imported them all eagerly,
# and the module each is defined in (IndeterminateGrowthError has since moved
# from are to numcore, which are re-exports it).
EXPORTED = {
    "numcore": "AccuracyError BracketError ConfigError DomainError IndeterminateGrowthError "
               "RngStream find_root gauss_expect normal_cdf normal_pdf normal_quantile",
    "moments": "LimitLaw Regime RegimeRow b_p c_crit_inf extended_p lambda_inf lambda_p "
               "lambda_p_zero lambda_pm limit_law log_moment mu_tilde regime_of regime_row",
    "stable": "StableLaw stable_cdf stable_quantile stable_sample support_lower_bound",
    "hypotest": "CriticalValue Feasibility InfeasibleError TestPlan as_shift_residual "
                "as_shift_scale critical_value decide feasibility pmean pmean_rows "
                "power_asymptotic sample_size",
    "are": "AREVerdict DirectionSequence a_p a_p_moment_route ap_curve are_finite "
           "attaining_sequence block_sequence classify_are equalized_sequence gamma_ratio "
           "orlicz_norm spike_sequence verify_ap_bound",
    "mc": "LimitLawFit MCResult Schur2Result empirical_critval empirical_power "
          "empirical_size_multi ks_distance limit_law_ks majorizes_squares "
          "random_direction_check schur2_check",
}
HOME = {name: module for module, names in EXPORTED.items() for name in names.split()}


def test_import_pmean_loads_no_numpy():
    code = ("import sys, pmean; "
            "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'pmean'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "['pmean']"


def test_exports_are_their_home_objects():
    import pmean
    assert len(HOME) == 69 and sorted(pmean.__all__) == sorted(HOME)
    for name, module in HOME.items():
        assert getattr(pmean, name) is getattr(importlib.import_module(f"pmean.{module}"), name)
    from pmean import are, numcore
    assert are.IndeterminateGrowthError is numcore.IndeterminateGrowthError
    assert set(HOME) <= set(dir(pmean)) and "__version__" in dir(pmean)


def test_star_import_binds_exports():
    namespace = {}
    exec("from pmean import *", namespace)
    import pmean
    assert all(namespace[name] is getattr(pmean, name) for name in HOME)


@pytest.mark.parametrize("name", ["no_such_name", "hyp1f1", "UsageError"])
def test_unknown_name_raises(name):
    import pmean
    with pytest.raises(AttributeError, match=name):
        getattr(pmean, name)
