"""Exact computations in commutative rings graded by finitely
generated abelian groups.

The package keeps every computation over Z or Q exact: groups are
presented in invariant-factor form, ring constructions return a
five-field record (base, exponent group, grading group, degree map,
fraction flag), and integrality questions are answered by searching
for explicit monic witnesses that are re-verified by ring arithmetic
before being returned.

Importing the package loads none of its modules.  Each public name is
read from its defining module at every access (PEP 562), which imports
that module the first time, so a command compiles only what it runs.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "FgGroup",
    "GroupHom",
    "direct_sum",
    "find_section",
    "hom_image",
    "hom_kernel",
    "is_in_torsionfree_summand",
    "quotient_by",
    "solve_in_subgroup",
    "subgroup_generated_by",
    "AlmostIntegralWitness",
    "ComponentsReport",
    "IntegralityWitness",
    "LaurentStructure",
    "NoWitnessUpTo",
    "RingMap",
    "components_integral_check",
    "find_almost_integral_witness",
    "find_integral_equation",
    "graded_euclidean_division",
    "j_pi_embedding",
    "laurent_extension",
    "lem50_iso",
    "torsion_idempotent",
    "verify_integral_witness",
    "witness_str",
    "Element",
    "Fraction",
    "NonZeroDivisor",
    "Unit",
    "ZeroDivisor",
    "homogeneous_components",
    "homogeneous_unit_test",
    "lemma_p70_check",
    "nzd_test",
    "GradalError",
    "CheckConfig",
    "CheckReport",
    "CHECK_IDS",
    "run_check",
    "report_json",
    "hermite_columns",
    "smith_normal_form",
    "BaseQ",
    "BaseZ",
    "Classification",
    "NormalForm",
    "classify",
    "coarsen",
    "fraction_field",
    "group_algebra",
    "normalize",
    "regrade_extend",
    "regrade_restrict",
]

# The module that defines each public name.  Fraction is element's: intmat
# also binds one, fractions.Fraction.
_OWNER = {
    "FgGroup": "abelian",
    "GroupHom": "abelian",
    "direct_sum": "abelian",
    "find_section": "abelian",
    "hom_image": "abelian",
    "hom_kernel": "abelian",
    "is_in_torsionfree_summand": "abelian",
    "quotient_by": "abelian",
    "solve_in_subgroup": "abelian",
    "subgroup_generated_by": "abelian",
    "AlmostIntegralWitness": "closure",
    "ComponentsReport": "closure",
    "IntegralityWitness": "closure",
    "LaurentStructure": "closure",
    "NoWitnessUpTo": "closure",
    "RingMap": "closure",
    "components_integral_check": "closure",
    "find_almost_integral_witness": "closure",
    "find_integral_equation": "closure",
    "graded_euclidean_division": "closure",
    "j_pi_embedding": "closure",
    "laurent_extension": "closure",
    "lem50_iso": "closure",
    "torsion_idempotent": "closure",
    "verify_integral_witness": "closure",
    "witness_str": "closure",
    "Element": "element",
    "Fraction": "element",
    "NonZeroDivisor": "element",
    "Unit": "element",
    "ZeroDivisor": "element",
    "homogeneous_components": "element",
    "homogeneous_unit_test": "element",
    "lemma_p70_check": "element",
    "nzd_test": "element",
    "GradalError": "errors",
    "CheckConfig": "harness",
    "CheckReport": "harness",
    "CHECK_IDS": "harness",
    "run_check": "harness",
    "report_json": "harness",
    "hermite_columns": "intmat",
    "smith_normal_form": "intmat",
    "BaseQ": "ringexpr",
    "BaseZ": "ringexpr",
    "Classification": "ringexpr",
    "NormalForm": "ringexpr",
    "classify": "ringexpr",
    "coarsen": "ringexpr",
    "fraction_field": "ringexpr",
    "group_algebra": "ringexpr",
    "normalize": "ringexpr",
    "regrade_extend": "ringexpr",
    "regrade_restrict": "ringexpr",
}


def __getattr__(name):
    """The name read from its defining module at every access, never stored
    here, so a wrapper patched into that module is seen until removed."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module("." + _OWNER[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
