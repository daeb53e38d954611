"""Exact computations in commutative rings graded by finitely
generated abelian groups.

The package keeps every computation over Z or Q exact: groups are
presented in invariant-factor form, ring constructions return a
five-field record (base, exponent group, grading group, degree map,
fraction flag), and integrality questions are answered by searching
for explicit monic witnesses that are re-verified by ring arithmetic
before being returned.
"""

from .abelian import (
    FgGroup,
    GroupHom,
    direct_sum,
    find_section,
    hom_image,
    hom_kernel,
    is_in_torsionfree_summand,
    quotient_by,
    solve_in_subgroup,
    subgroup_generated_by,
)
from .closure import (
    AlmostIntegralWitness,
    ComponentsReport,
    IntegralityWitness,
    LaurentStructure,
    NoWitnessUpTo,
    RingMap,
    components_integral_check,
    find_almost_integral_witness,
    find_integral_equation,
    graded_euclidean_division,
    j_pi_embedding,
    laurent_extension,
    lem50_iso,
    torsion_idempotent,
    verify_integral_witness,
    witness_str,
)
from .element import (
    Element,
    Fraction,
    NonZeroDivisor,
    Unit,
    ZeroDivisor,
    homogeneous_components,
    homogeneous_unit_test,
    lemma_p70_check,
    nzd_test,
)
from .errors import GradalError
from .harness import CheckConfig, CheckReport, CHECK_IDS, run_check, report_json
from .intmat import hermite_columns, smith_normal_form
from .ringexpr import (
    BaseQ,
    BaseZ,
    Classification,
    NormalForm,
    classify,
    coarsen,
    fraction_field,
    group_algebra,
    normalize,
    regrade_extend,
    regrade_restrict,
)

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
