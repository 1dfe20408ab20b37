"""polysym: exact and numeric computations with vector-valued symplectic
structures, from subspace orthogonals and reductions through Lie-algebra
coefficient systems, patch-level Hamiltonian mechanics, and discrete gauge
cohomology.
"""

from .errors import ContractViolation, ValidationError
from .exactla import Matrix, QuotientSpace, Subspace, annihilator, contains, intersect, kernel, quotient, sum_
from .polycore import (
    CoefficientMap,
    LinearReduction,
    SubspaceClass,
    VForm,
    apply_coefficient_map,
    canonical_model,
    check_reduction_candidate,
    classify,
    direct_sum,
    linear_reduce,
    orthogonal,
    pullback,
    universal_embed,
)
from .liealg import LieAlgebra, bracket_form, center, centralizer, lie_reduce
from .discgauge import Cochain, DeltaComplex, cohomology, cup, d, gauge_moment, lagrangian_check, moment_zero_set, omega_disc, reduce_gauge

__version__ = "0.1.0"

__all__ = [
    "ContractViolation",
    "ValidationError",
    "Matrix",
    "QuotientSpace",
    "Subspace",
    "annihilator",
    "contains",
    "intersect",
    "kernel",
    "quotient",
    "sum_",
    "CoefficientMap",
    "LinearReduction",
    "SubspaceClass",
    "VForm",
    "apply_coefficient_map",
    "canonical_model",
    "check_reduction_candidate",
    "classify",
    "direct_sum",
    "linear_reduce",
    "orthogonal",
    "pullback",
    "universal_embed",
    "LieAlgebra",
    "bracket_form",
    "center",
    "centralizer",
    "lie_reduce",
    "Cochain",
    "DeltaComplex",
    "cohomology",
    "cup",
    "d",
    "gauge_moment",
    "lagrangian_check",
    "moment_zero_set",
    "omega_disc",
    "reduce_gauge",
    "__version__",
]
