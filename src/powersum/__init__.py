"""Perfect difference sets and the power-sum inf-max problem.

The library constructs, verifies, searches for, and characterizes the global
minimizers of max over nu = 1 .. n^2-n of |sum z_k^nu| on unimodular
n-tuples: minimizers are exactly the lattice tuples built on perfect
difference sets of order n-1, and exist iff such a set does.
"""

from .gf import DomainError, GfField, is_irreducible, make_field, primitive_element
from .minimax import OptimizerConfig, OptimizerReport, minimize, objective
from .pds import (
    CanonicalForm,
    FeasibilityReport,
    PerfectDifferenceSet,
    SearchResult,
    bruck_ryser_excludes,
    canonical_form,
    enumerate_all,
    exhaustive_search,
    feasibility,
    singer_construct,
    verify,
    wilbrink_excludes,
)
from .sums import (
    PowerSumProfile,
    RecoveryResult,
    RecoveryStatus,
    UnimodularTuple,
    exact_abs_squared,
    fabrykowski_tuple,
    fejer_certificate,
    power_sums,
    recover_structure,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "GfField", "make_field", "primitive_element", "is_irreducible",
    "PerfectDifferenceSet", "CanonicalForm", "FeasibilityReport", "SearchResult",
    "verify", "singer_construct", "canonical_form", "exhaustive_search",
    "enumerate_all", "feasibility", "bruck_ryser_excludes", "wilbrink_excludes",
    "UnimodularTuple", "PowerSumProfile", "RecoveryResult", "RecoveryStatus",
    "power_sums", "fejer_certificate", "fabrykowski_tuple", "exact_abs_squared",
    "recover_structure",
    "OptimizerConfig", "OptimizerReport", "objective", "minimize",
]
