"""Numerical semigroups, their quotients, and exact invariant identities.

The package computes canonical invariants (minimal generators, Frobenius
number, genus, Apery sets) of numerical semigroups, builds quotients
S/d = {x : d*x in S}, and implements a family of closed-form identities
for quotient invariants: a genus formula through values of the member
generating function at roots of unity, two-generator closed forms,
quasipolynomial structure in arithmetic progressions, and the classical
symmetric-semigroup shortcuts.  Every identity is backed by brute-force
verification sweeps, reachable from the command line via ``numsgps``.
"""

from .core import (
    AperySet,
    GapClassCounts,
    MAX_APERY_MODULUS,
    MAX_FROBENIUS,
    NotNumericalSemigroupError,
    NumericalSemigroup,
    PrecisionLossError,
    PreconditionError,
    ResourceLimitError,
    TheoremViolationError,
    apery_set,
    contains,
    from_gaps,
    from_generators,
    invariants_from_apery,
    is_d_symmetric,
    semigroup_polynomial_coeffs,
)
from .quotient import (
    frobenius_quotient_dsymmetric,
    gap_class_counts,
    quotient,
)
from .roots import (
    QuasipolynomialFit,
    extract_cabd_constant,
    fit_quasipolynomial,
    genus_quotient_ed2_closed_form,
    genus_quotient_via_roots,
    hilbert_at_root,
    quasipoly_admissible_classes,
    root_of_unity_identity_check,
    sylvester_invariants,
)
from .progressions import (
    Ap3Spec,
    FullApSpec,
    ap3_even_d_invariants,
    ap3_odd_a_invariants,
    ap3_quotient_generators,
    ap3_semigroup,
    ap3_symmetric_iff_even,
    full_ap_d_divides_k,
    full_ap_divisor_identity,
    full_ap_quotient,
    open_problem_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AperySet",
    "Ap3Spec",
    "FullApSpec",
    "GapClassCounts",
    "MAX_APERY_MODULUS",
    "MAX_FROBENIUS",
    "NotNumericalSemigroupError",
    "NumericalSemigroup",
    "PrecisionLossError",
    "PreconditionError",
    "QuasipolynomialFit",
    "ResourceLimitError",
    "TheoremViolationError",
    "apery_set",
    "ap3_even_d_invariants",
    "ap3_odd_a_invariants",
    "ap3_quotient_generators",
    "ap3_semigroup",
    "ap3_symmetric_iff_even",
    "contains",
    "extract_cabd_constant",
    "fit_quasipolynomial",
    "frobenius_quotient_dsymmetric",
    "from_gaps",
    "from_generators",
    "full_ap_d_divides_k",
    "full_ap_divisor_identity",
    "full_ap_quotient",
    "gap_class_counts",
    "genus_quotient_ed2_closed_form",
    "genus_quotient_via_roots",
    "hilbert_at_root",
    "invariants_from_apery",
    "is_d_symmetric",
    "open_problem_sweep",
    "quasipoly_admissible_classes",
    "quotient",
    "root_of_unity_identity_check",
    "semigroup_polynomial_coeffs",
    "sylvester_invariants",
    "__version__",
]
