"""Exact-arithmetic toolbox for entropy and set-projection inequalities.

Distributions carry exact rational probabilities; type-class vector sets
over them are counted in closed form and enumerated under guards; point
sets in product spaces get projections and conditional average sizes;
covers of the coordinate set are checked and optimized with an
exact rational LP; and the checkers evaluate both the cardinality and
the entropy side of the classical projection inequalities.
"""

from .checkers import (
    InequalitySpec,
    check_cardinality,
    check_entropy,
    check_projection_theorem,
    check_shearer,
    empirical_lemma1,
    lemma2_witness,
)
from .covers import (
    CoverSpec,
    LPSolution,
    is_fractional_cover,
    is_uniform_k_cover,
    min_fractional_cover,
)
from .dist import (
    FiniteMap,
    RationalDist,
    entropy,
    is_suitable,
    minimal_suitable_k,
    pushforward,
    rationalize,
)
from .errors import (
    ApproximationError,
    CoverError,
    DomainError,
    EntrosetError,
    IndexRangeError,
    InfeasibleError,
    MembershipError,
    NegativeCoefficientError,
    SchemaError,
    SizeGuardError,
    SuitabilityError,
)
from .projections import (
    IndexSet,
    PointSet,
    conditional_avg_size,
    conditional_entropy,
    project_rv,
    project_set,
)
from .report import CheckReport
from .ruzsa import (
    RuzsaSpec,
    convergence_profile,
    preimage_lift,
    ruzsa_enumerate,
    ruzsa_size,
    type_bound_check,
    verify_commutation,
)

__all__ = [
    "ApproximationError",
    "CheckReport",
    "CoverError",
    "CoverSpec",
    "DomainError",
    "EntrosetError",
    "FiniteMap",
    "IndexRangeError",
    "IndexSet",
    "InequalitySpec",
    "InfeasibleError",
    "LPSolution",
    "MembershipError",
    "NegativeCoefficientError",
    "PointSet",
    "RationalDist",
    "RuzsaSpec",
    "SchemaError",
    "SizeGuardError",
    "SuitabilityError",
    "check_cardinality",
    "check_entropy",
    "check_projection_theorem",
    "check_shearer",
    "conditional_avg_size",
    "conditional_entropy",
    "convergence_profile",
    "empirical_lemma1",
    "entropy",
    "is_fractional_cover",
    "is_suitable",
    "is_uniform_k_cover",
    "lemma2_witness",
    "min_fractional_cover",
    "minimal_suitable_k",
    "preimage_lift",
    "project_rv",
    "project_set",
    "pushforward",
    "rationalize",
    "ruzsa_enumerate",
    "ruzsa_size",
    "type_bound_check",
    "verify_commutation",
]
