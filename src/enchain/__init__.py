"""Exact-arithmetic toolkit for enriched chain polytopes of finite posets.

The enriched chain polytope of a poset on 1..n is the convex hull of all
signed indicator vectors of antichains.  This package constructs it
implicitly and verifies, by exact enumeration at desk scale, the
identities tying its Ehrhart theory to enriched partition counts, left
peak polynomials, a squarefree quadratic Groebner basis with its
unimodular triangulation, and a flag complex of decorated permutations
whose f-polynomial is the gamma polynomial of h*.
"""

from .errors import (
    CycleDetected,
    EnchainError,
    FaceCountMismatch,
    GammaNegative,
    GuardExceeded,
    IdentityAlarm,
    IdentityViolation,
    ImageMismatch,
    Infeasible,
    InputError,
    InvalidPartition,
    LabelOutOfRange,
    MalformedResult,
    NegativeHStar,
    NonInteger,
    NonUnimodularSimplex,
    NotAnIdeal,
    NotNaturallyLabeled,
    NotPalindromic,
    ParseError,
    PointOutsidePolytope,
    SizeLimit,
)
from .polynomials import (
    IntPolynomial,
    PolyProperties,
    RatPolynomial,
    gamma_expansion,
    hstar_from_counts,
    interpolate,
    kruskal_katona_check,
    polynomial_properties,
    real_root_count,
)
from .posets import (
    Poset,
    PosetIdeal,
    all_natural_posets,
    antichains,
    comparability_orientations,
    ideal_lattice,
    linear_extensions,
    maximal_chains,
    poset_from_covers,
    poset_predicates,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
