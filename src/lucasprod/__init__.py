"""Reduction of A * y^k = U_{n_1} ... U_{n_r} (pairwise coprime indices of a
Lucas sequence) to finitely many checkable conditions: admissible index sets,
clique enumeration with certificates, rank/primitivity obstructions, and
numerical abc-quality evidence for the governing triples.
"""

from .abc_evidence import (
    BinetTriple,
    QuadraticFieldData,
    QualityReport,
    binet_height,
    binet_identity_residual,
    binet_radical,
    field_data,
    make_binet_triple,
    quality_report,
    splitting_type,
    triple_from_parts,
)
from .errors import (
    BadQ,
    ClassMismatch,
    IncompleteFactorization,
    LucasProdError,
    NegativeQuotientEvenK,
    NonpositiveDiscriminant,
    NotDivisible,
    NotFoundWithinBound,
    NotKthPower,
    NotPairwiseCoprime,
    NotPrime,
    SeparationLawViolation,
    SquareDiscriminant,
    VerificationError,
    ZeroInput,
)
from .factoring import (
    DEFAULT_RHO_BUDGET,
    FactorCache,
    Factorization,
    PowerFreeDecomposition,
    factorize,
    power_free_part,
    valuation,
)
from .lucas import (
    LucasParams,
    lucas_range,
    lucas_u,
    lucas_u_mod,
    validate_params,
)
from .primitive import (
    ObstructionVerdict,
    PrimitiveEntry,
    PrimitiveReport,
    RankOfApparition,
    obstruction_filter,
    primitive_divisors,
    rank_of_apparition,
    rank_set,
)
from .solver import (
    AdmissibleSet,
    ProductEquation,
    SolutionCertificate,
    admissible_indices,
    enumerate_solutions,
    verify_solution,
)
from .square_class import (
    IDENTITY_CLASS,
    SquareClass,
    abs_prime_support,
    class_mul,
    class_of,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # parameters and terms
    "LucasParams",
    "validate_params",
    "lucas_u",
    "lucas_u_mod",
    "lucas_range",
    # factoring
    "Factorization",
    "PowerFreeDecomposition",
    "FactorCache",
    "DEFAULT_RHO_BUDGET",
    "factorize",
    "valuation",
    "power_free_part",
    # square classes
    "SquareClass",
    "IDENTITY_CLASS",
    "abs_prime_support",
    "class_of",
    "class_mul",
    # solver
    "ProductEquation",
    "AdmissibleSet",
    "SolutionCertificate",
    "admissible_indices",
    "enumerate_solutions",
    "verify_solution",
    # ranks and primitive divisors
    "RankOfApparition",
    "PrimitiveEntry",
    "PrimitiveReport",
    "ObstructionVerdict",
    "rank_of_apparition",
    "rank_set",
    "primitive_divisors",
    "obstruction_filter",
    # abc evidence
    "QuadraticFieldData",
    "BinetTriple",
    "QualityReport",
    "field_data",
    "splitting_type",
    "make_binet_triple",
    "triple_from_parts",
    "binet_identity_residual",
    "binet_height",
    "binet_radical",
    "quality_report",
    # errors
    "LucasProdError",
    "BadQ",
    "NonpositiveDiscriminant",
    "SquareDiscriminant",
    "ZeroInput",
    "NotPrime",
    "IncompleteFactorization",
    "NotFoundWithinBound",
    "SeparationLawViolation",
    "VerificationError",
    "NotPairwiseCoprime",
    "ClassMismatch",
    "NotDivisible",
    "NotKthPower",
    "NegativeQuotientEvenK",
]
