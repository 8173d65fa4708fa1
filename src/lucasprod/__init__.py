"""Reduction of A * y^k = U_{n_1} ... U_{n_r} (pairwise coprime indices of a
Lucas sequence) to finitely many checkable conditions: admissible index sets,
clique enumeration with certificates, rank/primitivity obstructions, and
numerical abc-quality evidence for the governing triples.
"""

from .abc_evidence import (
    BinetTriple,
    QualityReport,
    binet_height,
    binet_radical,
    field_discriminant,
    make_binet_triple,
    quality_report,
)
from .errors import (
    ClassMismatch,
    IncompleteFactorization,
    LucasProdError,
    NegativeQuotientEvenK,
    NotDivisible,
    NotFoundWithinBound,
    NotKthPower,
    NotPairwiseCoprime,
    SeparationLawViolation,
    VerificationError,
)
from .factoring import (
    DEFAULT_RHO_BUDGET,
    FactorCache,
    Factorization,
    factorize,
    power_free_part,
)
from .lucas import (
    LucasParams,
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
)
from .solver import (
    AdmissibleSet,
    ProductEquation,
    SolutionCertificate,
    admissible_indices,
    enumerate_solutions,
    verify_solution,
)
from .square_class import class_of

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # parameters and terms
    "LucasParams",
    "validate_params",
    "lucas_u",
    "lucas_u_mod",
    # factoring
    "Factorization",
    "FactorCache",
    "DEFAULT_RHO_BUDGET",
    "factorize",
    "power_free_part",
    # square classes
    "class_of",
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
    "primitive_divisors",
    "obstruction_filter",
    # abc evidence
    "BinetTriple",
    "QualityReport",
    "field_discriminant",
    "make_binet_triple",
    "binet_height",
    "binet_radical",
    "quality_report",
    # errors
    "LucasProdError",
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
