"""Typed errors shared across the package.

Invalid input raises ``ValueError``; a ``LucasProdError`` is a result the
package reports: a rejected tuple, a --prime proved composite because it has
no rank of apparition, a factorization left incomplete by its budget, or an
internally inconsistent certificate.
"""

from __future__ import annotations


class LucasProdError(Exception):
    """Base class for every outcome this package reports as an error."""


# --- factorization --------------------------------------------------------

class IncompleteFactorization(LucasProdError):
    """A factorization stopped with a composite cofactor.

    ``cofactor`` is the stuck composite; ``index``, when known, is a Lucas
    index. From ``primitive.factor_term`` it is the first d | n whose own
    primitive part stuck while U_n was split; from
    ``solver.admissible_indices`` and ``verify_solution`` it is the index of
    the whole term they factored.
    """

    def __init__(self, cofactor: int, index: int | None = None):
        self.cofactor = cofactor
        self.index = index
        where = f" while factoring the term at index {index}" if index is not None else ""
        super().__init__(f"factorization budget exhausted at composite {cofactor}{where}")


class NotFoundWithinBound(LucasProdError):
    """p does not divide U_index, where index = p - (delta/p).

    The law of apparition puts every prime p in U_{p - (delta/p)}, so this
    proves p composite, whatever a probable-prime test said. Never swallowed:
    no rank of apparition exists to report.
    """

    def __init__(self, p: int, index: int):
        self.p = p
        self.index = index
        super().__init__(
            f"{p} does not divide U_{index}, which every prime p divides at index "
            f"p - (delta/p); so {p} is composite"
        )


# --- solution verification ------------------------------------------------

class VerificationError(LucasProdError):
    """Base class for typed rejections from verify_solution."""


class NotPairwiseCoprime(VerificationError):
    def __init__(self, i: int, j: int):
        self.i = i
        self.j = j
        super().__init__(f"indices {i} and {j} are not coprime")


class ClassMismatch(VerificationError):
    pass


class NotDivisible(VerificationError):
    def __init__(self, p: int):
        self.p = p
        super().__init__(f"product is not divisible by the coefficient: deficit at prime {p}")


class NotKthPower(VerificationError):
    def __init__(self, k: int):
        self.k = k
        super().__init__(f"quotient is not a perfect {k}-th power")


class NegativeQuotientEvenK(VerificationError):
    def __init__(self, k: int):
        self.k = k
        super().__init__(f"quotient is negative but k={k} is even")


class SeparationLawViolation(LucasProdError):
    """A certificate's valuation table breaks a separation law it promises.

    This flags an internal inconsistency, not a rejected tuple, so it is
    deliberately not a VerificationError.
    """

    def __init__(self, p: int, detail: str):
        self.p = p
        super().__init__(f"valuation table breaks a separation law at prime {p}: {detail}")
