"""Solver for A * y^k = product of Lucas terms at pairwise coprime indices.

The search space is cut down in two stages. First the termwise restriction:
an index n can occur only when the k-th-power-free part of U_n is supported
on the primes of A (the admissible set). Then solutions are exactly the
cliques of the coprimality graph on that set whose term product divided by A
is an exact k-th power. Every reported solution carries an auditable
certificate with the per-prime valuation evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    ClassMismatch,
    IncompleteFactorization,
    NegativeQuotientEvenK,
    NotDivisible,
    NotKthPower,
    NotPairwiseCoprime,
    SeparationLawViolation,
)
from .factoring import FactorCache, factorize, valuation
from .intmath import perfect_kth_power_root
from .lucas import LucasParams, lucas_range, lucas_u
from .square_class import IDENTITY_CLASS, abs_prime_support, class_mul, class_of


@dataclass(frozen=True)
class ProductEquation:
    """A * y^k = prod U_{n_i}, searched over indices in [2, max_index] with at
    most max_factors pairwise coprime factors."""

    params: LucasParams
    a: int
    k: int
    max_index: int
    max_factors: int

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("coefficient a must be nonzero")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.max_index < 2:
            raise ValueError(f"max_index must be >= 2, got {self.max_index}")
        if self.max_factors < 1:
            raise ValueError(f"max_factors must be >= 1, got {self.max_factors}")


@dataclass(frozen=True)
class AdmissibleSet:
    """Indices in [2, max_index] passing the termwise power-class test."""

    equation: ProductEquation
    indices: tuple[int, ...]

    def __contains__(self, n: int) -> bool:
        return n in self.indices


@dataclass
class SolutionCertificate:
    """Auditable record of one solution.

    ``indices`` is strictly increasing and pairwise coprime, all >= 2; the
    empty tuple is the trivial solution of A = +-y^k. ``valuation_table``
    maps each relevant prime to the (index, valuation) pairs of the factors
    it divides. ``canonical`` records that index-1 factors were stripped from
    the tuple that was verified.
    """

    indices: tuple[int, ...]
    y: int
    class_check: bool
    valuation_table: dict[int, tuple[tuple[int, int], ...]]
    canonical: bool
    trivial: bool


def admissible_indices(eq: ProductEquation, cache: FactorCache | None = None) -> AdmissibleSet:
    """All n in [2, max_index] whose U_n has k-free part supported on Supp(a).

    Needs a complete factorization of every term in range; the typed failure
    names the first index whose factorization exceeded the budget.
    """
    support = set(abs_prime_support(eq.a, cache=cache))
    terms = lucas_range(eq.params, eq.max_index)
    admitted = []
    for n in range(2, eq.max_index + 1):
        fac = factorize(terms[n], cache=cache)
        if not fac.complete:
            raise IncompleteFactorization(fac.cofactor, index=n)
        if all(p in support or exp % eq.k == 0 for p, exp in fac.factors.items()):
            admitted.append(n)
    return AdmissibleSet(equation=eq, indices=tuple(admitted))


def _trivial_certificate(eq: ProductEquation) -> SolutionCertificate | None:
    """Empty-product solution of a = +-y^k, when one exists."""
    if eq.a == 1:
        return SolutionCertificate((), 1, True, {}, canonical=False, trivial=True)
    if eq.a == -1 and eq.k % 2 == 1:
        return SolutionCertificate((), -1, True, {}, canonical=False, trivial=True)
    return None


def _quotient_root(b: int, a: int, k: int) -> int | None:
    """y with a * y^k == b, requiring y >= 0 for even k; None if none exists."""
    if b % a != 0:
        return None
    quotient = b // a
    if quotient < 0 and k % 2 == 0:
        return None
    return perfect_kth_power_root(quotient, k)


def enumerate_solutions(eq: ProductEquation, cache: FactorCache | None = None) -> list[SolutionCertificate]:
    """All canonical solutions, sorted lexicographically by index tuple.

    Depth-first over the sorted admissible set with gcd pruning; tuples are
    strictly increasing, pairwise coprime, of size <= max_factors. The empty
    tuple appears (flagged trivial) exactly when a = +-y^k is solvable.
    """
    admissible = admissible_indices(eq, cache=cache).indices
    terms = lucas_range(eq.params, eq.max_index)

    certificates = []
    trivial = _trivial_certificate(eq)
    if trivial is not None:
        certificates.append(trivial)

    chosen: list[int] = []

    def extend(start: int, product: int) -> None:
        for pos in range(start, len(admissible)):
            n = admissible[pos]
            if any(math.gcd(n, m) != 1 for m in chosen):
                continue
            chosen.append(n)
            candidate_product = product * terms[n]
            if _quotient_root(candidate_product, eq.a, eq.k) is not None:
                certificates.append(verify_solution(eq, tuple(chosen), cache=cache))
            if len(chosen) < eq.max_factors:
                extend(pos + 1, candidate_product)
            chosen.pop()

    extend(0, 1)
    certificates.sort(key=lambda cert: cert.indices)
    return certificates


def verify_solution(
    eq: ProductEquation, indices: tuple[int, ...], cache: FactorCache | None = None
) -> SolutionCertificate:
    """Certificate for the given index tuple, or a typed rejection.

    Checks run in a fixed order and the first failure is raised: pairwise
    coprimality, power-class compatibility, divisibility by the coefficient,
    k-th-power integrality, and the sign of the quotient for even k.
    Index-1 factors are stripped first (U_1 = 1 contributes nothing).
    """
    if not indices:
        raise ValueError("indices must be nonempty")
    if any(n < 1 for n in indices):
        raise ValueError(f"indices must be >= 1, got {indices}")

    stripped = tuple(sorted(n for n in indices if n != 1))
    canonical = len(stripped) != len(indices)

    for i in range(len(stripped)):
        for j in range(i + 1, len(stripped)):
            g = math.gcd(stripped[i], stripped[j])
            if g != 1:
                raise NotPairwiseCoprime(stripped[i], stripped[j])

    support = set(abs_prime_support(eq.a, cache=cache))
    term_values = {n: lucas_u(eq.params, n) for n in stripped}
    term_factorizations: dict[int, dict[int, int]] = {}
    for n in stripped:
        fac = factorize(term_values[n], cache=cache)
        if not fac.complete:
            raise IncompleteFactorization(fac.cofactor, index=n)
        term_factorizations[n] = fac.factors
        bad = [p for p, exp in fac.factors.items() if exp % eq.k != 0 and p not in support]
        if bad:
            raise ClassMismatch(
                f"U_{n} has prime {min(bad)} to exponent not divisible by {eq.k} "
                f"outside the support of a={eq.a}"
            )

    if eq.k == 2:
        product_class = IDENTITY_CLASS
        for n in stripped:
            product_class = class_mul(product_class, class_of(term_values[n], cache=cache))
        if product_class != class_of(eq.a, cache=cache):
            raise ClassMismatch(
                f"product class {product_class.as_integer()} differs from the "
                f"coefficient class {class_of(eq.a, cache=cache).as_integer()}"
            )

    product = 1
    for n in stripped:
        product *= term_values[n]
    if not stripped:
        # All factors were U_1; the equation degenerates to a = +-y^k.
        trivial = _trivial_certificate(eq)
        if trivial is not None:
            return SolutionCertificate(
                (), trivial.y, True, {}, canonical=True, trivial=True
            )

    coefficient_factors = factorize(eq.a, cache=cache).factors
    if product % eq.a != 0:
        deficits = [
            p
            for p, exp in sorted(coefficient_factors.items())
            if sum(valuation(term_values[n], p) for n in stripped) < exp
        ]
        raise NotDivisible(deficits[0])

    quotient = product // eq.a
    y = perfect_kth_power_root(abs(quotient), eq.k)
    if y is None:
        raise NotKthPower(eq.k)
    if quotient < 0:
        if eq.k % 2 == 0:
            raise NegativeQuotientEvenK(eq.k)
        y = -y

    table = _valuation_table(eq, stripped, term_factorizations, coefficient_factors)
    return SolutionCertificate(
        indices=stripped,
        y=y,
        class_check=True,
        valuation_table=table,
        canonical=canonical,
        trivial=not stripped,
    )


def _valuation_table(
    eq: ProductEquation,
    indices: tuple[int, ...],
    term_factorizations: dict[int, dict[int, int]],
    coefficient_factors: dict[int, int],
) -> dict[int, tuple[tuple[int, int], ...]]:
    """Prime -> ((index, valuation), ...) over factors the prime divides.

    Also checks the separation laws the certificate promises: primes outside
    the coefficient meet each factor to a multiple of k, primes inside it meet
    exactly one factor, deep and with matching parity when k = 2.
    """
    primes = set(coefficient_factors)
    for factors in term_factorizations.values():
        primes.update(factors)
    table: dict[int, tuple[tuple[int, int], ...]] = {}
    for p in sorted(primes):
        entries = tuple(
            (n, term_factorizations[n][p])
            for n in indices
            if p in term_factorizations[n]
        )
        table[p] = entries
        if p in coefficient_factors:
            if len(entries) != 1:
                raise SeparationLawViolation(p, f"prime of a={eq.a} carried by {len(entries)} factors")
            (n, v), e = entries[0], coefficient_factors[p]
            if v < e or (eq.k == 2 and (v - e) % 2):
                raise SeparationLawViolation(p, f"valuation {v} in U_{n} does not fit exponent {e} in a={eq.a}")
        elif any(v % eq.k for _, v in entries):
            raise SeparationLawViolation(p, f"prime outside a={eq.a} to an exponent not divisible by k={eq.k}")
    return table
