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
from collections import namedtuple
from itertools import combinations

from .errors import (
    ClassMismatch,
    IncompleteFactorization,
    NegativeQuotientEvenK,
    NotDivisible,
    NotKthPower,
    NotPairwiseCoprime,
    SeparationLawViolation,
)
from .factoring import FactorCache, factorize
from .intmath import perfect_kth_power_root
from .lucas import DEFAULT_INDEX_CAP, LucasParams, lucas_u
from .square_class import class_of


class ProductEquation(namedtuple("ProductEquation", "params a k max_index max_factors")):
    """A * y^k = prod U_{n_i}, searched over indices in [2, max_index] with at
    most max_factors pairwise coprime factors."""

    __slots__ = ()

    def __new__(cls, params: LucasParams, a: int, k: int, max_index: int, max_factors: int):
        if a == 0:
            raise ValueError("coefficient a must be nonzero")
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        if max_index < 2:
            raise ValueError(f"max_index must be >= 2, got {max_index}")
        if max_index > DEFAULT_INDEX_CAP:
            raise ValueError(f"index {max_index} exceeds the cap {DEFAULT_INDEX_CAP}")
        if max_factors < 1:
            raise ValueError(f"max_factors must be >= 1, got {max_factors}")
        return super().__new__(cls, params, a, k, max_index, max_factors)


class AdmissibleSet(namedtuple("AdmissibleSet", "indices")):
    """Indices in [2, max_index] passing the termwise power-class test."""

    __slots__ = ()

    def __contains__(self, n: int) -> bool:
        return n in self.indices


class SolutionCertificate(namedtuple("SolutionCertificate", "indices y valuation_table trivial")):
    """Auditable record of one solution.

    ``indices`` is strictly increasing and pairwise coprime, all >= 2; the
    empty tuple is the trivial solution of A = +-y^k. ``valuation_table``
    maps each relevant prime to the (index, valuation) pairs of the factors
    it divides.
    """

    __slots__ = ()


def admissible_indices(eq: ProductEquation, cache: FactorCache | None = None) -> AdmissibleSet:
    """All n in [2, max_index] whose U_n has k-free part supported on Supp(a).

    Walks the terms by the recurrence, holding two at a time, and factors
    each in index order; it needs each in full, and the typed failure names
    the first index whose factorization exceeded the budget.
    """
    support = set(factorize(eq.a, cache=cache).support())
    u, u_next = 1, eq.params.p  # U_1, U_2
    admitted = []
    for n in range(2, eq.max_index + 1):
        u, u_next = u_next, eq.params.p * u_next + eq.params.q * u
        fac = factorize(u, cache=cache)
        if not fac.complete:
            raise IncompleteFactorization(fac.cofactor, index=n)
        if all(p in support or exp % eq.k == 0 for p, exp in fac.factors.items()):
            admitted.append(n)
    return AdmissibleSet(tuple(admitted))


def enumerate_solutions(eq: ProductEquation, cache: FactorCache | None = None) -> list[SolutionCertificate]:
    """All canonical solutions, sorted lexicographically by index tuple.

    Tries every pairwise coprime tuple of admissible indices, strictly
    increasing and of size <= max_factors, and verifies those whose term
    product divided by a is a k-th power. The empty tuple is one of them: its
    product is 1, and it is verified as the all-ones tuple (1,), so it appears
    (flagged trivial) exactly when a = +-y^k is solvable.
    """
    cache = FactorCache() if cache is None else cache
    admissible = admissible_indices(eq, cache=cache).indices
    terms = {n: lucas_u(eq.params, n) for n in admissible}

    certificates = []
    for size in range(min(eq.max_factors, len(admissible)) + 1):
        for chosen in combinations(admissible, size):
            if any(math.gcd(m, n) != 1 for m, n in combinations(chosen, 2)):
                continue
            product = math.prod(terms[n] for n in chosen)
            if product % eq.a == 0 and perfect_kth_power_root(product // eq.a, eq.k) is not None:
                certificates.append(verify_solution(eq, chosen or (1,), cache=cache))
    certificates.sort(key=lambda cert: cert.indices)
    return certificates


def verify_solution(
    eq: ProductEquation, indices: tuple[int, ...], cache: FactorCache | None = None
) -> SolutionCertificate:
    """Certificate for the given index tuple, or a typed rejection.

    Checks run in a fixed order and the first failure is raised: pairwise
    coprimality, power-class compatibility, divisibility by the coefficient,
    k-th-power integrality, and the sign of the quotient for even k.
    Index-1 factors are stripped first (U_1 = 1 contributes nothing), so a
    tuple of ones is the empty product and is accepted exactly when a = +-y^k.
    """
    if not indices:
        raise ValueError("indices must be nonempty")
    if any(n < 1 for n in indices):
        raise ValueError(f"indices must be >= 1, got {indices}")

    stripped = tuple(sorted(n for n in indices if n != 1))

    for m, n in combinations(stripped, 2):
        if math.gcd(m, n) != 1:
            raise NotPairwiseCoprime(m, n)

    cache = FactorCache() if cache is None else cache
    support = set(factorize(eq.a, cache=cache).support())
    term_values = {n: lucas_u(eq.params, n) for n in stripped}
    term_factorizations: dict[int, dict[int, int]] = {}
    for n in stripped:
        fac = factorize(term_values[n], cache=cache)
        if not fac.complete:
            # n is admissible iff |U_n| with the primes of a divided out is a k-th power.
            rest = abs(term_values[n])
            while (g := math.gcd(rest, eq.a)) > 1:
                rest //= g
            if perfect_kth_power_root(rest, eq.k) is None:
                raise ClassMismatch(
                    f"U_{n} with the primes of a={eq.a} divided out is not a perfect {eq.k}-th power"
                )
            raise IncompleteFactorization(fac.cofactor, index=n)
        term_factorizations[n] = fac.factors
        bad = [p for p, exp in fac.factors.items() if exp % eq.k != 0 and p not in support]
        if bad:
            raise ClassMismatch(
                f"U_{n} has prime {min(bad)} to exponent not divisible by {eq.k} "
                f"outside the support of a={eq.a}"
            )

    if eq.k == 2:
        sign, primes = 1, set()
        for n in stripped:
            term_class = class_of(term_values[n], cache=cache)
            sign *= term_class.sign
            primes ^= set(term_class.support())
        product_class, a_class = sign * math.prod(primes), class_of(eq.a, cache=cache).value()
        if product_class != a_class:
            raise ClassMismatch(f"product class {product_class} differs from the coefficient class {a_class}")

    product = math.prod(term_values[n] for n in stripped)
    coefficient_factors = factorize(eq.a, cache=cache).factors
    if product % eq.a != 0:
        deficits = [
            p
            for p, exp in sorted(coefficient_factors.items())
            if sum(term_factorizations[n].get(p, 0) for n in stripped) < exp
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
        valuation_table=table,
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
    the coefficient meet each factor to a multiple of k, and a prime of it, to
    exponent e, meets exactly one factor, to a valuation v >= e with v - e
    divisible by k.
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
            if v < e or (v - e) % eq.k:
                raise SeparationLawViolation(p, f"valuation {v} in U_{n} does not fit exponent {e} in a={eq.a}")
        elif any(v % eq.k for _, v in entries):
            raise SeparationLawViolation(p, f"prime outside a={eq.a} to an exponent not divisible by k={eq.k}")
    return table
