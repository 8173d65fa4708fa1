"""Rank of apparition, primitive prime divisors, and the multiplicity-one
obstruction filter.

A prime p is primitive for U_n when it divides U_n but no earlier term,
i.e. its rank of apparition is exactly n. If an index occurs in a pairwise
coprime product solution, every prime outside the coefficient must meet its
term to a multiplicity divisible by k; a primitive prime of multiplicity one
therefore rules the index out unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompleteFactorization, NotFoundWithinBound, NotPrime
from .factoring import FactorCache, factorize
from .intmath import is_probable_prime, kronecker_at_prime
from .lucas import LucasParams, lucas_u, lucas_u_mod
from .square_class import abs_prime_support


@dataclass(frozen=True)
class RankOfApparition:
    p: int
    z: int


@dataclass(frozen=True)
class PrimitiveEntry:
    prime: int
    multiplicity: int
    primitive: bool


@dataclass(frozen=True)
class PrimitiveReport:
    n: int
    entries: tuple[PrimitiveEntry, ...]


@dataclass(frozen=True)
class ObstructionVerdict:
    admissible: bool
    reason: str
    prime: int | None = None


def rank_of_apparition(params: LucasParams, p: int, cache: FactorCache | None = None) -> RankOfApparition:
    """Smallest n >= 1 with p | U_n, by descent on the divisors of m = p - (delta/p).

    Law of apparition (Lucas 1878): a prime p divides U_m, and p | U_n iff
    z(p) | n. So z starts at m, factored through ``cache`` like any other
    integer (a cache file thus also receives m), and sheds each prime l of m
    while p | U_{z/l}. U_m != 0 (mod p) proves p composite whatever the
    probable-prime test said: that raises NotFoundWithinBound and returns no
    rank.
    """
    if p < 2 or not is_probable_prime(p):
        raise NotPrime(p)
    m = p - kronecker_at_prime(params.delta, p)
    if lucas_u_mod(params, m, p) != 0:
        raise NotFoundWithinBound(p, m)
    fac = factorize(m, cache=cache)
    if not fac.complete:
        raise IncompleteFactorization(fac.cofactor)
    z = m
    for l in fac.factors:
        while z % l == 0 and lucas_u_mod(params, z // l, p) == 0:
            z //= l
    return RankOfApparition(p=p, z=z)


def rank_set(params: LucasParams, a: int, cache: FactorCache | None = None) -> frozenset[int]:
    """Ranks of apparition of the primes dividing the coefficient."""
    return frozenset(rank_of_apparition(params, p, cache=cache).z for p in abs_prime_support(a, cache=cache))


def _is_primitive(params: LucasParams, p: int, n: int) -> bool:
    """Whether p | U_n has rank exactly n, given that it divides U_n.

    Rank divisibility (p | U_m iff z(p) | m) reduces the test to the maximal
    proper divisors n/l over primes l | n, each a residue of U mod p.
    """
    remaining = n
    l = 2
    while l * l <= remaining:
        if remaining % l == 0:
            if lucas_u_mod(params, n // l, p) == 0:
                return False
            while remaining % l == 0:
                remaining //= l
        l += 1
    return remaining == 1 or lucas_u_mod(params, n // remaining, p) != 0


def primitive_divisors(params: LucasParams, n: int, cache: FactorCache | None = None) -> PrimitiveReport:
    """All prime divisors of U_n with multiplicities and primitivity marks."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    value = lucas_u(params, n)
    fac = factorize(value, cache=cache)
    if not fac.complete:
        raise IncompleteFactorization(fac.cofactor, index=n)
    entries = tuple(
        PrimitiveEntry(prime=p, multiplicity=e, primitive=_is_primitive(params, p, n))
        for p, e in sorted(fac.factors.items())
    )
    return PrimitiveReport(n=n, entries=entries)


def obstruction_filter(
    params: LucasParams,
    a: int,
    n: int,
    k: int = 2,
    cache: FactorCache | None = None,
) -> ObstructionVerdict:
    """Unconditional exclusion test for an index in a coprime product solution.

    Excludes n when n is not the rank of any prime of the coefficient and
    U_n has a primitive prime divisor outside the coefficient of multiplicity
    one (such a multiplicity can never be a multiple of k >= 2). Admitting an
    index asserts nothing; the filter never claims primitive divisors exist.
    """
    if n < 2:
        raise ValueError(f"index must be >= 2, got {n}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    ranks = rank_set(params, a, cache=cache)
    if n in ranks:
        return ObstructionVerdict(
            admissible=True,
            reason=f"index {n} is the rank of apparition of a prime dividing a={a}",
        )
    support = set(abs_prime_support(a, cache=cache))
    report = primitive_divisors(params, n, cache=cache)
    for entry in report.entries:
        if entry.primitive and entry.prime not in support and entry.multiplicity == 1:
            return ObstructionVerdict(
                admissible=False,
                reason=(
                    f"primitive prime {entry.prime} divides U_{n} to multiplicity 1 "
                    f"and does not divide a={a}"
                ),
                prime=entry.prime,
            )
    return ObstructionVerdict(
        admissible=True,
        reason=f"no primitive prime of U_{n} outside a={a} has multiplicity 1",
    )
