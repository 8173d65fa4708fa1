"""Rank of apparition, primitive prime divisors, and the multiplicity-one
obstruction filter.

A prime p is primitive for U_n when it divides U_n but no earlier term,
i.e. its rank of apparition is exactly n. If an index occurs in a pairwise
coprime product solution, every prime outside the coefficient must meet its
term to a multiplicity divisible by k; a primitive prime of multiplicity one
therefore rules the index out unconditionally.

``factor_term`` factors U_n by strong divisibility, gcd(U_m, U_n) =
U_gcd(m,n): the primes of U_{n/l}, l a prime of n, are divided out first,
so only the primitive part reaches ``factorize``. Each prime p of that
part has rank of apparition n, so n | p - (delta/p): ``factorize`` gets
``rank=n`` and tries one Pollard p-1 step of exponent n * lcm(1..2000)
before its rho. The gcd gathers every such p with (delta/p) = 1 and
(p - 1)/n dividing lcm(1..2000), and splits them off from the rest of the
part whenever the part has primes of both kinds. A split that stops partial
raises IncompleteFactorization naming the index there, and nowhere else.
The report paths (``primitive_divisors``, and the ``classify`` and
``abc-quality`` runners) factor their terms this way; the solver does not.
By strong divisibility again, a prime of U_n is primitive iff it divides no
U_{n/l}; ``rank_of_apparition`` descends from p - (delta/p), and
``obstruction_filter`` judges a prime table already built from its marks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IncompleteFactorization, NotFoundWithinBound, NotPrime, ZeroInput
from .factoring import FactorCache, Factorization, factorize
from .intmath import is_probable_prime, kronecker_at_prime
from .lucas import LucasParams, lucas_u, lucas_u_mod


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


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing an index n >= 1, by trial division."""
    primes = []
    l = 2
    while l * l <= n:
        if n % l == 0:
            primes.append(l)
            while n % l == 0:
                n //= l
        l += 1
    return primes + [n] if n > 1 else primes


def factor_term(params: LucasParams, n: int, cache: FactorCache | None = None) -> Factorization:
    """Complete factorization of U_n (n >= 1), sending only its primitive part to ``factorize``.

    By strong divisibility every prime of U_n that is not primitive divides
    some U_{n/l}, l a prime of n. Those terms are factored first, by recursion
    through the same cache, and their primes are divided out of U_n; the
    remainder is exactly the primitive part. The result is stored in the
    cache (and its file) under U_n. A split that stops partial raises
    IncompleteFactorization naming its leftover composite and the index n.
    """
    fac = _split(params, n, FactorCache() if cache is None else cache, {})
    if not fac.complete:
        raise IncompleteFactorization(fac.cofactor, index=n)
    return fac


def _split(params: LucasParams, n: int, cache: FactorCache, done: dict[int, Factorization]) -> Factorization:
    """``factor_term`` without the completeness check: an incomplete U_{n/l}
    contributes the primes it found, and its cofactor stays in the remainder.
    ``done`` holds the result of each index split so far in this call, so
    each U_d is computed and split once however many indices divide down to d."""
    if n in done:
        return done[n]
    value = lucas_u(params, n)
    fac = cache.get(value)
    if fac is None:
        remainder = abs(value)
        factors: dict[int, int] = {}
        for l in _prime_divisors(n):
            for p in _split(params, n // l, cache, done).factors:
                while remainder % p == 0:
                    factors[p] = factors.get(p, 0) + 1
                    remainder //= p
        rest = factorize(remainder, cache=cache, rank=n)
        factors.update(rest.factors)  # the remainder keeps no prime divided out above
        fac = Factorization(1 if value > 0 else -1, dict(sorted(factors.items())), rest.cofactor)
        cache.add(value, fac)
    done[n] = fac
    return fac


def primitive_divisors(params: LucasParams, n: int, cache: FactorCache | None = None) -> PrimitiveReport:
    """All prime divisors of U_n with multiplicities and primitivity marks.

    p is primitive (of rank n) iff it divides no U_{n/l}, l a prime of n.
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    fac = factor_term(params, n, cache=cache)
    inherited = math.prod(lucas_u(params, n // l) for l in _prime_divisors(n))
    entries = tuple(
        PrimitiveEntry(prime=p, multiplicity=e, primitive=inherited % p != 0)
        for p, e in sorted(fac.factors.items())
    )
    return PrimitiveReport(n=n, entries=entries)


def obstruction_filter(a: int, report: PrimitiveReport) -> ObstructionVerdict:
    """Unconditional exclusion test for index ``report.n`` in a coprime product solution.

    ``report`` is the prime table of U_n from ``primitive_divisors``. n is
    the rank of apparition of a prime p of the coefficient exactly when p is
    a primitive prime of U_n, so such an entry admits n outright. Otherwise
    a primitive prime outside the coefficient of multiplicity one excludes n:
    a multiplicity of one is a multiple of no k >= 2. A is never factored:
    p divides it iff ``a % p == 0``. Admitting an index asserts nothing; the
    filter never claims primitive divisors exist.
    """
    n = report.n
    if n < 2:
        raise ValueError(f"index must be >= 2, got {n}")
    if a == 0:
        raise ZeroInput("coefficient a")
    if any(entry.primitive and a % entry.prime == 0 for entry in report.entries):
        return ObstructionVerdict(
            admissible=True,
            reason=f"index {n} is the rank of apparition of a prime dividing a={a}",
        )
    for entry in report.entries:
        if entry.primitive and a % entry.prime != 0 and entry.multiplicity == 1:
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
