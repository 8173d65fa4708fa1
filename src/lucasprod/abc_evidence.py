"""Heights and radicals of the triples (beta^n, sqrt(Delta)*e*s^k, alpha^n).

Each representation U_n = e*s^k turns the Binet formula into an additive
triple a + b = c over K = Q(sqrt(Delta)). Both outer entries are units, so
the projective height collapses to the archimedean places and the radical to
the prime ideals dividing the middle entry. The quality h/rad is the figure
the abc conjecture bounds; this module only measures it and never assumes
the bound.

``make_binet_triple`` builds the canonical triple, e the k-th-power-free
part of U_n, and checks e*s^k = U_n exactly; by Binet's formula
alpha^n - beta^n = sqrt(Delta)*U_n this is the triple identity itself, so
no embedding needs to be evaluated. Height and radical depend only on
|e*s^k| and its primes, so a ``BinetTriple`` built directly from another
representation, such as e = U_n and s = 1, gives the same figures.
``binet_radical`` reads the ramification of each prime p of the middle entry
off the Kronecker symbol (D/p) of the field discriminant
D = ``field_discriminant(Delta)``, the one invariant of K it needs.

Every log-scale figure uses the dominant root modulus (|p| + sqrt(Delta))/2
of alpha, beta = (p +- sqrt(Delta))/2, read in ``_log_dominant``, so a card
and its negation, whose terms agree up to sign, give the same figures.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .factoring import FactorCache, factorize, power_free_part
from .intmath import kronecker_at_prime
from .lucas import LucasParams, lucas_u


class BinetTriple(namedtuple("BinetTriple", "n e s k")):
    """A representation U_n = e * s^k, pinning the triple for one index."""

    __slots__ = ()

    def __new__(cls, n: int, e: int, s: int, k: int):
        if n < 1:
            raise ValueError(f"index must be >= 1, got {n}")
        if e == 0:
            raise ValueError("e must be nonzero")
        if s < 1:
            raise ValueError(f"s must be >= 1, got {s}")
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        return super().__new__(cls, n, e, s, k)


QualityReport = namedtuple("QualityReport", "height radical quality lower_slack upper_slack_term")


def field_discriminant(delta: int, cache: FactorCache | None = None) -> int:
    """Discriminant of Q(sqrt(delta)): d or 4d, d the squarefree part of delta."""
    if delta <= 0:
        raise ValueError(f"discriminant p^2 + 4q = {delta} is not positive")
    d = factorize(delta, cache=cache).power_free(2)[0].value()
    if d == 1:
        raise ValueError(f"discriminant {delta} is a perfect square (degenerate)")
    return d if d % 4 == 1 else 4 * d


def _log_dominant(params: LucasParams) -> float:
    """log of the larger root modulus (|p| + sqrt(delta))/2."""
    return math.log((abs(params.p) + math.sqrt(params.delta)) / 2.0)


def make_binet_triple(params: LucasParams, n: int, k: int, cache: FactorCache | None = None) -> BinetTriple:
    """Canonical triple for U_n, with e the k-th-power-free part, checked
    exactly against U_n."""
    value = lucas_u(params, n)
    e, s = power_free_part(value, k, cache=cache)
    triple = BinetTriple(n=n, e=e, s=s, k=k)
    if triple.e * triple.s ** triple.k != value:
        raise ValueError(f"e*s^k = {triple.e}*{triple.s}^{k} does not equal U_{n}")
    return triple


def binet_height(params: LucasParams, triple: BinetTriple) -> float:
    """Projective height of the triple.

    Finite places contribute nothing (the outer entries are units and the
    middle is integral), and the two real embeddings agree, leaving
    max(n*log(dominant), log|sqrt(delta)*e*s^k|) computed in log space.
    """
    log_middle = (
        0.5 * math.log(params.delta)
        + math.log(abs(triple.e))
        + triple.k * math.log(triple.s)
    )
    return max(triple.n * _log_dominant(params), log_middle)


def binet_radical(params: LucasParams, triple: BinetTriple, cache: FactorCache | None = None) -> float:
    """Field radical of the triple: (1/2) * sum of log N(q) over prime ideals
    q dividing the middle entry.

    Every rational prime dividing delta*e*s lies under such an ideal: split
    and inert primes contribute log p, ramified ones (log p)/2. A prime
    ramified in K but dividing none of delta, e, s never enters the sum.
    """
    cache = FactorCache() if cache is None else cache
    discriminant = field_discriminant(params.delta, cache=cache)
    support: set[int] = set(factorize(params.delta, cache=cache).support())
    support.update(factorize(triple.e, cache=cache).support())
    support.update(factorize(triple.s, cache=cache).support())
    total = 0.0
    for p in sorted(support):
        contribution = math.log(p)
        # p comes off a complete factorization, so it is prime and the
        # Kronecker symbol (D/p) reads its ramification directly.
        if kronecker_at_prime(discriminant, p) == 0:
            contribution /= 2.0
        total += contribution
    return total


def quality_report(params: LucasParams, n: int, k: int, cache: FactorCache | None = None) -> QualityReport:
    """Height, radical, their ratio, and the two slack terms for index n."""
    cache = FactorCache() if cache is None else cache
    triple = make_binet_triple(params, n, k, cache=cache)
    height = binet_height(params, triple)
    radical = binet_radical(params, triple, cache=cache)
    return QualityReport(
        height=height,
        radical=radical,
        quality=height / radical,
        lower_slack=height - n * _log_dominant(params),
        upper_slack_term=radical - math.log(triple.s),
    )
