"""Heights and radicals of the triples (beta^n, sqrt(Delta)*e*s^k, alpha^n).

Each representation U_n = e*s^k turns the Binet formula into an additive
triple a + b = c over K = Q(sqrt(Delta)). Both outer entries are units, so
the projective height collapses to the archimedean places and the radical to
the prime ideals dividing the middle entry. The quality h/rad is the figure
the abc conjecture bounds; this module only measures it and never assumes
the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonpositiveDiscriminant, NotPrime, SquareDiscriminant
from .factoring import FactorCache, power_free_part
from .intmath import is_probable_prime, kronecker_at_prime
from .lucas import LucasParams, lucas_u
from .square_class import abs_prime_support

# Raw evaluation of alpha^n in doubles is allowed only below this many nats;
# past it everything stays in log space and the residual check is skipped.
_EMBEDDING_LIMIT_NATS = 500.0
_RESIDUAL_TOLERANCE = 1e-6


@dataclass(frozen=True)
class QuadraticFieldData:
    """Invariants of K = Q(sqrt(delta)): delta = conductor^2 * d with d
    squarefree, and the field discriminant is d or 4d."""

    delta: int
    d: int
    discriminant: int
    conductor: int


@dataclass(frozen=True)
class BinetTriple:
    """A representation U_n = e * s^k, pinning the triple for one index."""

    n: int
    e: int
    s: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"index must be >= 1, got {self.n}")
        if self.e == 0:
            raise ValueError("e must be nonzero")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")


@dataclass(frozen=True)
class QualityReport:
    height: float
    radical: float
    quality: float
    lower_slack: float
    upper_slack_term: float


def field_data(delta: int, cache: FactorCache | None = None) -> QuadraticFieldData:
    """Squarefree part, field discriminant, and conductor for Q(sqrt(delta))."""
    if delta <= 0:
        raise NonpositiveDiscriminant(delta)
    dec = power_free_part(delta, 2, cache=cache)
    if dec.e == 1:
        raise SquareDiscriminant(delta)
    discriminant = dec.e if dec.e % 4 == 1 else 4 * dec.e
    return QuadraticFieldData(
        delta=delta, d=dec.e, discriminant=discriminant, conductor=dec.s
    )


def splitting_type(field: QuadraticFieldData, p: int) -> str:
    """How p decomposes in the field, from the Kronecker symbol (D/p)."""
    if p < 2 or not is_probable_prime(p):
        raise NotPrime(p)
    symbol = kronecker_at_prime(field.discriminant, p)
    if symbol == 1:
        return "split"
    if symbol == -1:
        return "inert"
    return "ramified"


def binet_identity_residual(params: LucasParams, triple: BinetTriple) -> float:
    """Larger relative residual of beta^n + sqrt(delta)*e*s^k = alpha^n at the
    two real embeddings (conjugation swaps the roots and negates the middle).
    """
    scale = abs(params.alpha) ** triple.n
    middle = math.sqrt(params.delta) * float(triple.e * triple.s ** triple.k)
    first = abs(params.beta ** triple.n + middle - params.alpha ** triple.n)
    second = abs(params.alpha ** triple.n - middle - params.beta ** triple.n)
    return max(first, second) / scale


def _checked(params: LucasParams, triple: BinetTriple) -> BinetTriple:
    value = lucas_u(params, triple.n)
    if triple.e * triple.s ** triple.k != value:
        raise ValueError(
            f"e*s^k = {triple.e}*{triple.s}^{triple.k} does not equal U_{triple.n}"
        )
    if triple.n * math.log(abs(params.alpha)) <= _EMBEDDING_LIMIT_NATS:
        residual = binet_identity_residual(params, triple)
        if residual > _RESIDUAL_TOLERANCE:
            raise ValueError(f"binet identity residual {residual:.3e} out of range")
    return triple


def make_binet_triple(params: LucasParams, n: int, k: int, cache: FactorCache | None = None) -> BinetTriple:
    """Canonical triple for U_n, with e the k-th-power-free part."""
    dec = power_free_part(lucas_u(params, n), k, cache=cache)
    return _checked(params, BinetTriple(n=n, e=dec.e, s=dec.s, k=k))


def triple_from_parts(params: LucasParams, n: int, e: int, s: int, k: int) -> BinetTriple:
    """Triple from an explicit representation; e need not be k-power-free.

    Height and radical do not depend on the representation (only on |e·s^k|
    and its prime support), so callers may pass e = U_n, s = 1 to avoid
    factoring.
    """
    return _checked(params, BinetTriple(n=n, e=e, s=s, k=k))


def binet_height(params: LucasParams, triple: BinetTriple) -> float:
    """Projective height of the triple.

    Finite places contribute nothing (the outer entries are units and the
    middle is integral), and the two real embeddings agree, leaving
    max(n*log|alpha|, log|sqrt(delta)*e*s^k|) computed in log space.
    """
    log_alpha = math.log(abs(params.alpha))
    log_middle = (
        0.5 * math.log(params.delta)
        + math.log(abs(triple.e))
        + triple.k * math.log(triple.s)
    )
    return max(triple.n * log_alpha, log_middle)


def binet_radical(params: LucasParams, triple: BinetTriple, cache: FactorCache | None = None) -> float:
    """Field radical of the triple: (1/2) * sum of log N(q) over prime ideals
    q dividing the middle entry.

    Every rational prime dividing delta*e*s lies under such an ideal: split
    and inert primes contribute log p, ramified ones (log p)/2. A prime
    ramified in K but dividing none of delta, e, s never enters the sum.
    """
    field = field_data(params.delta, cache=cache)
    support: set[int] = set(abs_prime_support(params.delta, cache=cache))
    support.update(abs_prime_support(triple.e, cache=cache))
    support.update(abs_prime_support(triple.s, cache=cache))
    total = 0.0
    for p in sorted(support):
        contribution = math.log(p)
        if splitting_type(field, p) == "ramified":
            contribution /= 2.0
        total += contribution
    return total


def quality_report(params: LucasParams, n: int, k: int, cache: FactorCache | None = None) -> QualityReport:
    """Height, radical, their ratio, and the two slack terms for index n."""
    triple = make_binet_triple(params, n, k, cache=cache)
    height = binet_height(params, triple)
    radical = binet_radical(params, triple, cache=cache)
    return QualityReport(
        height=height,
        radical=radical,
        quality=height / radical,
        lower_slack=height - n * math.log(abs(params.alpha)),
        upper_slack_term=radical - math.log(triple.s),
    )
