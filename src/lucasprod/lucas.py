"""Validated Lucas sequence parameters and exact computation of U_n.

The sequence is U_0 = 0, U_1 = 1, U_{n+2} = p*U_{n+1} + q*U_n with q = +1 or
-1 and positive nonsquare discriminant delta = p^2 + 4q. All term arithmetic
is exact; the stored real roots are double precision and feed only estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadQ, NonpositiveDiscriminant, SquareDiscriminant
from .intmath import is_perfect_square

#: Hard cap on indices, guarding against accidental huge-term blowups.
DEFAULT_INDEX_CAP = 100_000


@dataclass(frozen=True)
class LucasParams:
    """Validated (p, q, delta) with the dominant root stored as ``alpha``.

    ``alpha`` and ``beta`` are the real roots of x^2 - p*x - q, labelled so
    that |alpha| > 1 > |beta|; for negative p this swaps the textbook
    (p + sqrt(delta))/2 assignment.
    """

    p: int
    q: int
    delta: int
    alpha: float
    beta: float


def validate_params(p: int, q: int) -> LucasParams:
    """Check q = +-1, delta > 0 and delta nonsquare; return the parameter card."""
    if q not in (-1, 1):
        raise BadQ(q)
    delta = p * p + 4 * q
    if delta <= 0:
        raise NonpositiveDiscriminant(delta)
    if is_perfect_square(delta):
        raise SquareDiscriminant(delta)
    root = math.sqrt(delta)
    alpha = (p + root) / 2.0
    beta = (p - root) / 2.0
    if abs(alpha) < abs(beta):
        alpha, beta = beta, alpha
    return LucasParams(p=p, q=q, delta=delta, alpha=alpha, beta=beta)


def _doubling_pair(params: LucasParams, n: int, modulus: int = 0) -> tuple[int, int]:
    """(U_n, U_{n+1}) by index doubling, reduced mod ``modulus`` when nonzero.

    Doubling steps come from the addition formula
    U_{m+n} = U_m*U_{n+1} + q*U_{m-1}*U_n:
        U_{2m}   = U_m * (2*U_{m+1} - p*U_m)
        U_{2m+1} = U_{m+1}^2 + q*U_m^2
    """
    p, q = params.p, params.q
    a, b = 0, 1
    for bit in bin(n)[2:]:
        even = a * (2 * b - p * a)
        odd = b * b + q * a * a
        if bit == "1":
            a, b = odd, p * odd + q * even
        else:
            a, b = even, odd
        if modulus:
            a, b = a % modulus, b % modulus
    return a, b


def lucas_u(params: LucasParams, n: int, *, index_cap: int = DEFAULT_INDEX_CAP) -> int:
    """Exact U_n, computed in O(log n) big-integer multiplications."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if n > index_cap:
        raise ValueError(f"index {n} exceeds the cap {index_cap}")
    return _doubling_pair(params, n)[0]


def lucas_u_mod(params: LucasParams, n: int, m: int) -> int:
    """U_n mod m in O(log n) multiplications of residues below m.

    There is no index cap: the residues never grow past m, whatever n is.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    return _doubling_pair(params, n, m)[0]


def lucas_range(params: LucasParams, n_max: int, *, index_cap: int = DEFAULT_INDEX_CAP) -> list[int]:
    """[U_0, U_1, ..., U_{n_max}] by the three-term recurrence."""
    if n_max < 0:
        raise ValueError(f"index must be >= 0, got {n_max}")
    if n_max > index_cap:
        raise ValueError(f"index {n_max} exceeds the cap {index_cap}")
    terms = [0, 1]
    for _ in range(n_max - 1):
        terms.append(params.p * terms[-1] + params.q * terms[-2])
    return terms[: n_max + 1]
