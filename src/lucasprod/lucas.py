"""Validated Lucas sequence parameters and the term API: ``lucas_u`` and ``lucas_u_mod``.

The sequence is U_0 = 0, U_1 = 1, U_{n+2} = p*U_{n+1} + q*U_n with q = +1 or
-1 and positive nonsquare discriminant delta = p^2 + 4q. ``lucas_u`` gives the
exact U_n and ``lucas_u_mod`` gives U_n mod m, both by index doubling. A caller
that walks U_1, U_2, ... in order steps the recurrence itself.
"""

from __future__ import annotations

import math
from collections import namedtuple

#: Hard cap on indices, guarding against accidental huge-term blowups.
DEFAULT_INDEX_CAP = 100_000

LucasParams = namedtuple("LucasParams", "p q delta")  # as checked by validate_params


def validate_params(p: int, q: int) -> LucasParams:
    """Check q = +-1, delta > 0 and delta nonsquare; return the parameter card."""
    if q not in (-1, 1):
        raise ValueError(f"q must be +1 or -1, got {q}")
    delta = p * p + 4 * q
    if delta <= 0:
        raise ValueError(f"discriminant p^2 + 4q = {delta} is not positive")
    if math.isqrt(delta) ** 2 == delta:
        raise ValueError(f"discriminant {delta} is a perfect square (degenerate)")
    return LucasParams(p, q, delta)


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


def lucas_u(params: LucasParams, n: int) -> int:
    """Exact U_n, computed in O(log n) big-integer multiplications."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if n > DEFAULT_INDEX_CAP:
        raise ValueError(f"index {n} exceeds the cap {DEFAULT_INDEX_CAP}")
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

