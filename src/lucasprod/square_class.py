"""Square classes in Q^x / (Q^x)^2.

A class is the ``Factorization`` of its signed squarefree part: its sign,
and each prime of odd exponent in n to exponent 1. ``class_of`` reads it off
the factorization of n, through the given cache. Classes multiply by
multiplying signs and taking the symmetric difference of prime sets.
"""

from __future__ import annotations

from .factoring import FactorCache, Factorization, factorize, power_free_part


def class_of(n: int, cache: FactorCache | None = None) -> Factorization:
    """Canonical class of n: the factorization of its signed squarefree part."""
    cache = FactorCache() if cache is None else cache
    e, _ = power_free_part(n, 2, cache=cache)
    return factorize(e, cache=cache) if abs(e) > 1 else Factorization(e, {})
