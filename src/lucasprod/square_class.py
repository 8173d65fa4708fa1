"""Square classes in Q^x / (Q^x)^2 and their group law.

A class is stored canonically as a sign and a strictly sorted prime tuple;
the represented integer sign * prod(primes) is the signed squarefree part.
``class_of`` reads the class off the factorization of n, through the given
cache; the distinct primes of n are ``factorize(n, cache=cache).support()``.
"""

from __future__ import annotations

from collections import namedtuple

from .factoring import FactorCache, factorize, power_free_part
from .intmath import is_probable_prime


class SquareClass(namedtuple("SquareClass", "sign primes")):
    __slots__ = ()

    def __new__(cls, sign: int, primes: tuple[int, ...]):
        if sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if list(primes) != sorted(set(primes)):
            raise ValueError("primes must be strictly sorted and distinct")
        for p in primes:
            if not is_probable_prime(p):
                raise ValueError(f"{p} is not prime")
        return super().__new__(cls, sign, primes)

    def as_integer(self) -> int:
        """The signed squarefree representative."""
        n = self.sign
        for p in self.primes:
            n *= p
        return n

    def __str__(self) -> str:
        return str(self.as_integer())


IDENTITY_CLASS = SquareClass(1, ())


def class_of(n: int, cache: FactorCache | None = None) -> SquareClass:
    """Canonical class of n: the sign and primes of its signed squarefree part."""
    e, _ = power_free_part(n, 2, cache=cache)
    sign = 1 if e > 0 else -1
    primes = factorize(e, cache=cache).support() if abs(e) > 1 else ()
    return SquareClass(sign=sign, primes=primes)


def class_mul(c1: SquareClass, c2: SquareClass) -> SquareClass:
    """Group law: signs multiply, prime sets combine by symmetric difference."""
    primes = tuple(sorted(set(c1.primes) ^ set(c2.primes)))
    return SquareClass(sign=c1.sign * c2.sign, primes=primes)
