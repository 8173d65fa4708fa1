"""Square classes in Q^x / (Q^x)^2 and their group law.

A class is stored canonically as a sign and a strictly sorted prime tuple;
the represented integer sign * prod(primes) is the signed squarefree part.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factoring import FactorCache, factorize, power_free_part
from .intmath import is_probable_prime


@dataclass(frozen=True)
class SquareClass:
    sign: int
    primes: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if list(self.primes) != sorted(set(self.primes)):
            raise ValueError("primes must be strictly sorted and distinct")
        for p in self.primes:
            if not is_probable_prime(p):
                raise ValueError(f"{p} is not prime")

    def as_integer(self) -> int:
        """The signed squarefree representative."""
        n = self.sign
        for p in self.primes:
            n *= p
        return n

    def __str__(self) -> str:
        return str(self.as_integer())


IDENTITY_CLASS = SquareClass(1, ())


def abs_prime_support(n: int, cache: FactorCache | None = None) -> tuple[int, ...]:
    """Sorted distinct primes dividing |n|."""
    return factorize(n, cache=cache).support()


def class_of(n: int, cache: FactorCache | None = None) -> SquareClass:
    """Canonical class of n: the sign and primes of its signed squarefree part."""
    e = power_free_part(n, 2, cache=cache).e
    sign = 1 if e > 0 else -1
    primes = abs_prime_support(e, cache=cache) if abs(e) > 1 else ()
    return SquareClass(sign=sign, primes=primes)


def class_mul(c1: SquareClass, c2: SquareClass) -> SquareClass:
    """Group law: signs multiply, prime sets combine by symmetric difference."""
    primes = tuple(sorted(set(c1.primes) ^ set(c2.primes)))
    return SquareClass(sign=c1.sign * c2.sign, primes=primes)
