"""Exact integer primitives: sieve, primality, integer roots, Kronecker symbol.

Everything here is deterministic; repeated runs give identical answers, which
the golden-output tests rely on.
"""

from __future__ import annotations

from math import isqrt

# Deterministic Miller-Rabin bases. The first set is a proven witness set for
# every n < 3.3 * 10^24 (covers all 64-bit inputs); above that we fall back to
# the first 40 primes, i.e. a 40-round strong probable-prime test with fixed
# witnesses.
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981


def prime_sieve(limit: int) -> bytearray:
    """Byte sieve: entry i is 1 exactly when i is prime, for 0 <= i < limit."""
    if limit <= 2:
        return bytearray(max(limit, 0))
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            start = p * p
            sieve[start::p] = bytearray(len(range(start, limit, p)))
    return sieve


def primes_below(limit: int) -> list[int]:
    """All primes < limit."""
    sieve = prime_sieve(limit)
    return [i for i in range(len(sieve)) if sieve[i]]


_MR_LARGE_BASES = tuple(primes_below(174))  # first 40 primes: 2 .. 173
assert len(_MR_LARGE_BASES) == 40


def _strong_probable_prime(n: int, base: int) -> bool:
    if base % n == 0:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test; deterministic for n below ~3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    bases = _MR_BASES_64 if n < _MR_DETERMINISTIC_LIMIT else _MR_LARGE_BASES
    return all(_strong_probable_prime(n, b) for b in bases)


def integer_kth_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 2 or k == 1:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << ((n.bit_length() + k - 1) // k)  # >= true root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def perfect_kth_power_root(n: int, k: int) -> int | None:
    """Exact k-th root of n, or None.

    For odd k a negative n is allowed and the root carries its sign; for even
    k only nonnegative n can succeed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        if k % 2 == 0:
            return None
        r = integer_kth_root(-n, k)
        return -r if r ** k == -n else None
    r = integer_kth_root(n, k)
    return r if r ** k == n else None


def kronecker_at_prime(a: int, p: int) -> int:
    """Kronecker symbol (a/p) for prime p: +1, -1, or 0."""
    if p == 2:
        if a % 2 == 0:
            return 0
        return 1 if a % 8 in (1, 7) else -1
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1
