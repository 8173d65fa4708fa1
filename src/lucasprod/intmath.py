"""Exact integer primitives: sieve, primality, integer roots, Jacobi symbol.

Everything here is deterministic; repeated runs give identical answers, which
the golden-output tests rely on.
"""

from __future__ import annotations

from math import isqrt

from .lucas import _doubling_pair, validate_params

# Deterministic Miller-Rabin in two rows, as (limit, bases): n takes the first
# row whose limit exceeds it, and is prime if it is a strong probable prime to
# each of that row's bases. Below 2^64, Jim Sinclair's seven bases (2011,
# checked against Feitsma's list of every base-2 strong pseudoprime below
# 2^64). From 2^64 to psi_13 ~ 3.3 * 10^24, the least strong pseudoprime to
# the first 13 prime bases (OEIS A014233), those 13 primes (Sorenson-Webster,
# Math. Comp. 86 (2017)). From psi_13 up, is_probable_prime runs Baillie-PSW.
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_MR_TIERS = ((1 << 64, _MR_SINCLAIR_BASES), (3_317_044_064_679_887_385_961_981, _MR_BASES_64))
_MR_DETERMINISTIC_LIMIT = _MR_TIERS[-1][0]


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


def _strong_probable_prime(n: int, base: int) -> bool:
    if base % n == 0:  # no evidence either way: 73 divides Sinclair's 28178
        return True
    r = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(base, (n - 1) >> r, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Extra strong Lucas test of odd n > 3 (Baillie-Wagstaff, Math. Comp. 35 (1980)).

    It runs on U(P, -1) in this library's convention (standard Q = 1) for the
    first P = 3, 4, ... whose delta = P^2 - 4 has Jacobi symbol -1 mod n; a
    square n has none and is rejected first. With n + 1 = d * 2^s, d odd, n
    passes when U_d = 0 and V_d = +-2, or V_{d * 2^r} = 0 for some r < s - 1
    (mod n), where V_d = 2*U_{d+1} - P*U_d and V_{2m} = V_m^2 - 2.
    """
    if perfect_kth_power_root(n, 2) is not None:
        return False
    p = 3
    while (symbol := jacobi(p * p - 4, n)) == 1:
        p += 1
    if symbol == 0:  # 1 < gcd(p^2 - 4, n) and p^2 - 4 < n, so n is composite
        return False
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    u, u_next = _doubling_pair(validate_params(p, -1), d, n)
    v = (2 * u_next - p * u) % n
    if u == 0 and v in (2, n - 2):
        return True
    for _ in range(s - 1):
        if v == 0:
            return True
        v = (v * v - 2) % n
    return False


def is_probable_prime(n: int) -> bool:
    """Primality test, proven below psi_13 ~ 3.3e24 and Baillie-PSW above.

    Below 2^64 it is Miller-Rabin to Sinclair's seven bases (proven with
    Feitsma's base-2 pseudoprime list), and up to psi_13 to the first 13 prime
    bases (Sorenson-Webster); above, a strong test to base 2 and the extra
    strong Lucas test, which no known composite passes together.
    """
    if n < 2:
        return False
    for p in _MR_BASES_64:
        if n % p == 0:
            return n == p
    for limit, bases in _MR_TIERS:
        if n < limit:
            return all(_strong_probable_prime(n, b) for b in bases)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def perfect_kth_power_root(n: int, k: int) -> int | None:
    """Exact k-th root of n, or None.

    For odd k a negative n is allowed and the root carries its sign; for even
    k only nonnegative n can succeed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0 and k % 2 == 0:
        return None
    m = abs(n)
    if k == 2:
        r = isqrt(m)
    elif m < 2:
        r = m
    else:  # Newton's method from above stops at the floor of the root
        r = 1 << ((m.bit_length() + k - 1) // k)
        while (y := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
            r = y
    if r ** k != m:
        return None
    return r if n >= 0 else -r


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0: +1, -1, or 0 when gcd(a, n) > 1."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs an odd positive modulus, got {n}")
    a %= n
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos % 2 and n % 8 in (3, 5):
            result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def kronecker_at_prime(a: int, p: int) -> int:
    """Kronecker symbol (a/p) for prime p: +1, -1, or 0."""
    if p == 2:
        if a % 2 == 0:
            return 0
        return 1 if a % 8 in (1, 7) else -1
    return jacobi(a, p)
