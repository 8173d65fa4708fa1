"""Exact integer primitives: sieve, primality, integer roots, Jacobi symbol.

Everything here is deterministic; repeated runs give identical answers, which
the golden-output tests rely on.
"""

from __future__ import annotations

from math import isqrt

from .lucas import _doubling_pair, validate_params

# Deterministic Miller-Rabin tiers, as (limit, bases) by increasing limit: n
# takes the first tier whose limit exceeds it, and is prime if it is a strong
# probable prime to each of that tier's bases. psi_k, the least strong
# pseudoprime to the first k prime bases (OEIS A014233), is the limit of the
# tier of the first k primes: Pomerance-Selfridge-Wagstaff, Math. Comp. 35
# (1980) and Jaeschke, Math. Comp. 61 (1993) up to psi_8; Jiang-Deng, Math.
# Comp. 83 (2014) for psi_9 = psi_10 = psi_11; Sorenson-Webster, Math. Comp. 86
# (2017) for psi_12 and psi_13. Between psi_8 and 2^64, Jim Sinclair's seven
# bases (2011, checked against Feitsma's list of every base-2 strong
# pseudoprime below 2^64) take the place of the first 9 or 12 primes. From
# psi_13 ~ 3.3 * 10^24 up, is_probable_prime runs Baillie-PSW.
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_MR_TIERS = (
    (2_047, _MR_BASES_64[:1]),
    (1_373_653, _MR_BASES_64[:2]),
    (25_326_001, _MR_BASES_64[:3]),
    (3_215_031_751, _MR_BASES_64[:4]),
    (2_152_302_898_747, _MR_BASES_64[:5]),
    (3_474_749_660_383, _MR_BASES_64[:6]),
    (341_550_071_728_321, _MR_BASES_64[:7]),  # psi_7 = psi_8
    (1 << 64, _MR_SINCLAIR_BASES),
    (318_665_857_834_031_151_167_461, _MR_BASES_64[:12]),  # psi_12
    (3_317_044_064_679_887_385_961_981, _MR_BASES_64),  # psi_13
)
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
    if base % n == 0:
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
    """Primality test, proven below ~3.3e24 and Baillie-PSW above.

    Below the limit it is Miller-Rabin to the bases of the first tier in
    _MR_TIERS whose limit exceeds n; above it, a strong test to base 2 and the
    extra strong Lucas test, which no known composite passes together.
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
