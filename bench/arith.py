"""Integer arithmetic for the benchmark's generator and output checker.

Written from the definitions and kept separate from ``lucasprod`` on purpose:
the checker must not trust the code it checks.
"""

from __future__ import annotations

import math

SMALL_PRIMES = tuple(p for p in range(2, 1000) if all(p % d for d in range(2, math.isqrt(p) + 1)))
# Strong-pseudoprime bases; the first twelve are a proven witness set below
# 3.3e24, the rest make larger inputs probable primes with error < 4^-24.
_WITNESSES = SMALL_PRIMES[:24]


def lucas_terms(p: int, q: int, n_max: int) -> list[int]:
    """[U_0, ..., U_{n_max}] of U_{n+2} = p*U_{n+1} + q*U_n from the definition."""
    terms = [0, 1]
    while len(terms) <= n_max:
        terms.append(p * terms[-1] + q * terms[-2])
    return terms[: n_max + 1]


def lucas_mod(p: int, q: int, n: int, m: int) -> int:
    """U_n mod m by squaring the companion matrix [[p, q], [1, 0]]."""
    result = (1, 0, 0, 1)  # identity, row-major
    base = (p % m, q % m, 1 % m, 0)
    while n:
        if n & 1:
            result = _mat_mul(result, base, m)
        base = _mat_mul(base, base, m)
        n >>= 1
    return result[2]  # M^n = [[U_{n+1}, q*U_n], [U_n, q*U_{n-1}]]


def _mat_mul(x: tuple, y: tuple, m: int) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in SMALL_PRIMES[:24]:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kth_root(n: int, k: int) -> int | None:
    """The integer r >= 0 with r**k == n, or None; n >= 0."""
    if n < 2:
        return n
    if k == 2:
        r = math.isqrt(n)
        return r if r * r == n else None
    lo, hi = 1, 1 << (n.bit_length() // k + 1)  # hi**k > n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo if lo ** k == n else None


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Pollard rho, Brent's cycle)."""
    for c in range(1, 200):
        y, m, g, r, prod = 2, 64, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                g = math.gcd(prod, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho found no factor of {n}")


def factor(n: int) -> dict[int, int]:
    """Prime factorization of |n| >= 1 as {prime: exponent}."""
    n = abs(n)
    out: dict[int, int] = {}
    for p in SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        for k in (2, 3, 5, 7):
            r = kth_root(m, k)
            if r is not None:
                stack.extend([r] * k)
                break
        else:
            d = _rho(m)
            stack += [d, m // d]
    return dict(sorted(out.items()))


def rank_by_scan(p: int, q: int, prime: int, limit: int) -> int | None:
    """Least n in [1, limit] with prime | U_n, scanning the sequence mod prime."""
    prev, cur = 0, 1 % prime
    for n in range(1, limit + 1):
        if cur == 0:
            return n
        prev, cur = cur, (p * cur + q * prev) % prime
    return None


def legendre(a: int, prime: int) -> int:
    """(a/prime) for an odd prime: 1, -1 or 0."""
    a %= prime
    if a == 0:
        return 0
    return 1 if pow(a, (prime - 1) // 2, prime) == 1 else -1


def is_rank(p: int, q: int, prime: int, z: int) -> bool:
    """Whether z is the rank of apparition of prime: prime | U_z and prime
    does not divide U_{z/l} for any prime l | z (ranks divide every index
    whose term the prime divides)."""
    if z < 1 or lucas_mod(p, q, z, prime) != 0:
        return False
    return all(lucas_mod(p, q, z // l, prime) != 0 for l in factor(z))
