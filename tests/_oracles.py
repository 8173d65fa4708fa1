"""Slow, obviously-correct reference implementations the tests compare against.

Nothing here imports the package under test; every function recomputes its
answer from first principles so disagreements point at real bugs.
"""

import argparse
import functools
import math
import shutil
from itertools import combinations

import mpmath


def lucas_values(p, q, n_max):
    """[U_0, ..., U_n_max] straight from the three-term recurrence."""
    values = [0, 1]
    for _ in range(n_max - 1):
        values.append(p * values[-1] + q * values[-2])
    return values[: n_max + 1]


def primes_below(limit):
    """All primes < limit, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * max(limit, 2)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(len(sieve) - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, len(sieve), p)))
    return [p for p in range(limit) if sieve[p]]


def trial_factorize(n):
    """Unbounded trial division; fine for |n| up to ~10**12 in tests."""
    assert n != 0
    m = abs(n)
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def kth_power_free_part(n, k):
    """(e, s) with n = e * s**k and no p**k dividing e, via trial division."""
    e = 1 if n > 0 else -1
    s = 1
    for p, exp in trial_factorize(n).items():
        e *= p ** (exp % k)
        s *= p ** (exp // k)
    return e, s


def _is_k_free(e, k):
    m = abs(e)
    p = 2
    while p ** k <= m:
        if m % p ** k == 0:
            return False
        p += 1
    return True


def power_free_by_scan(n, k):
    """Same decomposition found by scanning s downward; for small |n| only."""
    top = 1
    while (top + 1) ** k <= abs(n):
        top += 1
    for s in range(top, 0, -1):
        if n % s ** k == 0 and _is_k_free(n // s ** k, k):
            return n // s ** k, s
    raise AssertionError("unreachable: s = 1 always works")


def int_root(mag, k):
    """Floor k-th root of mag >= 0: mpmath's root at full precision, corrected exactly."""
    with mpmath.workprec(mag.bit_length() + 64):
        r = int(mpmath.floor(mpmath.root(mag, k)))
    while r ** k > mag:
        r -= 1
    while (r + 1) ** k <= mag:
        r += 1
    return r


def exact_quotient_root(value, a, k):
    """y with a * y**k == value, nonnegative for even k; None when impossible."""
    if value % a != 0:
        return None
    quot = value // a
    if quot < 0 and k % 2 == 0:
        return None
    root = int_root(abs(quot), k)
    if root ** k != abs(quot):
        return None
    return root if quot >= 0 else -root


def brute_solutions(p, q, a, k, n_max, r_max):
    """Every solution of a * y**k = product of Lucas terms, found with no
    pruning whatsoever: all pairwise coprime index tuples from [2, n_max].

    Returns a sorted list of (indices, y), with the empty product included
    when a = +-y**k is solvable on its own.
    """
    us = lucas_values(p, q, n_max)
    found = []
    y = exact_quotient_root(1, a, k)
    if y is not None:
        found.append(((), y))
    pool = range(2, n_max + 1)
    for size in range(1, r_max + 1):
        for combo in combinations(pool, size):
            if any(math.gcd(i, j) != 1 for i, j in combinations(combo, 2)):
                continue
            product = 1
            for n in combo:
                product *= us[n]
            y = exact_quotient_root(product, a, k)
            if y is not None:
                found.append((combo, y))
    return sorted(found)


def rank_by_bigint(p, us):
    """Smallest n >= 1 with p | U_n, by direct big-integer divisibility."""
    for n in range(1, len(us)):
        if us[n] % p == 0:
            return n
    return None


def rank_by_scan(p, q, prime):
    """Smallest n >= 1 with prime | U_n, by running the recurrence mod prime.

    Every prime has a rank of at most prime + 1, so the scan stops there.
    """
    u_prev, u = 0, 1 % prime
    for n in range(1, prime + 2):
        if u == 0:
            return n
        u_prev, u = u, (p * u + q * u_prev) % prime
    return None


_FIRST_40_PRIMES = [d for d in range(2, 174) if all(d % e for e in range(2, d))]


def miller_rabin_40(n):
    """Strong probable-prime test to the first 40 prime bases, 2 .. 173."""
    if n < 2:
        return False
    for base in _FIRST_40_PRIMES:
        if n % base == 0:
            return n == base
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for base in _FIRST_40_PRIMES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# lucasprod.factoring's trial division as it was with one gcd per chunk of 64
# primes below 10^5, the chunk tables restated. The package's screen must leave
# the same factors and the same cofactor for every m.
_TRIAL_LIMIT = 100_000
_TRIAL_CHUNK = 64


@functools.cache
def trial_chunks():
    """The primes below 10^5, and the chunks (first prime, start, stop, product)."""
    primes = primes_below(_TRIAL_LIMIT)
    chunks = tuple(
        (primes[i], i, i + _TRIAL_CHUNK, math.prod(primes[i : i + _TRIAL_CHUNK]))
        for i in range(0, len(primes), _TRIAL_CHUNK)
    )
    return primes, chunks


def trial_division_reference(m):
    """(factors, cofactor) of m >= 1 after trial division by the primes below 10^5."""
    primes, chunks = trial_chunks()
    factors = {}
    for first, start, stop, product in chunks:
        if first * first > m:
            break  # m has no prime below first, so it is 1 or prime
        if math.gcd(m, product) == 1:
            continue
        for p in primes[start:stop]:
            while m % p == 0:
                factors[p] = factors.get(p, 0) + 1
                m //= p
    return factors, m


# lucasprod.intmath's primality test below psi_13 as it was with the first 13
# prime bases at every size: proven there (Sorenson-Webster, Math. Comp. 86 (2017)).
MR_BASES_13 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3_317_044_064_679_887_385_961_981


def strong_probable_prime_reference(n, base):
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


def miller_rabin_13(n):
    """Primality of n < psi_13 by the strong test to the first 13 prime bases."""
    if n >= PSI_13:
        raise ValueError(f"{n} is not below psi_13, where 13 bases are proven")
    if n < 2:
        return False
    for p in MR_BASES_13:
        if n % p == 0:
            return n == p
    return all(strong_probable_prime_reference(n, b) for b in MR_BASES_13)


def legendre_by_euler(a, p):
    """Legendre symbol (a/p) for an odd prime p by Euler's criterion."""
    r = pow(a, (p - 1) // 2, p)
    return 0 if r == 0 else 1 if r == 1 else -1


# lucasprod.factoring's Brent rho as it was when it reduced its gcd product mod n
# after every sequence step, with the package's increments and batch size restated.
# The package's kernel must return the same value for every (n, budget).
_RHO_INCREMENTS = (1, 3, 5, 7, 11, 13, 17, 19, 23, 29)
_RHO_BATCH = 128


def brent_rho_reference(n: int, budget: int) -> int | None:
    """A nontrivial factor of odd composite n, or None when the budget is spent.

    Brent cycle detection with batched gcds; the (start, increment) sequence is
    fixed, so results are reproducible. ``budget`` caps all restarts' iterations.
    """
    used = 0
    for c in _RHO_INCREMENTS:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1 and used < budget:
            x = y
            advance = min(r, budget - used)
            for _ in range(advance):
                y = (y * y + c) % n
            used += advance
            k = 0
            while k < r and g == 1 and used < budget:
                ys = y
                batch = min(_RHO_BATCH, r - k, budget - used)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                used += batch
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == 1:
            return None  # budget exhausted mid-cycle
        if g == n:
            # The batched gcd collapsed; replay one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # g == n even stepwise: retry with the next increment.
    return None


def reference_parser():
    """The CLI's argparse tree as an older build made it, for its help, usage
    and error text: each subparser builds its own -h, and argparse derives
    the subcommand prefix from the top usage. Runners and the --budget
    default are placeholders; no argv that exits inside argparse reaches
    them, and the help text names neither."""
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="lucasprod",
        description="Reduce A*y^k = products of Lucas terms to checkable conditions.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False, formatter_class=formatter)
    common.add_argument("--p", type=int, required=True, help="recurrence coefficient P")
    common.add_argument("--q", type=int, required=True, help="recurrence coefficient Q, +1 or -1")
    common.add_argument("--json", action="store_true", dest="as_json", help="emit one JSON record")
    common.add_argument("--cache", default=None, help="factor cache file")
    common.add_argument("--budget", type=int, default=None, help="rho iterations per composite")

    def command(name, help):
        sp = sub.add_parser(name, help=help, parents=[common], formatter_class=formatter)
        sp.set_defaults(runner=None, a=None, k=2)
        return sp

    sp = command("seq", "print U_1..U_N")
    sp.add_argument("--max", type=int, required=True, dest="max_index", help="largest index N")

    sp = command("classify", "k-power-free parts and square classes of U_1..U_N")
    sp.add_argument("--max", type=int, required=True, dest="max_index")
    sp.add_argument("--k", type=int, help="power-free exponent (default 2)")

    sp = command("admissible", "indices whose k-free part is supported on the primes of A")
    sp.add_argument("--a", type=int, required=True, help="coefficient A")
    sp.add_argument("--k", type=int)
    sp.add_argument("--max", type=int, required=True, dest="max_index")

    sp = command("solve", "all solutions of A*y^k = U_{n_1}...U_{n_r}")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--k", type=int)
    sp.add_argument("--max", type=int, required=True, dest="max_index")
    sp.add_argument("--r", type=int, default=2, dest="max_factors", help="largest factor count (default 2)")

    sp = command("verify", "check one index tuple and print its certificate")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--k", type=int)
    sp.add_argument("--indices", type=str, required=True, help="comma-separated indices, e.g. 5,12")

    sp = command("rank", "rank of apparition z(p)")
    sp.add_argument("--prime", type=int, required=True)

    sp = command("primitive", "prime divisors of U_n with primitivity marks")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a", type=int, help="also run the obstruction filter for this A")
    sp.add_argument("--k", type=int)

    sp = command("abc-quality", "height/radical quality table over an index range")
    sp.add_argument("--k", type=int)
    sp.add_argument("--from", type=int, required=True, dest="from_n", help="first index")
    sp.add_argument("--to", type=int, required=True, dest="to_n", help="last index")

    return parser
