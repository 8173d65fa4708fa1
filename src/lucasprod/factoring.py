"""Exact factorization of big integers, with budgeted rho and a line cache.

Pipeline: trial division up to 10^5 (each chunk of primes screened by one
gcd), perfect-power peeling, Miller-Rabin (deterministic below ~3.3e24, 40
fixed rounds above), then Brent's variant of Pollard rho with deterministic
restarts. The budget is counted per composite, in rho iterations plus the
cost of the p-1 step below; when it runs out the result is Partial and
callers that need completeness get a typed IncompleteFactorization.

Given ``rank=n``, a hint that every prime p of the input has rank of
apparition n in a Lucas sequence (``primitive.factor_term`` gives it for the
primitive part of U_n), one Pollard p-1 step runs before rho: n divides
p - (delta/p), so when (delta/p) = 1 and (p - 1)/n divides lcm(1..2000),
2^(n * lcm(1..2000)) = 1 (mod p) and a gcd can split p off. The step's
cost, the bit length of that exponent, comes out of the budget of the
composite it runs on, and rho gets the rest; a budget below the cost skips
the step. A wrong hint costs time and budget, never a wrong result. The solver
factors whole terms, whose primes have many different ranks, so it has no
rank to give and passes no hint: its composites get the whole budget for
rho, and one that exhausts it is the composite plain rho leaves.

A FactorCache is the one factoring context of a run: it carries the rho
budget and makes each distinct integer cost one factorization. Every function
above ``factorize`` takes it as ``cache=``; without one, ``factorize`` runs
at DEFAULT_RHO_BUDGET and remembers nothing. Given a cache,
``power_free_part`` also records the exact factorizations of the k-free part
e and the root s it derives, in memory only, so later lookups of e and s need
no rho; a cache file receives only the records ``factorize`` computed, and
the Lucas terms ``primitive.factor_term`` assembles from such records. A
cache file is indexed by N when the cache is built, and each record is
parsed and checked (structure, sign, exponents, prime bases, reconstruction
of N) on its first read; a record no call reads is never checked.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .errors import IncompleteFactorization, ZeroInput
from .intmath import integer_kth_root, is_probable_prime, prime_sieve

TRIAL_DIVISION_LIMIT = 100_000
DEFAULT_RHO_BUDGET = 10 ** 8

# _TRIAL_SIEVE[p] == 1 exactly for the primes p below the trial limit.
_TRIAL_SIEVE = prime_sieve(TRIAL_DIVISION_LIMIT)
_TRIAL_PRIMES = [p for p in range(TRIAL_DIVISION_LIMIT) if _TRIAL_SIEVE[p]]
# Trial primes in chunks, each with the product of its primes: one gcd with
# the product tells whether any prime of the chunk divides.
_TRIAL_CHUNK = 64
_TRIAL_CHUNKS = tuple(
    (chunk, math.prod(chunk))
    for chunk in (
        tuple(_TRIAL_PRIMES[i : i + _TRIAL_CHUNK]) for i in range(0, len(_TRIAL_PRIMES), _TRIAL_CHUNK)
    )
)
# Squares of numbers with no prime factor below the trial limit are at least this.
_TRIAL_LIMIT_SQUARED = TRIAL_DIVISION_LIMIT * TRIAL_DIVISION_LIMIT


def _largest_power_within(p: int, bound: int) -> int:
    """p^k for the largest k with p^k <= bound (p <= bound)."""
    power = p
    while power * p <= bound:
        power *= p
    return power


# Exponent factor of the p-1 step: L = lcm(1..2000), the product over the
# primes p <= 2000 of the largest power of p within 2000.
_PM1_BOUND = 2000
_PM1_L = math.prod(_largest_power_within(p, _PM1_BOUND) for p in _TRIAL_PRIMES if p <= _PM1_BOUND)

# Polynomial increments for rho restarts; fixed so runs are reproducible.
_RHO_INCREMENTS = (1, 3, 5, 7, 11, 13, 17, 19, 23, 29)
_RHO_BATCH = 128


@dataclass
class Factorization:
    """Signed prime-exponent map; ``cofactor`` > 1 marks a partial result."""

    sign: int
    factors: dict[int, int]
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def value(self) -> int:
        """Reconstruct the input exactly, complete or not."""
        n = self.cofactor
        for p, e in self.factors.items():
            n *= p ** e
        return self.sign * n

    def support(self) -> tuple[int, ...]:
        if not self.complete:
            raise IncompleteFactorization(self.cofactor)
        return tuple(sorted(self.factors))

    def copy(self) -> "Factorization":
        return Factorization(self.sign, dict(self.factors), self.cofactor)

    def power_free(self, k: int) -> tuple["Factorization", "Factorization"]:
        """Factorizations of e and s in N = e * s^k, as in ``power_free_part``; N complete."""
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        if not self.complete:
            raise IncompleteFactorization(self.cofactor)
        e = Factorization(self.sign, {p: exp % k for p, exp in self.factors.items() if exp % k})
        return e, Factorization(1, {p: exp // k for p, exp in self.factors.items() if exp >= k})


@dataclass(frozen=True)
class PowerFreeDecomposition:
    """N = e * s^k with e k-th-power-free and carrying the sign of N, s >= 1."""

    e: int
    s: int


class FactorCache:
    """Store of complete factorizations, and the rho budget to compute them at.

    File format, one record per line: ``N <sign> <p1>^<e1> <p2>^<e2> ...``.
    Construction reads the file once and indexes each record by its N, the
    last line winning for a repeated N; a first field that is not an integer
    fails there. A record is parsed and checked on its first ``get``, and only
    then used: a corrupt record raises on every read, and a record that is
    never read is never checked. ``add`` appends new complete results to the
    file; records kept with ``_remember`` stay in memory. ``path=None`` keeps
    the cache purely in memory.
    """

    def __init__(self, path: str | None = None, budget: int = DEFAULT_RHO_BUDGET):
        if budget < 0:  # before the file is read; 0 leaves trial division only
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.path = path
        self.budget = budget
        # N -> its Factorization, or (line number, line) of a file record not read yet.
        self._entries: dict[int, Factorization | tuple[int, str]] = {}
        # True while the file's last line lacks its newline, which an append adds first.
        self._newline_due = False
        if path is not None and os.path.exists(path):
            self._index(path)

    def __len__(self) -> int:
        return len(self._entries)

    def _index(self, path: str) -> None:
        with open(path, "r", encoding="ascii") as handle:
            for lineno, line in enumerate(handle, start=1):
                self._newline_due = not line.endswith("\n")
                head = line.split(None, 1)
                if not head:
                    continue
                try:
                    n = int(head[0])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: malformed cache line {line.strip()!r}") from exc
                self._entries[n] = (lineno, line)

    def _parse(self, n: int, lineno: int, line: str) -> Factorization:
        """The record of n on file line ``lineno``, checked; ValueError if corrupt."""
        where = f"{self.path}:{lineno}"
        fields = line.split()
        try:
            sign = int(fields[1])
            pairs = []
            for item in fields[2:]:
                p_text, e_text = item.split("^")
                pairs.append((int(p_text), int(e_text)))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{where}: malformed cache line {line.strip()!r}") from exc
        if sign not in (-1, 1):
            raise ValueError(f"{where}: sign {sign} is not +1 or -1")
        factors: dict[int, int] = {}
        value = sign
        for p, e in pairs:
            if p < 2:
                raise ValueError(f"{where}: base {p} is below 2")
            if e < 1:
                raise ValueError(f"{where}: exponent {e} of {p} is below 1")
            if p in factors:
                raise ValueError(f"{where}: prime {p} is repeated")
            factors[p] = e
            value *= p ** e
        if value != n:
            raise ValueError(f"{where}: record does not reconstruct {n}")
        # With prime bases, a record that reconstructs N is N's unique factorization.
        for p in factors:
            if not (_TRIAL_SIEVE[p] if p < TRIAL_DIVISION_LIMIT else is_probable_prime(p)):
                raise ValueError(f"{where}: base {p} is not prime")
        return Factorization(sign, factors)

    def get(self, n: int) -> Factorization | None:
        hit = self._entries.get(n)
        if isinstance(hit, tuple):
            # A corrupt record raises here and stays unread, so every read raises.
            hit = self._entries[n] = self._parse(n, *hit)
        return hit.copy() if hit is not None else None

    def _remember(self, n: int, fac: Factorization) -> bool:
        """Keep a complete factorization in memory only; True when n is new.
        Every store goes through here, which refuses a partial result."""
        if not fac.complete or n in self._entries:
            return False
        self._entries[n] = fac.copy()
        return True

    def add(self, n: int, fac: Factorization) -> None:
        """Keep a complete factorization and append it to the file, if any."""
        if self._remember(n, fac) and self.path is not None:
            items = " ".join(f"{p}^{e}" for p, e in sorted(fac.factors.items()))
            line = f"{n} {fac.sign} {items}".rstrip()
            with open(self.path, "a", encoding="ascii") as handle:
                # A last line without its newline would swallow this record.
                handle.write(("\n" if self._newline_due else "") + line + "\n")
            self._newline_due = False


def _brent_rho(n: int, budget: int) -> tuple[int | None, int]:
    """A nontrivial factor of odd composite n, or None when the budget is spent.

    Brent cycle detection with batched gcds; the (start, increment) sequence is
    fixed, so results are reproducible. Returns (factor, iterations_used).
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
            return None, used  # budget exhausted mid-cycle
        if g == n:
            # The batched gcd collapsed; replay one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, used
        # g == n even stepwise: retry with the next increment.
    return None, used


def factorize(n: int, cache: FactorCache | None = None, *, rank: int | None = None) -> Factorization:
    """Factor a nonzero integer; Partial (composite cofactor) when the budget
    runs out. The budget is the cache's, else DEFAULT_RHO_BUDGET. ``rank``
    is the rank-of-apparition hint of the p-1 step (module docstring); it
    changes the speed only, since any nontrivial gcd is a valid split.
    """
    if n == 0:
        raise ZeroInput("factorization input")
    if cache is not None:
        hit = cache.get(n)
        if hit is not None:
            return hit
    sign = 1 if n > 0 else -1
    m = abs(n)
    factors: dict[int, int] = {}
    for chunk, product in _TRIAL_CHUNKS:
        if chunk[0] * chunk[0] > m:
            break  # m has no prime below chunk[0], so it is 1 or prime
        if math.gcd(m, product) == 1:
            continue
        for p in chunk:
            while m % p == 0:
                factors[p] = factors.get(p, 0) + 1
                m //= p

    budget = DEFAULT_RHO_BUDGET if cache is None else cache.budget
    cofactor = 1
    pending = [m] if m > 1 else []
    while pending:
        c = pending.pop()
        if c < _TRIAL_LIMIT_SQUARED or is_probable_prime(c):
            # below the square of the trial limit, a survivor is prime
            factors[c] = factors.get(c, 0) + 1
            continue
        # Perfect-power peeling: rho converges slowly on high prime powers.
        peeled = False
        for j in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            if (1 << j) > c:
                break
            root = integer_kth_root(c, j)
            if root ** j == c:
                pending.extend([root] * j)
                peeled = True
                break
        if peeled:
            continue
        rho_budget = budget
        if rank is not None:
            # The gcd gathers every prime p of c with ord_p(2) | exponent, so
            # no piece of c, split here or later by rho, splits by a second step.
            exponent, rank = rank * _PM1_L, None
            if exponent.bit_length() <= budget:
                rho_budget -= exponent.bit_length()
                divisor = math.gcd(pow(2, exponent, c) - 1, c)
                if 1 < divisor < c:
                    pending += [divisor, c // divisor]
                    continue
        divisor, _ = _brent_rho(c, rho_budget)
        if divisor is None:
            cofactor *= c
            continue
        pending.append(divisor)
        pending.append(c // divisor)

    result = Factorization(sign, dict(sorted(factors.items())), cofactor)
    if cache is not None:
        cache.add(n, result)
    return result


def power_free_part(n: int, k: int, cache: FactorCache | None = None) -> PowerFreeDecomposition:
    """Unique decomposition n = e * s^k with e k-th-power-free, sign on e.

    With a cache, the factorizations of e and s read off that of n are kept
    in its memory (never in its file), so factoring them later costs nothing.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")  # before any factoring
    e_fac, s_fac = factorize(n, cache=cache).power_free(k)
    e, s = e_fac.value(), s_fac.value()
    if cache is not None:
        cache._remember(e, e_fac)
        cache._remember(s, s_fac)
    return PowerFreeDecomposition(e=e, s=s)
