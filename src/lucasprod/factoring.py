"""Exact factorization of big integers, with budgeted rho and a line cache.

Pipeline: trial division up to 10^5, a primality test (Miller-Rabin with
bases sized to n, deterministic below ~3.3e24, and Baillie-PSW above),
perfect-power peeling (a root is factored once, for all its copies), one
Pollard p-1 step on the first composite left, then Brent's variant of Pollard
rho with deterministic restarts on each composite still left. The step is one
gcd, g = gcd(2^L - 1, c) with L = lcm(1..2000): g gathers every prime p of c
whose order of 2 divides L, every p with p - 1 | L among them, and splits c
unless it gathers all of its primes or none. The budget counts rho iterations
per composite, not the step; when it runs out the result is Partial, and
callers that need completeness get IncompleteFactorization. An iteration is
one rho sequence step. Rho reduces the sequence every step, and its product
of differences once per four steps: the product is reduced before every gcd,
so it is the one that reducing every step gives, and no operand grows past
five times the composite's width.

The trial tables are built at import with C-level loops: the 9,592 primes
below 10^5 in one ``array`` of 4-byte items (2, then the odd primes read off
the odd half of a byte sieve, which is not kept), chunks of 64 primes, each
kept as (first prime, slice bounds, product), and blocks of chunks, each kept
as (first prime, chunks, product of the chunk products): the first chunk alone,
then 8 chunks to a block. Trial division is a two-level screen. One gcd with
a block's product clears the whole block; in a block it does not clear, a gcd
per chunk picks the chunks that share a prime with m, and each such chunk is
sliced out of the array and walked only until the primes its gcd names are
divided out. Both levels stop once the square of the next first prime exceeds
what is left, so the screen leaves the same factors and cofactor as dividing
by every prime of every chunk up to that point.

A FactorCache is the one factoring context of a run: it carries the rho
budget and makes each distinct integer cost one factorization. Every function
above ``factorize`` takes it as ``cache=``. A call without one opens one
``FactorCache()``, at DEFAULT_RHO_BUDGET, passes it down and drops it on
return, so each distinct integer is factored once per call:
``verify_solution(eq, (5, 12))`` on Fibonacci with a = 5 makes 9
``factorize`` calls for its 2 distinct integers, and trial-divides each once.
``FactorCache.add`` is the one way a factorization enters a cache. A cache
file holds only what trial division cannot settle, |N| >= 10^10: below that
``factorize`` finishes by trial division alone, so a record could neither
change a result nor save a rho iteration, and a smaller N stays in memory. The
file receives every complete factorization of 10^10 or more its run holds:
what ``factorize`` computes, the Lucas terms ``primitive.factor_term``
assembles, and the k-free part e and root s ``power_free_part`` reads off (so
later lookups of e and s need no rho). The file is indexed by N on the first
lookup or store of such an N, so a run that needs none never opens it, and
each record is parsed and checked (structure, sign, exponents, prime bases,
reconstruction of N) on its first read; a record no call reads is never
checked.
"""

from __future__ import annotations

import math
import os
from array import array
from collections import namedtuple
from itertools import compress, repeat, takewhile

from .errors import IncompleteFactorization
from .intmath import is_probable_prime, perfect_kth_power_root, prime_sieve

TRIAL_DIVISION_LIMIT = 100_000
DEFAULT_RHO_BUDGET = 10 ** 8

# The primes below the trial limit, 4 bytes each: 2, then the odd primes, read
# off the odd half of a sieve that is dropped once read.
_TRIAL_PRIMES = array("I", [2])
_TRIAL_PRIMES.extend(compress(range(1, TRIAL_DIVISION_LIMIT, 2), prime_sieve(TRIAL_DIVISION_LIMIT)[1::2]))
# Trial primes in chunks of 64, each as (first prime, start, stop, product of
# _TRIAL_PRIMES[start:stop]): one gcd with the product tells whether any
# prime of the chunk divides.
_TRIAL_CHUNK = 64
_TRIAL_CHUNKS = tuple(
    (_TRIAL_PRIMES[i], i, i + _TRIAL_CHUNK, math.prod(_TRIAL_PRIMES[i : i + _TRIAL_CHUNK]))
    for i in range(0, len(_TRIAL_PRIMES), _TRIAL_CHUNK)
)
# The chunks in blocks, each as (first prime, its chunks, product of their
# products): one gcd with the product screens a block. The first chunk, the
# primes up to 311, is a block of its own: most inputs are below 313^2, so the
# scan ends after it and they pay no gcd with a larger product. The rest go 8
# chunks to a block.
_TRIAL_BLOCK = 8
_TRIAL_BLOCKS = tuple(
    (chunks[0][0], chunks, math.prod(chunk[3] for chunk in chunks))
    for chunks in [_TRIAL_CHUNKS[:1]]
    + [_TRIAL_CHUNKS[i : i + _TRIAL_BLOCK] for i in range(1, len(_TRIAL_CHUNKS), _TRIAL_BLOCK)]
)
# Squares of numbers with no prime factor below the trial limit are at least this.
_TRIAL_LIMIT_SQUARED = TRIAL_DIVISION_LIMIT * TRIAL_DIVISION_LIMIT
# The prime exponents j that perfect-power peeling tries, in order.
_PEEL_EXPONENTS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _largest_power_within(p: int, bound: int) -> int:
    """p^k for the largest k with p^k <= bound (p <= bound)."""
    power = p
    while power * p <= bound:
        power *= p
    return power


# Exponent of the p-1 step: L = lcm(1..2000), the product over the
# primes p <= 2000 of the largest power of p within 2000.
_PM1_BOUND = 2000
_PM1_L = math.prod(
    _largest_power_within(p, _PM1_BOUND) for p in takewhile(lambda p: p <= _PM1_BOUND, _TRIAL_PRIMES)
)

# Polynomial increments for rho restarts; fixed so runs are reproducible.
_RHO_INCREMENTS = (1, 3, 5, 7, 11, 13, 17, 19, 23, 29)
_RHO_BATCH = 128


class Factorization(namedtuple("Factorization", "sign factors cofactor", defaults=(1,))):
    """Signed prime-exponent map; ``cofactor`` > 1 marks a partial result."""

    __slots__ = ()

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


class FactorCache:
    """Store of complete factorizations, and the rho budget to compute them at.

    File format, one record per line: ``N <sign> <p1>^<e1> <p2>^<e2> ...``.
    Only an |N| >= 10^10 goes through the file; every N is kept in memory.
    The first ``get`` or ``add`` of such an N reads the file once and indexes
    each of its records of 10^10 or more by N, the last line winning for a
    repeated N; a first field that is not an integer fails there, and on
    every later access. A record is parsed and checked on its first ``get``,
    and only then used: a corrupt record raises on every read, and a record
    that is never read is never checked. ``add`` is the only way a record
    enters the cache, and it appends each new complete record of 10^10 or
    more to the file, so the file gets every such factorization the cache
    holds. ``len`` counts the entries in memory and never indexes the file.
    ``path=None`` keeps the cache purely in memory.
    """

    def __init__(self, path: str | None = None, budget: int = DEFAULT_RHO_BUDGET):
        if budget < 0:  # first, so a bad --budget exits 2 before any cache access; 0 leaves all but rho
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.path = path
        self.budget = budget
        # N -> its Factorization, for every N in memory.
        self._entries: dict[int, Factorization] = {}
        # str(N) -> (line number, line) of a file record not read yet.
        self._records: dict[str, tuple[int, str]] = {}
        # True while the file's last line lacks its newline, which an append adds first.
        self._newline_due = False
        # True until the file is indexed, on the first get or add of an |N| >= 10^10.
        self._unindexed = path is not None

    def __len__(self) -> int:
        return len(self._entries) + len(self._records)  # never indexes the file

    def _index(self) -> None:
        path = self.path
        if os.path.exists(path):
            # A non-ASCII byte reads as U+FFFD, which no int() accepts: its record is malformed.
            with open(path, "r", encoding="ascii", errors="replace") as handle:
                text = handle.read()
            self._newline_due = text != "" and not text.endswith("\n")
            records = self._records
            for lineno, line in enumerate(text.split("\n"), start=1):
                head = line.partition(" ")[0]
                if head.isdigit() and head[0] != "0":  # canonical N >= 1, keyed as written
                    if len(head) > 10:  # N >= 10^10; a smaller record is never read
                        records[head] = (lineno, line)
                    continue
                fields = line.split(None, 1)
                if not fields:
                    continue
                try:
                    n = int(fields[0])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: malformed cache line {line.strip()!r}") from exc
                if abs(n) >= _TRIAL_LIMIT_SQUARED:
                    records[str(n)] = (lineno, line)
        self._unindexed = False  # after a clean pass only, so a malformed line raises on every access

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
        value, bits, n_bits = sign, 0, abs(n).bit_length()
        for p, e in pairs:
            if p < 2:
                raise ValueError(f"{where}: base {p} is below 2")
            if e < 1:
                raise ValueError(f"{where}: exponent {e} of {p} is below 1")
            if p in factors:
                raise ValueError(f"{where}: prime {p} is repeated")
            bits += e * (p.bit_length() - 1)  # the record's product is >= 2^bits
            if bits >= n_bits:  # checked before the power, which a huge e makes unbounded
                raise ValueError(f"{where}: record exceeds |{n}| at {p}^{e}")
            factors[p] = e
            value *= p ** e
        if value != n:
            raise ValueError(f"{where}: record does not reconstruct {n}")
        # With prime bases, a record that reconstructs N is N's unique factorization.
        # The test is exact below ~3.3e24, small bases included, so every base takes it.
        for p in factors:
            if not is_probable_prime(p):
                raise ValueError(f"{where}: base {p} is not prime")
        return Factorization(sign, factors)

    def get(self, n: int) -> Factorization | None:
        if self._unindexed and abs(n) >= _TRIAL_LIMIT_SQUARED:
            self._index()
        hit = self._entries.get(n)
        if hit is None and self._records:
            key = str(n)
            record = self._records.get(key)
            if record is not None:
                # A corrupt record raises here and stays unread, so every read raises.
                hit = self._entries[n] = self._parse(n, *record)
                del self._records[key]
        return hit.copy() if hit is not None else None

    def add(self, n: int, fac: Factorization) -> None:
        """Keep a complete factorization of a new n and append it to the file, if any.

        Every store goes through here, which refuses a partial result. Only an
        |n| >= 10^10 goes to the file: trial division factors a smaller n at once."""
        if not fac.complete:
            return
        on_file = self.path is not None and abs(n) >= _TRIAL_LIMIT_SQUARED
        if on_file and self._unindexed:
            self._index()
        if n in self._entries or (on_file and str(n) in self._records):
            return
        self._entries[n] = fac.copy()
        if on_file:
            items = " ".join(f"{p}^{e}" for p, e in sorted(fac.factors.items()))
            line = f"{n} {fac.sign} {items}".rstrip()
            with open(self.path, "a", encoding="ascii") as handle:
                # A last line without its newline would swallow this record.
                handle.write(("\n" if self._newline_due else "") + line + "\n")
            self._newline_due = False


def _brent_rho(n: int, budget: int) -> int | None:
    """A nontrivial factor of odd composite n, or None when the budget is spent.

    Brent cycle detection with batched gcds; the (start, increment) sequence is
    fixed, so results are reproducible. ``budget`` caps all restarts' iterations,
    one sequence step each. ``y`` is reduced mod n every step, and ``q`` takes
    four steps' differences per reduction, the steps left of a batch one by one.
    q is reduced before each gcd, so every gcd, and the returned value, are those
    of reducing q every step.
    """
    used = 0
    for c in _RHO_INCREMENTS:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1 and used < budget:
            x = y
            advance = min(r, budget - used)
            for _ in repeat(None, advance):
                y = (y * y + c) % n
            used += advance
            k = 0
            while k < r and g == 1 and used < budget:
                ys = y
                batch = min(_RHO_BATCH, r - k, budget - used)
                for _ in repeat(None, batch >> 2):
                    t = (y * y + c) % n
                    u = (t * t + c) % n
                    v = (u * u + c) % n
                    y = (v * v + c) % n
                    q = q * (x - t) * (x - u) * (x - v) * (x - y) % n
                for _ in repeat(None, batch & 3):
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


def _trial_divide(m: int) -> tuple[dict[int, int], int]:
    """The primes below the trial limit that divide m >= 1, with their
    exponents, and what is left of m. One gcd screens a block, and only a
    block that shares a prime with m is scanned chunk by chunk."""
    factors: dict[int, int] = {}
    for block_first, chunks, block_product in _TRIAL_BLOCKS:
        if block_first * block_first > m:
            break  # m has no prime below block_first, so it is 1 or prime
        # g, then h: the product of the block's, then the chunk's, primes that divide m.
        g = math.gcd(m, block_product)
        if g == 1:
            continue
        for first, start, stop, product in chunks:
            if first * first > m:
                break  # and the next block's first prime, larger still, ends the scan
            h = math.gcd(g, product)
            if h == 1:
                continue
            g //= h
            for p in _TRIAL_PRIMES[start:stop]:
                if h % p == 0:
                    m //= p
                    e = 1
                    while m % p == 0:
                        m //= p
                        e += 1
                    factors[p] = e
                    h //= p
                    if h == 1:
                        break
            if g == 1:
                break  # no later chunk of the block divides m
    return factors, m


def factorize(n: int, cache: FactorCache | None = None) -> Factorization:
    """Factor a nonzero integer; Partial (composite cofactor) when the budget
    runs out. The budget is the cache's.
    """
    if n == 0:
        raise ValueError("factorization input must be nonzero")
    cache = FactorCache() if cache is None else cache
    hit = cache.get(n)
    if hit is not None:
        return hit
    sign = 1 if n > 0 else -1
    factors, m = _trial_divide(abs(n))

    cofactor = 1
    # (composite or prime, multiplicity): a peeled root is factored once for all its copies.
    pending = [(m, 1)] if m > 1 else []
    pm1_due = True
    while pending:
        c, mult = pending.pop()
        if c < _TRIAL_LIMIT_SQUARED or is_probable_prime(c):
            # below the square of the trial limit, a survivor is prime
            factors[c] = factors.get(c, 0) + mult
            continue
        # Perfect-power peeling: rho converges slowly on high prime powers.
        # c has no prime below the trial limit, so c = r^j needs c > limit^j.
        peeled = False
        for j in _PEEL_EXPONENTS:
            if c < TRIAL_DIVISION_LIMIT ** j:
                break
            root = perfect_kth_power_root(c, j)
            if root is not None:
                pending.append((root, mult * j))
                peeled = True
                break
        if peeled:
            continue
        if pm1_due:
            # The gcd gathers every prime p of c with ord_p(2) | L, so no piece
            # of c, split here or later by rho, splits by a second step.
            pm1_due = False
            divisor = math.gcd(pow(2, _PM1_L, c) - 1, c)
            if 1 < divisor < c:
                pending += [(divisor, mult), (c // divisor, mult)]
                continue
        divisor = _brent_rho(c, cache.budget)
        if divisor is None:
            cofactor *= c ** mult
            continue
        pending += [(divisor, mult), (c // divisor, mult)]

    result = Factorization(sign, dict(sorted(factors.items())), cofactor)
    cache.add(n, result)
    return result


def power_free_part(n: int, k: int, cache: FactorCache | None = None) -> tuple[int, int]:
    """The pair (e, s) of the unique n = e * s^k with e k-th-power-free, sign on e, s >= 1.

    The factorizations of e and s read off that of n are stored in the cache
    like any other (in its file too, from 10^10 up), so factoring them later
    costs nothing.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")  # before any factoring
    cache = FactorCache() if cache is None else cache
    e_fac, s_fac = factorize(n, cache=cache).power_free(k)
    e, s = e_fac.value(), s_fac.value()
    cache.add(e, e_fac)
    cache.add(s, s_fac)
    return e, s
