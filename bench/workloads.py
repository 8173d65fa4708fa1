"""Seeded operation lists for the three benchmark workloads.

A workload is a list of CLI argument vectors (one per operation, without the
``--cache`` flag) plus, for certify-warm, the bytes of a preloaded factor
cache. Everything is drawn from ``random.Random(seed)``, so a seed fixes the
inputs byte for byte. The program only ever sees these argument vectors.

Costs vary steeply with the index bound near a card's factoring reach, so
indices are drawn on evenly spaced grids shifted by a seeded phase, and every
list has the same mix of commands, cards and reach fractions. That keeps
medians and p90 comparable from one seed to the next; the seed moves the
grids and draws the coefficients, exponents, factor counts and order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from arith import factor, legendre, lucas_mod

#: The rho iteration budget passed to every call, 1000x below the CLI default.
BUDGET = 100_000

#: First index n whose U_n lucasprod cannot factor within BUDGET at the seed
#: commit; every smaller index factors completely. (6, 1) is the card whose
#: terms pass 128 bits (n = 50..53) inside its reach.
REACH = {(1, 1): 94, (2, 1): 58, (3, -1): 47, (3, 1): 47, (4, 1): 59, (6, 1): 54}
CARDS = tuple(REACH)
SOLVE_CARDS = CARDS[:5]
DEEP_CARD = (6, 1)
#: Largest index at which factoring U_2..U_n costs lucasprod about 5 ms at the
#: seed commit on the reference machine (see meta.json).
SHALLOW_TOP = {(1, 1): 69, (2, 1): 42, (3, -1): 46, (3, 1): 33, (4, 1): 33, (6, 1): 24}

SMOOTH_A = (1, -1, 2, -2, 3, -3, 5, -5, 6, 10, -10, 12, 13, -15, 30)

# verify tuples (p, q, a, k, indices) by the outcome lucasprod must report.
VERIFY_CATALOGUE = {
    "solution": [
        (1, 1, 5, 2, (5, 12)), (1, 1, 5, 2, (2, 5)), (1, 1, 13, 2, (7, 12)),
        (1, 1, -5, 3, (5, 6)), (2, 1, 5, 2, (3, 7)), (2, 1, 12, 2, (4, 7)),
        (3, -1, 6, 2, (2, 3)), (3, -1, -3, 3, (2, 3)), (1, 1, 20, 2, (5, 12)),
        (1, 1, 10, 2, (3, 5)), (3, 1, 10, 2, (6,)), (1, 1, 5, 4, (2, 5)),
    ],
    "NotPairwiseCoprime": [
        (1, 1, 5, 2, (4, 6)), (2, 1, 5, 2, (3, 9)), (3, 1, 3, 2, (2, 4)),
        (4, 1, 2, 2, (6, 9)), (1, 1, 13, 3, (7, 14)), (3, -1, 6, 2, (10, 15)),
    ],
    "ClassMismatch": [
        (1, 1, 5, 2, (7,)), (2, 1, 5, 2, (5,)), (1, 1, 1, 2, (3,)),
        (4, 1, 2, 2, (5,)), (3, -1, 3, 3, (7,)), (1, 1, -1, 2, (2,)),
    ],
    "NotDivisible": [
        (1, 1, 2, 3, (2,)), (1, 1, -2, 3, (2,)), (1, 1, 3, 3, (2,)),
        (1, 1, -5, 3, (6,)), (1, 1, -5, 3, (2,)),
    ],
    "NotKthPower": [
        (1, 1, 2, 3, (6,)), (1, 1, 6, 3, (12,)), (2, 1, -13, 3, (7,)),
        (3, -1, -2, 3, (3,)),
    ],
    "NegativeQuotientEvenK": [
        (1, 1, -5, 4, (5,)), (1, 1, -2, 4, (2, 3)), (1, 1, -3, 4, (4,)),
        (2, 1, -5, 4, (3,)), (1, 1, -5, 4, (2, 5)),
    ],
}

# certify-warm rank primes: one per point of a log-spaced grid over
# [RANK_LOW, RANK_HIGH], each with the largest possible rank p - (Delta/p), so
# the O(p) scan costs the same share of the grid for every seed.
RANK_LOW, RANK_HIGH, RANK_GRID = 1_000, 3_000_000, 8
RANK_JITTER = 0.02  # relative spread of the seeded start point around a grid point
RANK_CARDS = ((1, 1), (2, 1), (3, 1), (4, 1))

CACHE_FILLER_RECORDS = 600


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[tuple[str, ...], ...]
    cache: bytes | None  # preloaded factor-cache file, or None for no cache


def _common(cmd: str, p: int, q: int) -> list[str]:
    return [cmd, "--p", str(p), "--q", str(q), "--json", "--budget", str(BUDGET)]


def _grid(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count evenly spaced integers in [lo, hi], shifted by one seeded phase."""
    width, phase = hi - lo + 1, rng.random()
    return [lo + int(width * (i + phase) / count) for i in range(count)]


def solve_cold(seed: int) -> Workload:
    """solve/admissible with bounds up to 0.9 of each card's reach, plus four
    calls per card whose bound lies past the reach (budget exhausted at the
    seed). The past-reach calls are the costliest seventh of the list, so p90
    falls inside them rather than on whichever in-reach bound is drawn."""
    rng = random.Random(seed)
    ops = []
    for p, q in SOLVE_CARDS:
        reach = REACH[(p, q)]
        bounds = _grid(rng, 4, int(0.9 * reach), 24) + [rng.randint(reach, reach + 30) for _ in range(4)]
        for n_max in bounds:
            a, k = rng.choice(SMOOTH_A), rng.choice((2, 3))
            if rng.random() < 0.75:
                op = _common("solve", p, q) + ["--a", str(a), "--k", str(k), "--max", str(n_max), "--r", str(rng.randint(1, 3))]
            else:
                op = _common("admissible", p, q) + ["--a", str(a), "--k", str(k), "--max", str(n_max)]
            ops.append(tuple(op))
    rng.shuffle(ops)
    return Workload("solve-cold", tuple(ops), None)


def reports_cold(seed: int) -> Workload:
    """classify, abc-quality and primitive on short index windows, plus a deep
    block of abc-quality windows that end at the last index DEEP_CARD can
    factor, where its terms pass 128 bits.

    The shallow windows stay below SHALLOW_TOP, where one call costs little
    more than the CLI itself, so p50 measures per-call overhead. The deep
    block is the costliest eighth of the list, so p90 falls inside it.
    """
    rng = random.Random(seed)
    ops = []
    for p, q in CARDS:
        top = SHALLOW_TOP[(p, q)]
        for n_max in _grid(rng, 8, top, 6):
            ops.append(_common("classify", p, q) + ["--k", str(rng.choice((2, 3))), "--max", str(n_max)])
        for start in _grid(rng, 1, top - 5, 6):
            ops.append(_common("abc-quality", p, q) + ["--k", str(rng.choice((2, 3))), "--from", str(start), "--to", str(start + rng.randint(2, 5))])
        for n in _grid(rng, 2, top, 8):
            op = _common("primitive", p, q) + ["--n", str(n)]
            if rng.random() < 0.5:
                op += ["--a", str(rng.choice(SMOOTH_A)), "--k", str(rng.choice((2, 3)))]
            ops.append(op)
    p, q = DEEP_CARD
    last = REACH[DEEP_CARD] - 1
    for start in _grid(rng, last - 7, last - 3, 16):
        ops.append(_common("abc-quality", p, q) + ["--k", str(rng.choice((2, 3))), "--from", str(start), "--to", str(last)])
    ops = [tuple(op) for op in ops]
    rng.shuffle(ops)
    return Workload("reports-cold", tuple(ops), None)


def _maximal_rank_prime(rng: random.Random, p: int, q: int, target: float) -> int:
    """First prime after a seeded start near target whose rank is p - (Delta/p)."""
    delta = p * p + 4 * q
    n = int(target * (1 + RANK_JITTER * (2 * rng.random() - 1))) | 1
    while True:
        n += 2
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)) and delta % n:
            top = n - legendre(delta, n)
            if lucas_mod(p, q, top, n) == 0 and all(lucas_mod(p, q, top // l, n) for l in factor(top)):
                return n


def _filler_cache(rng: random.Random) -> bytes:
    """Correct factorization records of random smooth-ish integers."""
    primes = [n for n in range(3, 20_000, 2) if all(n % d for d in range(3, math.isqrt(n) + 1, 2))]
    lines, seen = [], set()
    while len(lines) < CACHE_FILLER_RECORDS:
        factors = {rng.choice(primes): rng.randint(1, 3) for _ in range(rng.randint(2, 5))}
        n = math.prod(b ** e for b, e in factors.items())
        if n in seen:
            continue
        seen.add(n)
        lines.append(f"{n} 1 " + " ".join(f"{b}^{e}" for b, e in sorted(factors.items())))
    return ("\n".join(lines) + "\n").encode("ascii")


def certify_warm(seed: int) -> Workload:
    """A shuffled mix, with fixed repeat counts, of a small seeded pool:
    verify (solutions and every typed rejection), rank and primitive --a."""
    rng = random.Random(seed)
    pool = []  # (op, repeats)
    for outcome, cases in sorted(VERIFY_CATALOGUE.items()):
        for p, q, a, k, indices in rng.sample(cases, 4 if outcome == "solution" else 2):
            op = _common("verify", p, q) + ["--a", str(a), "--k", str(k), "--indices", ",".join(map(str, indices))]
            pool.append((op, 4))
    ratio = RANK_HIGH / RANK_LOW
    for i in range(RANK_GRID):
        p, q = rng.choice(RANK_CARDS)
        target = RANK_LOW * ratio ** (i / (RANK_GRID - 1))
        pool.append((_common("rank", p, q) + ["--prime", str(_maximal_rank_prime(rng, p, q, target))], 3))
    # Below SHALLOW_TOP a cache miss costs little, so the first call of each
    # primitive stays under p90 and p90 stays on the rank scans.
    for p, q in rng.sample(CARDS, 3) * 2:
        n = rng.randint(12, SHALLOW_TOP[(p, q)])
        pool.append((_common("primitive", p, q) + ["--n", str(n), "--a", str(rng.choice(SMOOTH_A)), "--k", str(rng.choice((2, 3)))], 4))
    ops = [tuple(op) for op, repeats in pool for _ in range(repeats)]
    rng.shuffle(ops)
    return Workload("certify-warm", tuple(ops), _filler_cache(rng))


GENERATORS = {"solve-cold": solve_cold, "reports-cold": reports_cold, "certify-warm": certify_warm}


def build(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
