"""Factorization pipeline: trial division, Brent rho, power peeling, cache."""

import inspect
import itertools
import math
import random
import sys
from collections import Counter

import pytest

from lucasprod import (
    FactorCache,
    factoring,
    factorize,
    power_free_part,
)
from lucasprod.factoring import TRIAL_DIVISION_LIMIT
from lucasprod.intmath import is_probable_prime

from _oracles import (
    brent_rho_reference,
    kth_power_free_part,
    power_free_by_scan,
    primes_below,
    trial_chunks,
    trial_division_reference,
    trial_factorize,
)


def _next_prime(n):
    while not is_probable_prime(n):
        n += 1
    return n


def test_small_known_values():
    fac = factorize(360)
    assert (fac.sign, fac.factors, fac.cofactor) == (1, {2: 3, 3: 2, 5: 1}, 1)
    fac = factorize(-7)
    assert (fac.sign, fac.factors) == (-1, {7: 1})
    assert factorize(1).factors == {}
    assert factorize(-1).sign == -1
    with pytest.raises(ValueError, match="^factorization input must be nonzero$"):
        factorize(0)


def test_support_is_the_primes_of_the_absolute_value():
    assert factorize(1).support() == ()
    assert factorize(-1).support() == ()
    assert factorize(-360).support() == (2, 3, 5)


def test_matches_trial_division():
    rng = random.Random(0xFAC7)
    for _ in range(200):
        n = rng.randrange(2, 10 ** 9) * rng.choice((1, -1))
        fac = factorize(n)
        assert fac.complete
        assert fac.factors == trial_factorize(n)
        assert fac.sign == (1 if n > 0 else -1)


def test_random_roundtrip_under_small_budget():
    rng = random.Random(0xB0D9E7)
    for _ in range(1000):
        bits = rng.randrange(2, 257)
        n = rng.getrandbits(bits) * rng.choice((1, -1))
        if n == 0:
            continue
        fac = factorize(n, FactorCache(budget=2000))
        assert fac.value() == n  # exact reconstruction, complete or not
        for p, exp in fac.factors.items():
            assert exp >= 1
            assert is_probable_prime(p)
        if not fac.complete:
            assert fac.cofactor > 1
            assert not is_probable_prime(fac.cofactor)


def test_semiprime_and_prime_paths():
    p = _next_prime(10 ** 8 + 7)
    q = _next_prime(10 ** 8 + 409)
    assert factorize(p * q).factors == {p: 1, q: 1}
    mersenne = 2 ** 89 - 1  # prime
    assert factorize(mersenne).factors == {mersenne: 1}


def _naive_trial_phase(n):
    """Trial division by every prime below the limit, one at a time, up to
    the first p with p*p above what is left: (small factors, survivor)."""
    m = abs(n)
    factors = {}
    for p in primes_below(TRIAL_DIVISION_LIMIT):
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    return factors, m


def test_chunked_trial_division_matches_naive_loop(monkeypatch):
    big_p, big_q = _next_prime(10 ** 8 + 7), _next_prime(10 ** 8 + 409)
    hard_p, hard_q = _next_prime(2 ** 50 + 11), _next_prime(2 ** 50 + 1000)
    # (n, budget, factorization of a composite survivor or None if partial)
    cases = [
        (99991, 10 ** 6, None),
        (99991 ** 2, 10 ** 6, None),
        (2 ** 40, 10 ** 6, None),
        (1, 10 ** 6, None),
        (-1, 10 ** 6, None),
        (-(2 ** 5) * 3 ** 7 * 99991, 10 ** 6, None),
        (313 * 317, 10 ** 6, None),  # two primes of one chunk past the first
        (99989 * 99991, 10 ** 6, None),
        (99989 * 1000003, 10 ** 6, None),
        (-99989 * 1000003, 10 ** 6, None),
        (6 * big_p * big_q, 10 ** 6, {big_p: 1, big_q: 1}),
        (8 * 99991 * hard_p * hard_q, 10, None),
    ]
    # The composites that pass trial division and the primality test, and so
    # reach peeling, the p-1 step and rho.
    past_trial = []
    real_test = factoring.is_probable_prime

    def recording_test(c):
        prime = real_test(c)
        if not prime:
            past_trial.append(c)
        return prime

    monkeypatch.setattr(factoring, "is_probable_prime", recording_test)
    for n, budget, survivor_factors in cases:
        past_trial.clear()
        fac = factorize(n, FactorCache(budget=budget))
        expected, survivor = _naive_trial_phase(n)
        composite = survivor >= TRIAL_DIVISION_LIMIT ** 2 and not is_probable_prime(survivor)
        if survivor > 1 and not composite:
            expected[survivor] = expected.get(survivor, 0) + 1
        elif composite and survivor_factors is not None:
            expected.update(survivor_factors)
        assert fac.sign == (1 if n > 0 else -1)
        assert fac.factors == dict(sorted(expected.items()))
        assert fac.cofactor == (survivor if composite and survivor_factors is None else 1)
        assert past_trial == ([survivor] if composite else [])
        assert fac.value() == n


def test_perfect_power_peeling():
    p = _next_prime(10 ** 12 + 61)
    fac = factorize(p ** 3, FactorCache(budget=10))  # far too small for rho; peeling must act
    assert fac.complete
    assert fac.factors == {p: 3}


def test_peeling_reaches_the_least_root_past_trial_division():
    # 100003 is the least prime above the trial limit, so q0^j is the least
    # j-th power peeling can meet. The order of 2 mod q0 is q0 - 1 = 2*3*7*2381,
    # which does not divide the p-1 exponent, and budget 0 leaves rho nothing.
    q0 = 100_003
    assert q0 == _next_prime(TRIAL_DIVISION_LIMIT)
    for j in factoring._PEEL_EXPONENTS:
        for e in (j, 2 * j):
            fac = factorize(q0 ** e, FactorCache(budget=0))
            assert (fac.factors, fac.cofactor) == ({q0: e}, 1), e


def test_trial_tables_and_pm1_exponent():
    assert list(factoring._TRIAL_PRIMES) == primes_below(TRIAL_DIVISION_LIMIT)
    assert factoring._TRIAL_PRIMES.itemsize == 4
    covered = []
    for first, start, stop, product in factoring._TRIAL_CHUNKS:
        chunk = list(factoring._TRIAL_PRIMES[start:stop])
        assert first == chunk[0] and start == len(covered)
        assert product == math.prod(chunk)
        covered += chunk
    assert covered == primes_below(TRIAL_DIVISION_LIMIT)
    chunks = [chunk for _, block, _ in factoring._TRIAL_BLOCKS for chunk in block]
    assert tuple(chunks) == factoring._TRIAL_CHUNKS
    for first, block, product in factoring._TRIAL_BLOCKS:
        assert first == block[0][0] and 1 <= len(block) <= 8
        assert product == math.prod(chunk[3] for chunk in block)
    assert factoring._PM1_L == math.lcm(*range(1, 2001))


def _trial_edges():
    """The first and last prime of every chunk and of every block."""
    primes, chunks = trial_chunks()
    edges = set()
    for first, _, stop, _ in chunks:
        edges.update((first, primes[min(stop, len(primes)) - 1]))
    for first, block, _ in factoring._TRIAL_BLOCKS:
        edges.update((first, primes[min(block[-1][2], len(primes)) - 1]))
    return sorted(edges)


def test_trial_screen_matches_chunk_loop_on_products_of_trial_primes():
    primes, _ = trial_chunks()
    edges = _trial_edges()
    rng = random.Random(29)
    big = [_next_prime(10 ** 5), _next_prime(10 ** 9), _next_prime(2 ** 64), _next_prime(10 ** 40)]
    for trial in range(3000):
        pool = edges if trial % 2 else primes
        m = 1
        for p in rng.sample(pool, rng.randint(1, 6)):
            m *= p ** rng.choice((1, 1, 1, 2, 3, 7))  # prime powers too
        if trial % 3 == 0:
            m *= rng.choice(big)  # a survivor for peeling, p-1 and rho
        assert factoring._trial_divide(m) == trial_division_reference(m), m
    for p in edges:
        for m in (p, p ** 2, p ** 5, 2 * p, p * big[1], p * big[0] ** 2):
            assert factoring._trial_divide(m) == trial_division_reference(m), m


def test_trial_screen_exits_where_the_chunk_loop_does():
    # m just below and above first^2 for the first prime of every chunk (the
    # blocks' firsts among them), bare or behind small factors.
    _, chunks = trial_chunks()
    for first, _, _, _ in chunks:
        square = first * first
        below = square - 1
        while not is_probable_prime(below):
            below -= 1
        for m in (square - 2, square - 1, square, square + 1, square + 2, below, _next_prime(square)):
            for small in (1, 2, 6, 2 ** 5 * 3 ** 3, first):
                n = m * small
                assert factoring._trial_divide(n) == trial_division_reference(n), n
    assert factoring._trial_divide(1) == ({}, 1)


def _recording_rho(monkeypatch):
    """Patch _brent_rho to record the budget of every call; returns the list."""
    budgets = []
    real_rho = factoring._brent_rho

    def recording_rho(c, budget):
        budgets.append(budget)
        return real_rho(c, budget)

    monkeypatch.setattr(factoring, "_brent_rho", recording_rho)
    return budgets


def test_pm1_step_on_two_smooth_primes_falls_back_to_rho(monkeypatch):
    # p - 1 and q - 1 both divide lcm(1..2000), so 2^L = 1 mod c and the gcd is c itself.
    p, q = 1_000_033, 1_000_037
    assert is_probable_prime(p) and is_probable_prime(q)
    assert factoring._PM1_L % (p - 1) == 0 and factoring._PM1_L % (q - 1) == 0
    budgets = _recording_rho(monkeypatch)
    fac = factorize(p * q, FactorCache(budget=10 ** 5))
    assert fac.complete and fac.factors == {p: 1, q: 1}
    assert budgets == [10 ** 5]


def test_pm1_step_cost_stays_out_of_the_rho_budget(monkeypatch):
    # Safe primes p = 2p' + 1: ord_p(2) is p' or 2p', and the prime p' > 2000 divides no L, so the gcd is 1.
    p, q = 1_000_000_007, 1_000_000_403
    assert all(is_probable_prime(r) and is_probable_prime((r - 1) // 2) for r in (p, q))
    cost = factoring._PM1_L.bit_length()
    budgets = _recording_rho(monkeypatch)
    for budget in (cost + 5, cost, cost - 1):
        budgets.clear()
        fac = factorize(p * q, FactorCache(budget=budget))
        assert budgets == [budget], budget  # the step runs at every budget, and rho gets it all
        assert fac.value() == p * q


def test_peeled_root_goes_through_rho_once(monkeypatch):
    p, q = 1_000_000_007, 1_000_000_403  # safe primes: the p-1 step leaves p*q whole
    budgets = _recording_rho(monkeypatch)
    fac = factorize((p * q) ** 3, FactorCache(budget=100))
    assert budgets == [100]
    assert (fac.factors, fac.cofactor) == ({}, (p * q) ** 3)
    budgets.clear()
    fac = factorize((p * q) ** 3, FactorCache(budget=10 ** 6))
    assert budgets == [10 ** 6]
    assert fac.complete and fac.factors == {p: 3, q: 3}


def test_pm1_step_never_changes_a_complete_result():
    rng = random.Random(0x9E1)
    complete = 0
    for _ in range(40):
        rank = rng.randrange(2, 300)
        n = rng.choice((1, -1))
        primes = []
        for _ in range(rng.randrange(2, 4)):
            if rng.random() < 0.5:
                # rank | p - 1, as for a primitive prime of U_rank with (delta/p) = 1
                p = rank * rng.getrandbits(rng.randrange(12, 24)) + 1
                while not is_probable_prime(p):
                    p += rank
            else:
                p = _next_prime(rng.getrandbits(rng.randrange(17, 31)))
            primes.append(p)
            n *= p
        budget = rng.choice((3_000, 6_000, 30_000))
        fac = factorize(n, FactorCache(budget=budget))
        assert fac.value() == n
        multiplied = dict(sorted(Counter(primes).items()))
        if fac.complete:
            assert fac.factors == multiplied, n
            complete += 1
        else:
            assert all(multiplied.get(p, 0) == e for p, e in fac.factors.items()), n
            assert not is_probable_prime(fac.cofactor), n
    assert complete >= 20


def test_budget_exhaustion_is_partial_not_wrong():
    p = _next_prime(2 ** 50 + 11)
    q = _next_prime(2 ** 50 + 1000)
    n = p * q
    fac = factorize(n, FactorCache(budget=10))
    assert not fac.complete
    assert fac.cofactor == n
    assert fac.value() == n
    full = factorize(n)
    assert full.complete and full.factors == {p: 1, q: 1}


# The composites solve-cold's past-reach calls leave whole at --budget 100000.
_STUCK_COMPOSITES = (
    1044281164032942541,
    19740274219868223167,
    2808114166320660573949,
    676619841275899608114721,
)
# Budgets at and around the batch size, its powers of two, and odd ends.
_RHO_EDGE_BUDGETS = (0, 1, 2, 3, 127, 128, 129, 255, 256, 257, 4097, 30001)


def _seeded_semiprimes():
    """{bits: p*q} for p and q of about half the bits each, bits 20..60."""
    rng = random.Random(0x5EED)
    semiprimes = {}
    for bits in range(20, 61, 4):
        half = bits // 2
        p = _next_prime(rng.getrandbits(half) | 1 << (half - 1))
        q = _next_prime(rng.getrandbits(bits - half) | 1 << (bits - half - 1))
        semiprimes[bits] = p * q
    return semiprimes


def _reference_line_counts(n, budget):
    """How often each source line of brent_rho_reference(n, budget) runs."""
    code = brent_rho_reference.__code__
    source, first = inspect.getsourcelines(brent_rho_reference)
    hits = Counter()

    def count_line(frame, event, arg):
        if event == "line":
            hits[source[frame.f_lineno - first].strip()] += 1
        return count_line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count_line if frame.f_code is code else None)
    try:
        brent_rho_reference(n, budget)
    finally:
        sys.settrace(previous)
    return hits


def _reference_path_composites(budget):
    """(n whose reference run replays a collapsed batch stepwise, n whose run
    moves on to the second increment), the first odd composites below 2^16
    that a seeded draw meets."""
    rng = random.Random(0xC011A)
    replay = second = None
    for _ in range(2000):
        n = rng.randrange(3, 1 << 16) | 1
        if is_probable_prime(n):
            continue
        hits = _reference_line_counts(n, budget)
        if replay is None and hits["ys = (ys * ys + c) % n"]:
            replay = n
        if second is None and hits["y, r, q = 2, 1, 1"] >= 2:
            second = n
        if replay and second:
            return replay, second
    raise AssertionError("the seeded draw met no composite on one of the two paths")


def test_brent_rho_matches_the_reduce_every_step_reference():
    """Four differences per reduction of the gcd product return exactly what
    reducing it every step returns: the factor, the replay and the exhaustion
    point. One step below the first budget that finds a factor must still
    fail, so ``--budget`` counts sequence steps."""
    replay, second = _reference_path_composites(4097)
    cases = [(n, budget) for n in _STUCK_COMPOSITES for budget in (100_000, 7, 129)]
    semiprimes = _seeded_semiprimes()
    cases += [(n, budget) for n in semiprimes.values() for budget in _RHO_EDGE_BUDGETS]
    for bits in (24, 28, 36):
        n = semiprimes[bits]
        smallest = next(b for b in itertools.count() if brent_rho_reference(n, b) is not None)
        cases += [(n, smallest - 1), (n, smallest)]
    cases += [(replay, 4097), (second, 4097)]
    rng = random.Random(0x2E0)  # small odd composites, where replays and restarts are common
    odd = (rng.randrange(9, 1 << rng.randrange(8, 41)) | 1 for _ in range(700))
    cases += [(n, rng.choice(_RHO_EDGE_BUDGETS)) for n in odd if not is_probable_prime(n)]
    for n, budget in cases:
        assert factoring._brent_rho(n, budget) == brent_rho_reference(n, budget), (n, budget)


def test_factorize_is_deterministic():
    p = _next_prime(10 ** 7 + 19)
    q = _next_prime(10 ** 7 + 79)
    first = factorize(p * q, FactorCache(budget=10 ** 6))
    second = factorize(p * q, FactorCache(budget=10 ** 6))
    assert first.factors == second.factors
    assert first.cofactor == second.cofactor


def test_power_free_part_against_oracles():
    rng = random.Random(0x9F3E)
    for _ in range(400):
        n = rng.randrange(2, 10 ** 6) * rng.choice((1, -1))
        k = rng.choice((2, 3, 4, 5))
        e, s = power_free_part(n, k)
        assert e * s ** k == n
        assert (e, s) == power_free_by_scan(n, k)
        assert (e, s) == kth_power_free_part(n, k)


def test_power_free_part_known_values():
    assert power_free_part(144, 2) == (1, 12)
    assert power_free_part(8, 3) == (1, 2)
    assert power_free_part(-18, 2) == (-2, 3)
    assert power_free_part(5, 2) == (5, 1)
    for bad_k in (1, 0, -2):
        with pytest.raises(ValueError):
            power_free_part(10, bad_k)


def test_power_free_part_rejects_bad_k_before_factoring(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factorize called")

    monkeypatch.setattr(factoring, "factorize", refuse)
    path = tmp_path / "untouched.cache"
    for bad_k in (1, 0, -2):
        with pytest.raises(ValueError, match=f"k must be >= 2, got {bad_k}"):
            power_free_part(2 ** 40 * 3, bad_k, cache=FactorCache(str(path)))
    assert not path.exists()


def test_power_free_split_of_a_factorization_matches_power_free_part():
    for n in (144, 8, -18, 5, -(2 ** 7 * 3 ** 2 * 5 * 7 ** 4), 1, -1):
        for k in (2, 3, 4):
            e, s = factorize(n).power_free(k)
            assert (e.value(), s.value()) == power_free_part(n, k)
            assert e.value() * s.value() ** k == n
    with pytest.raises(ValueError, match="k must be >= 2, got 1"):
        factorize(10).power_free(1)


# A cache file holds only |N| >= 10^10; below that trial division settles N at once.
# U_60 of Fibonacci is one such N, and 12 * 10^10 and 30 * 10^10 are two more.
U60, U60_RECORD = 1548008755920, "1548008755920 1 2^4 3^2 5^1 11^1 31^1 41^1 61^1 2521^1"
N12, N12_RECORD = 12 * 10 ** 10, "120000000000 1 2^12 3^1 5^10"
N30, N30_RECORD = 30 * 10 ** 10, "300000000000 1 2^11 3^1 5^11"


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "factors.cache")
    cache = FactorCache(path)
    n = -8640 * 10 ** 10
    fac = factorize(n, cache=cache)
    assert factorize(36 * 10 ** 11, cache=cache).factors == {2: 13, 3: 2, 5: 11}
    reloaded = FactorCache(path)
    hit = reloaded.get(n)
    assert len(reloaded) == len(cache) == 2
    assert hit is not None and hit.factors == fac.factors and hit.sign == -1
    # get() hands out copies; mutating one must not poison the store
    hit.factors[999983] = 5
    assert reloaded.get(n).factors == fac.factors


def test_cache_file_holds_only_what_trial_division_cannot_settle(tmp_path):
    path = tmp_path / "edge.cache"
    cache = FactorCache(str(path))
    below = 10 ** 10 - 1
    for n in (below, -below, 10 ** 10, -(10 ** 10)):
        factorize(n, cache=cache)
    # All four are kept in memory; only the two at the threshold reach the file.
    assert len(cache) == 4
    assert path.read_text(encoding="ascii") == "10000000000 1 2^10 5^10\n-10000000000 -1 2^10 5^10\n"
    # A corrupt record below the threshold is never read, and the file is never rewritten.
    path.write_text(f"{below} 1 3^1\n", encoding="ascii")
    fresh = FactorCache(str(path))
    assert fresh.get(below) is None
    assert factorize(below, cache=fresh) == factorize(below)
    assert path.read_text(encoding="ascii") == f"{below} 1 3^1\n"
    # A cache that needs no record of 10^10 or more never opens its file.
    directory = FactorCache(str(tmp_path))
    assert factorize(below, cache=directory).complete
    with pytest.raises(OSError):  # the first lookup of 10^10 or more opens it
        directory.get(10 ** 10)


def test_cache_skips_partial_results(tmp_path):
    p = _next_prime(2 ** 50 + 11)
    q = _next_prime(2 ** 50 + 1000)
    path = tmp_path / "partial.cache"
    cache = FactorCache(str(path), budget=10)
    fac = factorize(p * q, cache)
    assert not fac.complete
    cache.add(p * q, fac)
    assert cache.get(p * q) is None
    assert len(cache) == 0
    assert not path.exists()


def test_cache_rejects_malformed_lines(tmp_path):
    bad = tmp_path / "bad.cache"
    bad.write_text(f"{U60_RECORD}\nnot a line\n12 1 2^2 3^1\n")
    cache = FactorCache(str(bad))  # the file is indexed on the first lookup that needs it
    assert cache.get(12) is None and factorize(12, cache=cache).factors == {2: 2, 3: 1}
    for _ in range(2):  # the file stays unindexed, so every access raises
        with pytest.raises(ValueError, match="bad.cache:2: malformed cache line"):
            cache.get(U60)
    with pytest.raises(ValueError, match="bad.cache:2: malformed cache line"):
        cache.add(N12, factorize(N12))
    wrong = tmp_path / "wrong.cache"
    wrong.write_text("10000000010 1 3^1\n10 1 3^1\n")  # parse but do not reconstruct their N
    cache = FactorCache(str(wrong))
    with pytest.raises(ValueError, match="wrong.cache:1: record does not reconstruct 10000000010"):
        cache.get(10000000010)
    assert cache.get(10) is None  # below 10^10: never read


@pytest.mark.parametrize(
    "record, complaint",
    [
        (f"{U60} 3 2^4 3^1 5^1 11^1 31^1 41^1 61^1 2521^1", "sign 3"),  # 3 * U60/3 reconstructs U60
        (f"{U60} 1 {U60}^1 2^0", "exponent 0"),
        (f"{U60} 1 1^3 {U60}^1", "base 1"),
        (f"{U60} 1 2^2 2^2 3^2 5^1 11^1 31^1 41^1 61^1 2521^1", "prime 2 is repeated"),  # a dict keeps one 2^2
        (f"{U60} 1 16^1 3^2 5^1 11^1 31^1 41^1 61^1 2521^1", "base 16 is not prime"),
        ("10002200057 1 10002200057^1", "base 10002200057 is not prime"),  # 100003 * 100019
        ("10001599943 1 99997^1 100019^1", "base 99997 is not prime"),  # 19 * 5263, above the last trial prime
        (f"{U60} 1 2^1000000000000", "exceeds"),  # refused before the power is taken
    ],
    ids=[
        "sign", "exponent", "base", "repeated-prime", "composite-base", "composite-base-above-trial-limit",
        "composite-base-near-trial-limit", "huge-exponent",
    ],
)
def test_cache_rejects_corrupt_records(tmp_path, record, complaint):
    path = tmp_path / "corrupt.cache"
    path.write_text(f"{N12_RECORD}\n{record}\n", encoding="ascii")
    cache = FactorCache(str(path))
    n = int(record.split()[0])
    # The record is never used: the first read raises, and so does every later one.
    with pytest.raises(ValueError, match=f"corrupt.cache:2: .*{complaint}"):
        cache.get(n)
    with pytest.raises(ValueError, match=f"corrupt.cache:2: .*{complaint}"):
        factorize(n, cache=cache)
    assert cache.get(N12).factors == {2: 12, 3: 1, 5: 10}


def test_cache_checks_primes_of_read_records_only(tmp_path, monkeypatch):
    path = tmp_path / "lazy.cache"
    big = [_next_prime(10 ** 10 + 1000 * i) for i in range(4)]
    text = "".join(f"{p} 1 {p}^1\n" for p in big) + f"{N12_RECORD}\n6 1 2^1 3^1\n"
    path.write_text(text, encoding="ascii")
    tested = []
    real = factoring.is_probable_prime

    def counting(n):
        tested.append(n)
        return real(n)

    monkeypatch.setattr(factoring, "is_probable_prime", counting)
    cache = FactorCache(str(path))
    assert tested == [] and len(cache) == 0  # not indexed yet
    assert cache.get(big[2]).factors == {big[2]: 1}
    assert len(cache) == 5  # the record of 6 is not indexed
    assert cache.get(big[2]).factors == {big[2]: 1}  # the parsed copy, not a second check
    assert cache.get(N12).factors == {2: 12, 3: 1, 5: 10}  # bases below 10^5 are looked up in the trial primes
    assert cache.get(6) is None
    assert tested == [big[2]]


def test_cache_appends_and_counts_each_new_record_once(tmp_path):
    path = tmp_path / "grow.cache"
    path.write_text(f"{N12_RECORD}\n", encoding="ascii")
    cache = FactorCache(str(path))
    cache.add(N12, factorize(N12))  # an unread record counts as present
    assert len(cache) == 1
    for n, size in ((N12, 1), (N30, 2), (N30, 2), (-7 * 10 ** 10, 3), (30, 4), (30, 4)):
        factorize(n, cache=cache)
        assert len(cache) == size
    # 30 is kept in memory only.
    text = f"{N12_RECORD}\n{N30_RECORD}\n-70000000000 -1 2^10 5^10 7^1\n"
    assert path.read_text(encoding="ascii") == text
    reloaded = FactorCache(str(path))
    assert reloaded.get(N30).factors == {2: 11, 3: 1, 5: 11}
    assert len(reloaded) == 3
    assert (reloaded.get(-7 * 10 ** 10).sign, reloaded.get(-7 * 10 ** 10).factors) == (-1, {2: 10, 5: 10, 7: 1})
    assert reloaded.get(30) is None


def test_cache_appends_after_a_last_line_without_newline(tmp_path):
    path = tmp_path / "open.cache"
    path.write_text(N12_RECORD, encoding="ascii")
    factorize(N30, cache=FactorCache(str(path)))
    assert path.read_text(encoding="ascii") == f"{N12_RECORD}\n{N30_RECORD}\n"
    reloaded = FactorCache(str(path))
    assert reloaded.get(N12).factors == {2: 12, 3: 1, 5: 10}
    assert reloaded.get(N30).factors == {2: 11, 3: 1, 5: 11}


def test_cache_last_record_of_a_repeated_n_wins(tmp_path):
    path = tmp_path / "twice.cache"
    path.write_text(f"10000000000 1 3^1\n{N12_RECORD}\n10000000000 1 2^10 5^10\n", encoding="ascii")
    assert FactorCache(str(path)).get(10 ** 10).factors == {2: 10, 5: 10}
    path.write_text("10000000000 1 2^10 5^10\n10000000000 1 3^1\n", encoding="ascii")
    with pytest.raises(ValueError, match="twice.cache:2: record does not reconstruct 10000000000"):
        FactorCache(str(path)).get(10 ** 10)


def test_cache_keys_any_spelling_of_n_by_its_value(tmp_path):
    # Leading zeros, a plus sign, a tab, leading blanks and CRLF all name the
    # same N as its canonical digits, and the last line still wins.
    path = tmp_path / "spelled.cache"
    text = (
        f"+00{N12_RECORD}\n{N30}\t1 2^11 3^1 5^11\r\n  10000000000 1 3^1\n"
        f"{U60_RECORD}\n0010000000000 1 2^10 5^10\n-{N12} -1 2^12 3^1 5^10\n"
    )
    path.write_text(text, encoding="ascii")
    cache = FactorCache(str(path))
    assert cache.get(N12).factors == {2: 12, 3: 1, 5: 10}
    assert cache.get(N30).factors == {2: 11, 3: 1, 5: 11}
    assert cache.get(10 ** 10).factors == {2: 10, 5: 10}
    assert cache.get(-N12).sign == -1
    assert len(cache) == 5
    cache.add(U60, factorize(U60))  # an unread record counts as present
    assert path.read_text(encoding="ascii") == text.replace("\r\n", "\n")


def test_power_free_part_writes_derived_records_once(tmp_path):
    path = tmp_path / "derived.cache"
    cache = FactorCache(str(path))
    # n, e and s below 10^10 stay in memory.
    assert power_free_part(-(2 ** 7 * 3 ** 2 * 5 * 7 ** 4), 3, cache=cache) == (-(2 * 3 ** 2 * 5 * 7), 2 ** 2 * 7)
    assert len(cache) == 3 and not path.exists()
    e = -(2 * 3 ** 2 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29)
    s = 2 ** 17 * 7 ** 6
    n = e * s ** 3
    assert power_free_part(n, 3, cache=cache) == (e, s)
    assert power_free_part(n, 3) == (e, s)
    e_fac, s_fac = cache.get(e), cache.get(s)
    odd = "11^1 13^1 17^1 19^1 23^1 29^1"
    e_primes = {2: 1, 3: 2, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1, 23: 1, 29: 1}
    assert (e_fac.sign, e_fac.factors, e_fac.cofactor) == (-1, e_primes, 1)
    assert (s_fac.sign, s_fac.factors, s_fac.cofactor) == (1, {2: 17, 7: 6}, 1)
    # e and s reach the file after n, each once, like any complete record.
    text = f"{n} -1 2^52 3^2 5^1 7^19 {odd}\n{e} -1 2^1 3^2 5^1 7^1 {odd}\n{s} 1 2^17 7^6\n"
    assert path.read_text(encoding="ascii") == text
    assert power_free_part(n, 3, cache=cache) == (e, s)
    assert power_free_part(n, 3, cache=FactorCache(str(path))) == (e, s)
    assert path.read_text(encoding="ascii") == text
    reloaded = FactorCache(str(path))
    assert (reloaded.get(e), reloaded.get(s), len(reloaded)) == (e_fac, s_fac, 3)
