"""Factorization pipeline: trial division, Brent rho, power peeling, cache."""

import math
import random

import pytest

from lucasprod import (
    FactorCache,
    ZeroInput,
    factoring,
    factorize,
    power_free_part,
)
from lucasprod.factoring import TRIAL_DIVISION_LIMIT
from lucasprod.intmath import is_probable_prime, primes_below

from _oracles import kth_power_free_part, power_free_by_scan, trial_factorize


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
    with pytest.raises(ZeroInput):
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
    handed_to_rho = []
    real_rho = factoring._brent_rho

    def recording_rho(c, budget):
        handed_to_rho.append(c)
        return real_rho(c, budget)

    monkeypatch.setattr(factoring, "_brent_rho", recording_rho)
    for n, budget, survivor_factors in cases:
        handed_to_rho.clear()
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
        assert handed_to_rho == ([survivor] if composite else [])
        assert fac.value() == n


def test_perfect_power_peeling():
    p = _next_prime(10 ** 12 + 61)
    fac = factorize(p ** 3, FactorCache(budget=10))  # far too small for rho; peeling must act
    assert fac.complete
    assert fac.factors == {p: 3}


def test_pm1_exponent_is_lcm_of_1_to_2000():
    assert factoring._PM1_L == math.lcm(*range(1, 2001))


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
    fac = factorize(p * q, FactorCache(budget=10 ** 5), rank=1)
    assert fac.complete and fac.factors == {p: 1, q: 1}
    assert budgets == [10 ** 5 - factoring._PM1_L.bit_length()]


def test_pm1_step_cost_comes_out_of_the_rho_budget(monkeypatch):
    # Safe primes p = 2p' + 1: ord_p(2) is p' or 2p', and the prime p' > 2000 divides no 7 * L, so the gcd is 1.
    p, q = 1_000_000_007, 1_000_000_403
    assert all(is_probable_prime(r) and is_probable_prime((r - 1) // 2) for r in (p, q))
    cost = (7 * factoring._PM1_L).bit_length()
    budgets = _recording_rho(monkeypatch)
    for budget, rho_budget in ((cost + 5, 5), (cost, 0), (cost - 1, cost - 1)):
        budgets.clear()
        fac = factorize(p * q, FactorCache(budget=budget), rank=7)
        assert budgets == [rho_budget], budget  # below the cost, the step is skipped
        assert fac.value() == p * q


def test_rank_hint_never_changes_a_complete_result():
    rng = random.Random(0x9E1)
    compared = 0
    for _ in range(40):
        rank = rng.randrange(2, 300)
        n = rng.choice((1, -1))
        for _ in range(rng.randrange(2, 4)):
            if rng.random() < 0.5:
                # rank | p - 1, as for a primitive prime of U_rank with (delta/p) = 1
                p = rank * rng.getrandbits(rng.randrange(12, 24)) + 1
                while not is_probable_prime(p):
                    p += rank
            else:
                p = _next_prime(rng.getrandbits(rng.randrange(17, 31)))
            n *= p
        budget = rng.choice((3_000, 6_000, 30_000))
        bare = factorize(n, FactorCache(budget=budget))
        for hint in (rank, rng.randrange(2, 10 ** 6), 0):
            hinted = factorize(n, FactorCache(budget=budget), rank=hint)
            assert hinted.value() == n
            if hinted.complete and bare.complete:
                assert hinted == bare, (n, hint)
                compared += 1
    assert compared >= 60


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
        dec = power_free_part(n, k)
        assert dec.e * dec.s ** k == n
        assert (dec.e, dec.s) == power_free_by_scan(n, k)
        assert (dec.e, dec.s) == kth_power_free_part(n, k)


def test_power_free_part_known_values():
    assert (power_free_part(144, 2).e, power_free_part(144, 2).s) == (1, 12)
    assert (power_free_part(8, 3).e, power_free_part(8, 3).s) == (1, 2)
    assert (power_free_part(-18, 2).e, power_free_part(-18, 2).s) == (-2, 3)
    assert (power_free_part(5, 2).e, power_free_part(5, 2).s) == (5, 1)
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
            assert (e.value(), s.value()) == (power_free_part(n, k).e, power_free_part(n, k).s)
            assert e.value() * s.value() ** k == n
    with pytest.raises(ValueError, match="k must be >= 2, got 1"):
        factorize(10).power_free(1)


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "factors.cache")
    cache = FactorCache(path)
    fac = factorize(-8640, cache=cache)
    assert factorize(360, cache=cache).factors == {2: 3, 3: 2, 5: 1}
    reloaded = FactorCache(path)
    assert len(reloaded) == len(cache)
    hit = reloaded.get(-8640)
    assert hit is not None and hit.factors == fac.factors and hit.sign == -1
    # get() hands out copies; mutating one must not poison the store
    hit.factors[999983] = 5
    assert reloaded.get(-8640).factors == fac.factors


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
    bad.write_text("12 1 2^2 3^1\nnot a line\n")
    with pytest.raises(ValueError, match="bad.cache:2: malformed cache line"):
        FactorCache(str(bad))
    wrong = tmp_path / "wrong.cache"
    wrong.write_text("10 1 3^1\n")  # parses but does not reconstruct 10
    cache = FactorCache(str(wrong))
    with pytest.raises(ValueError, match="wrong.cache:1: record does not reconstruct 10"):
        cache.get(10)


@pytest.mark.parametrize(
    "record, complaint",
    [
        ("6 3 2^1", "sign 3"),  # 3 * 2 reconstructs 6
        ("15 1 15^1 2^0", "exponent 0"),
        ("5 1 1^3 5^1", "base 1"),
        ("4 1 2^2 2^2", "prime 2 is repeated"),  # a dict would keep one 2^2
        ("8 1 8^1", "base 8 is not prime"),
        ("10002200057 1 10002200057^1", "base 10002200057 is not prime"),  # 100003 * 100019
    ],
    ids=["sign", "exponent", "base", "repeated-prime", "composite-base", "composite-base-above-trial-limit"],
)
def test_cache_rejects_corrupt_records(tmp_path, record, complaint):
    path = tmp_path / "corrupt.cache"
    path.write_text(f"12 1 2^2 3^1\n{record}\n", encoding="ascii")
    cache = FactorCache(str(path))
    n = int(record.split()[0])
    # The record is never used: the first read raises, and so does every later one.
    with pytest.raises(ValueError, match=f"corrupt.cache:2: .*{complaint}"):
        cache.get(n)
    with pytest.raises(ValueError, match=f"corrupt.cache:2: .*{complaint}"):
        factorize(n, cache=cache)
    assert cache.get(12).factors == {2: 2, 3: 1}


def test_cache_checks_primes_of_read_records_only(tmp_path, monkeypatch):
    path = tmp_path / "lazy.cache"
    big = [_next_prime(10 ** 6 + 1000 * i) for i in range(4)]
    path.write_text("".join(f"{p} 1 {p}^1\n" for p in big) + "6 1 2^1 3^1\n", encoding="ascii")
    tested = []
    real = factoring.is_probable_prime

    def counting(n):
        tested.append(n)
        return real(n)

    monkeypatch.setattr(factoring, "is_probable_prime", counting)
    cache = FactorCache(str(path))
    assert tested == [] and len(cache) == 5
    assert cache.get(big[2]).factors == {big[2]: 1}
    assert cache.get(big[2]).factors == {big[2]: 1}  # the parsed copy, not a second check
    assert cache.get(6).factors == {2: 1, 3: 1}  # bases below 10^5 use the sieve
    assert tested == [big[2]]


def test_cache_appends_and_counts_each_new_record_once(tmp_path):
    path = tmp_path / "grow.cache"
    path.write_text("12 1 2^2 3^1\n", encoding="ascii")
    cache = FactorCache(str(path))
    cache.add(12, factorize(12))  # an unread record counts as present
    assert len(cache) == 1
    for n, size in ((12, 1), (30, 2), (30, 2), (-7, 3)):
        factorize(n, cache=cache)
        assert len(cache) == size
    assert path.read_text(encoding="ascii") == "12 1 2^2 3^1\n30 1 2^1 3^1 5^1\n-7 -1 7^1\n"
    reloaded = FactorCache(str(path))
    assert len(reloaded) == 3
    assert reloaded.get(30).factors == {2: 1, 3: 1, 5: 1}
    assert (reloaded.get(-7).sign, reloaded.get(-7).factors) == (-1, {7: 1})


def test_cache_appends_after_a_last_line_without_newline(tmp_path):
    path = tmp_path / "open.cache"
    path.write_text("12 1 2^2 3^1", encoding="ascii")
    factorize(30, cache=FactorCache(str(path)))
    assert path.read_text(encoding="ascii") == "12 1 2^2 3^1\n30 1 2^1 3^1 5^1\n"
    reloaded = FactorCache(str(path))
    assert reloaded.get(12).factors == {2: 2, 3: 1}
    assert reloaded.get(30).factors == {2: 1, 3: 1, 5: 1}


def test_cache_last_record_of_a_repeated_n_wins(tmp_path):
    path = tmp_path / "twice.cache"
    path.write_text("10 1 3^1\n12 1 2^2 3^1\n10 1 2^1 5^1\n", encoding="ascii")
    assert FactorCache(str(path)).get(10).factors == {2: 1, 5: 1}
    path.write_text("10 1 2^1 5^1\n10 1 3^1\n", encoding="ascii")
    with pytest.raises(ValueError, match="twice.cache:2: record does not reconstruct 10"):
        FactorCache(str(path)).get(10)


def test_power_free_part_keeps_derived_records_in_memory(tmp_path):
    path = tmp_path / "derived.cache"
    cache = FactorCache(str(path))
    n = -(2 ** 7 * 3 ** 2 * 5 * 7 ** 4)
    dec = power_free_part(n, 3, cache=cache)
    assert (dec.e, dec.s) == (-(2 * 3 ** 2 * 5 * 7), 2 ** 2 * 7)
    assert power_free_part(n, 3) == dec
    e_fac, s_fac = cache.get(dec.e), cache.get(dec.s)
    assert (e_fac.sign, e_fac.factors, e_fac.cofactor) == (-1, {2: 1, 3: 2, 5: 1, 7: 1}, 1)
    assert (s_fac.sign, s_fac.factors, s_fac.cofactor) == (1, {2: 2, 7: 1}, 1)
    # Only what factorize computed reaches the file.
    assert path.read_text(encoding="ascii") == f"{n} -1 2^7 3^2 5^1 7^4\n"
    assert len(FactorCache(str(path))) == 1
