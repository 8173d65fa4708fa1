"""Factorization pipeline: trial division, Brent rho, power peeling, cache."""

import random

import pytest

from lucasprod import (
    FactorCache,
    NotPrime,
    ZeroInput,
    factoring,
    factorize,
    power_free_part,
    valuation,
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


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(48, 5) == 0
    assert valuation(-48, 2) == 4
    with pytest.raises(ZeroInput):
        valuation(0, 2)
    with pytest.raises(NotPrime):
        valuation(10, 4)
    rng = random.Random(0x7A1)
    for _ in range(100):
        n = rng.randrange(1, 10 ** 9)
        p = rng.choice((2, 3, 5, 7, 11, 13))
        v = valuation(n, p)
        assert n % p ** v == 0 and n % p ** (v + 1) != 0


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
    cache = FactorCache(str(tmp_path / "partial.cache"), budget=10)
    fac = factorize(p * q, cache)
    assert not fac.complete
    assert cache.get(p * q) is None
    assert len(cache) == 0


def test_cache_rejects_malformed_lines(tmp_path):
    bad = tmp_path / "bad.cache"
    bad.write_text("12 1 2^2 3^1\nnot a line\n")
    with pytest.raises(ValueError):
        FactorCache(str(bad))
    wrong = tmp_path / "wrong.cache"
    wrong.write_text("10 1 3^1\n")  # parses but does not reconstruct 10
    with pytest.raises(ValueError):
        FactorCache(str(wrong))


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
    with pytest.raises(ValueError, match=f"corrupt.cache:2: .*{complaint}"):
        FactorCache(str(path))


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
