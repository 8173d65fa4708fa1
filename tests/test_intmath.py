"""Primality and the Jacobi symbol against the oracles in _oracles.py."""

import math
import random

import pytest

from _oracles import (
    MR_BASES_13,
    PSI_13,
    exact_quotient_root,
    legendre_by_euler,
    miller_rabin_13,
    miller_rabin_40,
    primes_below,
    strong_probable_prime_reference,
    trial_factorize,
)
from lucasprod.factoring import factorize
from lucasprod.intmath import (
    _MR_BASES_64,
    _MR_DETERMINISTIC_LIMIT,
    _MR_SINCLAIR_BASES,
    _MR_TIERS,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    is_probable_prime,
    jacobi,
    kronecker_at_prime,
    perfect_kth_power_root,
)

# psi_12: the least strong pseudoprime to the first 12 prime bases, below psi_13.
PSI_12 = 318665857834031151167461


def test_psi12_is_composite():
    assert PSI_12 < _MR_DETERMINISTIC_LIMIT
    assert all(_strong_probable_prime(PSI_12, b) for b in primes_below(41))
    assert not is_probable_prime(PSI_12)
    assert factorize(PSI_12).factors == {399165290221: 1, 798330580441: 1}


@pytest.mark.parametrize("exponent", [83, 101, 103, 109, 137, 139, 149, 167, 197, 199])
def test_composite_mersenne_numbers_fail_the_lucas_half(exponent):
    n = 2 ** exponent - 1
    assert n > _MR_DETERMINISTIC_LIMIT
    assert _strong_probable_prime(n, 2)  # 2^p = 1 mod n, so base 2 cannot reject
    assert not is_probable_prime(n)


@pytest.mark.parametrize("exponent", [89, 107, 127, 521, 607])
def test_mersenne_primes_are_accepted(exponent):
    assert is_probable_prime(2 ** exponent - 1)


def test_lucas_half_rejects_a_square():
    # A square has no P with (P^2 - 4 / n) = -1, so the search for P never ends unless squares go first.
    assert not _strong_lucas_probable_prime((2 ** 89 - 1) ** 2)


def test_agrees_with_forty_base_test_above_the_limit():
    rng = random.Random(14)
    for _ in range(5000):
        n = rng.randrange(_MR_DETERMINISTIC_LIMIT, 2 ** 200) | 1
        assert is_probable_prime(n) == miller_rabin_40(n), n


def _random_prime(rng, bits):
    n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    while not miller_rabin_40(n):
        n += 2
    return n


def test_agrees_with_forty_base_test_on_semiprimes():
    rng = random.Random(41)
    for _ in range(1000):
        n = _random_prime(rng, rng.randint(40, 120)) * _random_prime(rng, rng.randint(40, 120))
        assert not is_probable_prime(n) and not miller_rabin_40(n), n


# psi_k, the least strong pseudoprime to the first k prime bases (OEIS A014233).
PSI = {
    1: 2_047,
    2: 1_373_653,
    3: 25_326_001,
    4: 3_215_031_751,
    5: 2_152_302_898_747,
    6: 3_474_749_660_383,
    7: 341_550_071_728_321,
    8: 341_550_071_728_321,
    9: 3_825_123_056_546_413_051,
    10: 3_825_123_056_546_413_051,
    11: 3_825_123_056_546_413_051,
    12: 318_665_857_834_031_151_167_461,
    13: PSI_13,
}


@pytest.mark.parametrize("k", sorted(PSI))
def test_each_psi_passes_exactly_the_bases_it_should(k):
    # psi_k passes the first j prime bases for the largest j with psi_j = psi_k,
    # and fails the next prime, which also proves it composite.
    j = max(i for i in PSI if PSI[i] == PSI[k])
    bases = primes_below(50)
    assert all(strong_probable_prime_reference(PSI[k], b) for b in bases[:j])
    assert not strong_probable_prime_reference(PSI[k], bases[j])


def test_tiers_are_the_psi_table_and_sinclair_below_2_64():
    assert _MR_TIERS == ((2 ** 64, _MR_SINCLAIR_BASES), (PSI_13, MR_BASES_13))
    assert _MR_BASES_64 == MR_BASES_13 and _MR_DETERMINISTIC_LIMIT == PSI_13
    # Every psi_k below 2^64 passes the first k prime bases, and must fail Sinclair's.
    for k in range(1, 12):
        assert PSI[k] < 2 ** 64
        assert not all(strong_probable_prime_reference(PSI[k], b) for b in _MR_SINCLAIR_BASES), k


def test_matches_the_sieve_below_2_18():
    primes = set(primes_below(2 ** 18))
    assert [n for n in range(2 ** 18) if is_probable_prime(n) != (n in primes)] == []


def _divisors(n):
    divisors = [1]
    for p, e in trial_factorize(n).items():
        divisors = [d * p ** i for d in divisors for i in range(e + 1)]
    return divisors


def test_odd_divisors_of_sinclair_bases_are_decided_by_the_other_bases():
    # A base that n divides is no witness either way, so primes such as 73 | 28178
    # pass it, and composites such as 14089 = 73 * 193 must fail another base.
    numbers = sorted({d for b in _MR_SINCLAIR_BASES for d in _divisors(b) if d % 2 and d > 41})
    assert len(numbers) == 32 and {73, 193, 14089, 407521, 299210837} <= set(numbers)
    for n in numbers:
        assert is_probable_prime(n) == (trial_factorize(n) == {n: 1}), n


def _reference(n):
    return miller_rabin_13(n) if n < PSI_13 else miller_rabin_40(n)


@pytest.mark.parametrize("k", sorted(PSI))
def test_matches_thirteen_base_test_at_each_psi(k):
    for n in range(PSI[k] - 2, PSI[k] + 3):
        assert is_probable_prime(n) == _reference(n), n
    assert not is_probable_prime(PSI[k])


def _carmichael_numbers(rng):
    """Small Carmichael numbers, and Chernick's (6t+1)(12t+1)(18t+1) with all three prime."""
    found = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657, 52633, 62745, 63973]
    for bits in range(4, 30, 2):
        t = rng.getrandbits(bits) | (1 << (bits - 1))
        while not all(miller_rabin_40(f * t + 1) for f in (6, 12, 18)):
            t += 1
        found.append((6 * t + 1) * (12 * t + 1) * (18 * t + 1))
    return found


def test_matches_thirteen_base_test_on_carmichael_numbers():
    numbers = _carmichael_numbers(random.Random(561))
    assert max(numbers) > PSI_13  # every tier, and Baillie-PSW above them
    for n in numbers:
        assert not is_probable_prime(n) and not _reference(n), n


def _next_reference_prime(n):
    while not miller_rabin_13(n):
        n += 1
    return n


# Size ranges that end at psi_1 .. psi_7, 2^64, psi_12 and psi_13, so that
# small n is sampled as densely as n near the top of each Miller-Rabin row.
_SAMPLED_LIMITS = [PSI[k] for k in range(1, 8)] + [2 ** 64, PSI[12], PSI[13]]


def test_matches_thirteen_base_test_in_every_tier():
    # Per range: random odd n, primes, which must pass every base of their row,
    # and q(2q - 1) with both prime, whose strong liars are a quarter of all bases.
    rng = random.Random(13)
    low = 3
    for limit in _SAMPLED_LIMITS:
        numbers = [rng.randrange(low, limit) | 1 for _ in range(200)]
        primes = [_next_reference_prime(rng.randrange(low, limit - limit // 4)) for _ in range(50)]
        hard = []
        while len(hard) < 20:
            q = _next_reference_prime(rng.randrange(math.isqrt(low // 2), math.isqrt(limit // 2)))
            if miller_rabin_13(2 * q - 1) and low <= q * (2 * q - 1) < limit:
                hard.append(q * (2 * q - 1))
        assert all(low <= p < limit for p in primes)
        for n in numbers + primes + hard:
            assert is_probable_prime(n) == miller_rabin_13(n), n
        low = limit


def test_perfect_kth_power_root_matches_the_root_oracle():
    rng = random.Random(2000)
    roots = list(range(301)) + [rng.getrandbits(2000) | 1 << 1999 for _ in range(3)]
    for k in range(1, 8):
        for r in roots:
            for m in {0, 1, r ** k - 1, r ** k, r ** k + 1}:
                for n in (m, -m):
                    # exact_quotient_root with a = 1 is int_root's exact root, None for n < 0 at even k.
                    assert perfect_kth_power_root(n, k) == exact_quotient_root(n, 1, k), (n, k)
    assert perfect_kth_power_root(-(7 ** 40), 2) is None and perfect_kth_power_root(-(7 ** 39), 3) == -(7 ** 13)
    with pytest.raises(ValueError):
        perfect_kth_power_root(4, 0)


def test_kronecker_at_prime_is_euler_criterion_at_odd_primes():
    for p in primes_below(3000)[1:]:
        for a in range(-60, 60):
            assert kronecker_at_prime(a, p) == legendre_by_euler(a, p), (a, p)


def test_jacobi_is_the_product_of_legendre_symbols():
    for n in range(1, 400, 2):
        factors = trial_factorize(n).items()
        for a in range(-30, 30):
            assert jacobi(a, n) == math.prod(legendre_by_euler(a, p) ** e for p, e in factors), (a, n)
    with pytest.raises(ValueError):
        jacobi(3, 10)
