"""Primality and the Jacobi symbol against the oracles in _oracles.py."""

import math
import random

import pytest

from _oracles import legendre_by_euler, miller_rabin_40, primes_below, trial_factorize
from lucasprod.factoring import factorize
from lucasprod.intmath import (
    _MR_DETERMINISTIC_LIMIT,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    is_probable_prime,
    jacobi,
    kronecker_at_prime,
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
