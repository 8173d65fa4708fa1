"""Admissible sets, clique enumeration, and certificate verification."""

import math
import random
import tracemalloc

import pytest

from lucasprod import (
    ClassMismatch,
    FactorCache,
    IncompleteFactorization,
    NegativeQuotientEvenK,
    NotDivisible,
    NotKthPower,
    NotPairwiseCoprime,
    ProductEquation,
    SeparationLawViolation,
    VerificationError,
    admissible_indices,
    enumerate_solutions,
    factoring,
    lucas_u,
    primitive,
    validate_params,
    verify_solution,
)

from lucasprod.lucas import DEFAULT_INDEX_CAP
from lucasprod.solver import _valuation_table

from _oracles import brute_solutions


def _eq(params, a, k, n_max, r_max):
    return ProductEquation(params=params, a=a, k=k, max_index=n_max, max_factors=r_max)


def test_equation_validation(fib):
    with pytest.raises(ValueError):
        _eq(fib, 0, 2, 50, 2)
    with pytest.raises(ValueError):
        _eq(fib, 5, 1, 50, 2)
    with pytest.raises(ValueError):
        _eq(fib, 5, 2, 1, 2)
    with pytest.raises(ValueError):
        _eq(fib, 5, 2, 50, 0)
    with pytest.raises(ValueError, match="index 100001 exceeds the cap 100000"):
        _eq(fib, 5, 2, DEFAULT_INDEX_CAP + 1, 2)


def test_admissible_known_sets(fib, pell, shared_cache):
    adm = admissible_indices(_eq(fib, 5, 2, 50, 2), cache=shared_cache)
    assert adm.indices == (2, 5, 12)
    assert 12 in adm and 10 not in adm
    adm = admissible_indices(_eq(pell, 8, 2, 10, 2), cache=shared_cache)
    assert adm.indices == (2, 7)


def test_admissible_reports_stuck_index(fib):
    with pytest.raises(IncompleteFactorization) as info:
        admissible_indices(_eq(fib, 5, 2, 90, 2), cache=FactorCache(budget=50))
    assert info.value.index is not None
    assert info.value.cofactor > 1


def test_admissible_holds_one_term_at_a_time(fib):
    """The bound N = 10^5 costs nothing until its terms are reached: the run
    stops at U_94, and a table of all 10^5 terms would take about 0.4 GB."""
    tracemalloc.start()
    try:
        with pytest.raises(IncompleteFactorization) as info:
            admissible_indices(_eq(fib, 5, 2, DEFAULT_INDEX_CAP, 1), cache=FactorCache(budget=100000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.index, info.value.cofactor) == (94, 19740274219868223167)
    assert peak < 32 * 2**20


def test_whole_term_and_split_name_the_same_stuck_composite(fib):
    # F_77 = 13 * 89 * 988681 * 4832521. Trial division on the whole term and
    # the split's U_7 = 13 and U_11 = 89 leave the same product of the last
    # two primes, which rho does not split in 100 steps.
    for factor in (
        lambda cache: verify_solution(ProductEquation(fib, 5, 2, 77, 1), (77,), cache=cache),
        lambda cache: primitive.factor_term(fib, 77, cache),
    ):
        with pytest.raises(IncompleteFactorization) as info:
            factor(FactorCache(budget=100))
        assert (info.value.index, info.value.cofactor) == (77, 4777821694801)


def test_enumeration_matches_bruteforce(fib, pell, shared_cache):
    cases = [
        (fib, 5, 2, 30, 3),
        (fib, 5, 2, 20, 5),  # --r above the size of the admissible set (2, 5, 12)
        (fib, 1, 2, 25, 2),
        (fib, -1, 2, 30, 2),
        (fib, 2, 3, 30, 2),
        (pell, 8, 2, 25, 3),
        (pell, 1, 2, 30, 2),
        (validate_params(-1, 1), -5, 2, 24, 2),  # negative terms: negative quotients at even k
        (fib, -1, 3, 24, 2),  # the empty product with y = -1
        (fib, 1, 4, 20, 2),
    ]
    for params, a, k, n_max, r_max in cases:
        certs = enumerate_solutions(_eq(params, a, k, n_max, r_max), cache=shared_cache)
        got = sorted((c.indices, c.y) for c in certs)
        want = brute_solutions(params.p, params.q, a, k, n_max, r_max)
        assert got == want, (params.p, params.q, a, k)


def test_enumerated_certificates_are_sound(fib, shared_cache):
    certs = enumerate_solutions(_eq(fib, 1, 2, 40, 3), cache=shared_cache)
    seen = set()
    for cert in certs:
        assert cert.indices == tuple(sorted(cert.indices))
        assert cert.indices not in seen
        seen.add(cert.indices)
        for i in range(len(cert.indices)):
            for j in range(i + 1, len(cert.indices)):
                assert math.gcd(cert.indices[i], cert.indices[j]) == 1
        product = 1
        for n in cert.indices:
            product *= lucas_u(fib, n)
        assert 1 * cert.y ** 2 == product
        assert cert.trivial == (cert.indices == ())


def test_trivial_solutions(fib):
    certs = enumerate_solutions(_eq(fib, 1, 2, 12, 1))
    assert (certs[0].indices, certs[0].y, certs[0].trivial) == ((), 1, True)
    certs = enumerate_solutions(_eq(fib, -1, 3, 12, 1))
    assert ((), -1) in [(c.indices, c.y) for c in certs]
    certs = enumerate_solutions(_eq(fib, -1, 2, 12, 1))
    assert all(c.indices != () for c in certs)


def test_verify_accepts_known_solution(fib, shared_cache):
    eq = _eq(fib, 5, 2, 50, 2)
    cert = verify_solution(eq, (5, 12), cache=shared_cache)
    assert (cert.indices, cert.y) == ((5, 12), 12)
    assert cert.valuation_table == {
        2: ((12, 4),),
        3: ((12, 2),),
        5: ((5, 1),),
    }
    assert not cert.trivial
    # order does not matter; index 1 is stripped
    assert verify_solution(eq, (12, 5), cache=shared_cache).y == 12
    stripped = verify_solution(eq, (1, 5, 12), cache=shared_cache)
    assert (stripped.indices, stripped.y) == ((5, 12), 12)


def test_verify_typed_rejections(fib, shared_cache):
    eq = _eq(fib, 5, 2, 50, 3)
    with pytest.raises(NotPairwiseCoprime) as info:
        verify_solution(eq, (4, 6), cache=shared_cache)
    assert (info.value.i, info.value.j) == (4, 6)
    with pytest.raises(NotPairwiseCoprime) as info:
        verify_solution(eq, (6, 9, 10), cache=shared_cache)  # (6, 10) fails too, later
    assert (info.value.i, info.value.j) == (6, 9)
    with pytest.raises(ClassMismatch):
        verify_solution(eq, (4, 5), cache=shared_cache)  # U_4 = 3 not supported
    with pytest.raises(ClassMismatch):
        verify_solution(eq, (2,), cache=shared_cache)  # product class 1, not 5
    with pytest.raises(ClassMismatch, match="^product class 1 differs from the coefficient class -1$"):
        verify_solution(_eq(fib, -1, 2, 50, 2), (2,), cache=shared_cache)  # the classes differ in sign only
    with pytest.raises(NotDivisible) as info:
        verify_solution(_eq(fib, 125, 2, 50, 2), (5,), cache=shared_cache)
    assert info.value.p == 5
    with pytest.raises(NotKthPower):
        verify_solution(_eq(fib, 4, 3, 50, 2), (6,), cache=shared_cache)
    with pytest.raises(NegativeQuotientEvenK):
        verify_solution(_eq(fib, -1, 4, 50, 2), (2,), cache=shared_cache)


def test_valuation_table_rejects_inconsistent_tables(fib):
    eq = _eq(fib, 5, 2, 50, 2)
    consistent = {5: {5: 1}, 12: {2: 4, 3: 2}}
    assert _valuation_table(eq, (5, 12), consistent, {5: 1}) == {2: ((12, 4),), 3: ((12, 2),), 5: ((5, 1),)}
    broken = [
        ({5: {5: 1}, 12: {2: 4, 5: 2}}, {5: 1}),  # a prime of a carried by two factors
        ({5: {5: 1}, 12: {2: 4, 3: 2}}, {5: 2}),  # coefficient deeper than its factor
        ({5: {5: 2}, 12: {2: 4, 3: 2}}, {5: 1}),  # odd excess over the coefficient, k = 2
        ({5: {5: 1}, 12: {2: 4, 3: 1}}, {5: 1}),  # prime outside a to an odd exponent
    ]
    for table, coefficient in broken:
        with pytest.raises(SeparationLawViolation) as info:
            _valuation_table(eq, (5, 12), table, coefficient)
        assert not isinstance(info.value, VerificationError)


def test_verify_input_validation(fib):
    eq = _eq(fib, 5, 2, 50, 2)
    with pytest.raises(ValueError):
        verify_solution(eq, ())
    with pytest.raises(ValueError):
        verify_solution(eq, (0, 3))
    with pytest.raises(NotPairwiseCoprime):
        verify_solution(eq, (5, 5))


def test_verify_all_ones_tuple(fib):
    cert = verify_solution(_eq(fib, 1, 2, 12, 2), (1,))
    assert (cert.indices, cert.y, cert.trivial) == ((), 1, True)
    cert = verify_solution(_eq(fib, -1, 3, 12, 2), (1, 1))
    assert cert.y == -1
    # a=5 against a product of ones fails at the class comparison, which
    # runs before the divisibility check.
    with pytest.raises(ClassMismatch):
        verify_solution(_eq(fib, 5, 2, 12, 2), (1,))
    cert = verify_solution(_eq(fib, 1, 3, 12, 2), (1,))
    assert (cert.indices, cert.y, cert.trivial) == ((), 1, True)
    with pytest.raises(NegativeQuotientEvenK):
        verify_solution(_eq(fib, -1, 4, 12, 2), (1,))
    with pytest.raises(NotDivisible) as info:
        verify_solution(_eq(fib, 2, 3, 12, 2), (1,))
    assert info.value.p == 2


def test_solutions_insensitive_to_cache(fib):
    eq = _eq(fib, 5, 2, 50, 2)
    with_cache = enumerate_solutions(eq, cache=FactorCache())
    without = enumerate_solutions(eq)
    assert [(c.indices, c.y) for c in with_cache] == [(c.indices, c.y) for c in without]


def test_call_without_cache_factors_each_integer_once(fib, monkeypatch):
    # verify_solution makes 9 factorize calls for a = 5 and U_12 = 144, and the
    # one cache it opens leaves trial division to the first call on each.
    divided = []
    real = factoring._trial_divide

    def counting(m):
        divided.append(m)
        return real(m)

    monkeypatch.setattr(factoring, "_trial_divide", counting)
    assert verify_solution(_eq(fib, 5, 2, 12, 2), (5, 12)).y == 12
    assert divided == [5, 144]


def test_random_small_equations_match_oracle(shared_cache):
    rng = random.Random(0x50137)
    param_pool = [(1, 1), (2, 1), (3, -1), (-1, 1)]
    for _ in range(12):
        p, q = rng.choice(param_pool)
        params = validate_params(p, q)
        a = rng.choice((1, -1, 2, 3, 5, 6, 8, 10, -5))
        k = rng.choice((2, 3))
        n_max = rng.randrange(10, 26)
        r_max = rng.randrange(1, 4)
        certs = enumerate_solutions(_eq(params, a, k, n_max, r_max), cache=shared_cache)
        got = sorted((c.indices, c.y) for c in certs)
        assert got == brute_solutions(p, q, a, k, n_max, r_max), (p, q, a, k, n_max, r_max)
