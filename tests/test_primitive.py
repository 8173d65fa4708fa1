"""Rank of apparition, primitivity marks, and the obstruction filter."""

import pytest

from lucasprod import (
    FactorCache,
    NotFoundWithinBound,
    ObstructionVerdict,
    ProductEquation,
    enumerate_solutions,
    factoring,
    factorize,
    obstruction_filter,
    primitive,
    primitive_divisors,
    rank_of_apparition,
    validate_params,
)
from lucasprod.intmath import kronecker_at_prime
from lucasprod.lucas import DEFAULT_INDEX_CAP, lucas_u, lucas_u_mod

from _oracles import lucas_values, primes_below, rank_by_bigint, rank_by_scan

BENCHMARK_CARDS = ((1, 1), (2, 1), (3, -1), (3, 1), (4, 1), (6, 1))
PRIMES_BELOW_20000 = primes_below(20_000)


def test_rank_matches_bigint_scan(fib, pell):
    for params in (fib, pell):
        values = lucas_values(params.p, params.q, 600)
        for p in primes_below(100):
            z = rank_of_apparition(params, p).z
            assert z == rank_by_bigint(p, values)


def test_rank_divisibility_law(fib):
    values = lucas_values(fib.p, fib.q, 300)
    for p in primes_below(100):
        z = rank_of_apparition(fib, p).z
        for n in range(1, 301):
            assert (values[n] % p == 0) == (n % z == 0)


def test_rank_at_discriminant_primes(fib, pell):
    assert rank_of_apparition(fib, 5).z == 5
    assert rank_of_apparition(pell, 2).z == 2


def test_rank_rejects_composites(fib):
    for bad in (1, 4, 0, -7, 91):
        with pytest.raises(ValueError, match=f"^{bad} is not prime$"):
            rank_of_apparition(fib, bad)


def test_rank_always_found_within_bound(fib, pell):
    for params in (fib, pell):
        for p in primes_below(500):
            rank = rank_of_apparition(params, p)
            assert 1 <= rank.z <= p + 1


def test_rank_descent_matches_scan_below_20000():
    for p, q in BENCHMARK_CARDS:
        params = validate_params(p, q)
        assert any(params.delta % prime == 0 for prime in PRIMES_BELOW_20000)
        for prime in PRIMES_BELOW_20000:
            assert rank_of_apparition(params, prime).z == rank_by_scan(p, q, prime), (p, q, prime)


def test_rank_divides_law_of_apparition_index():
    for p, q in BENCHMARK_CARDS:
        params = validate_params(p, q)
        for prime in PRIMES_BELOW_20000:
            z = rank_of_apparition(params, prime).z
            assert (prime - kronecker_at_prime(params.delta, prime)) % z == 0
            assert lucas_u_mod(params, z, prime) == 0


def test_rank_of_large_fibonacci_prime(fib):
    assert rank_of_apparition(fib, 10_000_019).z == 10_000_018


def test_rank_refuses_composite_passed_as_prime(fib, monkeypatch):
    monkeypatch.setattr(primitive, "is_probable_prime", lambda n: True)
    for composite in (91, 341, 561, 10_001):
        with pytest.raises(NotFoundWithinBound) as info:
            rank_of_apparition(fib, composite)
        assert info.value.p == composite
        assert "composite" in str(info.value)


def _exact_term(params, n):
    """U_n, above the index cap of lucas_u by U_{a+b} = U_a*U_{b+1} + q*U_{a-1}*U_b."""
    if n <= DEFAULT_INDEX_CAP:
        return lucas_u(params, n)
    a, b = n // 2, n - n // 2
    return lucas_u(params, a) * lucas_u(params, b + 1) + params.q * lucas_u(params, a - 1) * lucas_u(params, b)


def test_lucas_u_mod_matches_exact_terms():
    indices = [*range(40), 97, 1_000, 4_097, DEFAULT_INDEX_CAP + 1, 3 * DEFAULT_INDEX_CAP // 2]
    moduli = (1, 2, 3, 10, 97, 2 ** 61 - 1, 10 ** 30 + 57)
    for p, q in ((1, 1), (2, 1), (3, -1), (-3, 1)):
        params = validate_params(p, q)
        for n in indices:
            exact = _exact_term(params, n)
            for m in moduli:
                assert lucas_u_mod(params, n, m) == exact % m, (p, q, n, m)


def _judge(params, a, n, cache=None):
    """The filter's verdict on n, judged from the prime table of U_n."""
    return obstruction_filter(a, primitive_divisors(params, n, cache=cache))


def test_obstruction_filter_admits_ranks_of_the_coefficient(fib):
    # z(2) = 3 and z(5) = 5 for Fibonacci, so a = 10 admits both outright.
    for n in (3, 5):
        assert "rank" in _judge(fib, 10, n).reason
    # a = +-1 has no primes, so no index is a rank of one of them.
    for a in (1, -1):
        for n in range(2, 31):
            assert "rank" not in _judge(fib, a, n).reason


def test_primitive_marks_match_first_occurrence(shared_cache):
    for (p, q), top in zip(BENCHMARK_CARDS, (80, 80, 40, 40, 40, 40)):
        params = validate_params(p, q)
        values = lucas_values(p, q, top)
        for n in range(1, top + 1):
            report = primitive_divisors(params, n, cache=shared_cache)
            value = abs(values[n])
            rebuilt = 1
            for entry in report.entries:
                rebuilt *= entry.prime ** entry.multiplicity
                # first index where the prime divides the sequence
                u_prev, u = 0, 1 % entry.prime
                first = None
                for m in range(1, n + 1):
                    if u == 0:
                        first = m
                        break
                    u_prev, u = u, (params.p * u + params.q * u_prev) % entry.prime
                assert entry.primitive == (first == n), (p, q, n, entry.prime)
            assert rebuilt == value


def test_known_primitive_reports(fib, shared_cache):
    report = primitive_divisors(fib, 12, cache=shared_cache)
    assert [(e.prime, e.multiplicity, e.primitive) for e in report.entries] == [
        (2, 4, False),
        (3, 2, False),
    ]
    report = primitive_divisors(fib, 10, cache=shared_cache)
    assert [(e.prime, e.multiplicity, e.primitive) for e in report.entries] == [
        (5, 1, False),
        (11, 1, True),
    ]
    assert primitive_divisors(fib, 1, cache=shared_cache).entries == ()


def test_fibonacci_zsigmondy_exceptions(fib, shared_cache):
    missing = []
    for n in range(1, 121):
        report = primitive_divisors(fib, n, cache=shared_cache)
        if not any(e.primitive for e in report.entries):
            missing.append(n)
    assert missing == [1, 2, 6, 12]


def test_obstruction_filter_known_cases(fib, pell, shared_cache):
    verdict = _judge(fib, 5, 10, cache=shared_cache)
    assert not verdict.admissible and verdict.prime == 11
    for n in (2, 5, 12):
        assert _judge(fib, 5, n, cache=shared_cache).admissible
    # rank membership admits outright: z(5) = 5
    assert "rank" in _judge(fib, 5, 5, cache=shared_cache).reason
    verdict = _judge(pell, 2, 3, cache=shared_cache)
    assert not verdict.admissible and verdict.prime == 5
    # U_7 = 169 = 13^2: the primitive prime has multiplicity two
    assert _judge(pell, 2, 7, cache=shared_cache).admissible


def _verdict_from_ranks(params, a, n, cache):
    """The filter's verdict from the full rank of each prime of a."""
    support = factorize(a, cache=cache).support()
    if n in {rank_of_apparition(params, p, cache=cache).z for p in support}:
        return ObstructionVerdict(True, f"index {n} is the rank of apparition of a prime dividing a={a}")
    for entry in primitive_divisors(params, n, cache=cache).entries:
        if entry.primitive and entry.prime not in support and entry.multiplicity == 1:
            reason = f"primitive prime {entry.prime} divides U_{n} to multiplicity 1 and does not divide a={a}"
            return ObstructionVerdict(False, reason, entry.prime)
    return ObstructionVerdict(True, f"no primitive prime of U_{n} outside a={a} has multiplicity 1")


def test_obstruction_filter_matches_verdict_from_ranks(shared_cache):
    coefficients = (1, -1, 2, -2, 3, -3, 5, -5, 6, 10, -10, 12, 13, -15, 30)
    for p, q in BENCHMARK_CARDS:
        params = validate_params(p, q)
        for a in coefficients:
            for n in range(2, 31):
                want = _verdict_from_ranks(params, a, n, shared_cache)
                assert _judge(params, a, n, cache=shared_cache) == want, (p, q, a, n)


def test_obstruction_filter_validation(fib):
    with pytest.raises(ValueError, match="index must be >= 2, got 1"):
        _judge(fib, 5, 1)
    with pytest.raises(ValueError, match="^coefficient a must be nonzero$"):
        _judge(fib, 0, 10)


def test_solver_indices_pass_filter(fib, pell, shared_cache):
    cases = [(fib, 5), (fib, 1), (pell, 8)]
    for params, a in cases:
        eq = ProductEquation(params=params, a=a, k=2, max_index=40, max_factors=3)
        for cert in enumerate_solutions(eq, cache=shared_cache):
            for n in cert.indices:
                assert _judge(params, a, n, cache=shared_cache).admissible


# First index whose U_n does not factor at a rho budget of 10^5 (bench/meta.json).
REACH_AT_100000 = {(1, 1): 94, (2, 1): 58, (3, -1): 47, (3, 1): 47, (4, 1): 59, (6, 1): 54}


def test_factor_term_equals_factorize_below_reach():
    for (p, q), reach in REACH_AT_100000.items():
        params = validate_params(p, q)
        split, bare = FactorCache(budget=100_000), FactorCache(budget=100_000)
        for n in range(1, reach):
            fac = primitive.factor_term(params, n, cache=split)
            assert fac.complete, (p, q, n)
            assert fac == factorize(lucas_u(params, n), cache=bare), (p, q, n)


def test_split_completes_fibonacci_94(fib):
    value = lucas_u(fib, 94)
    assert not factorize(value, cache=FactorCache(budget=100_000)).complete
    # U_94 = F_47 * L_47, two primes near 2^32: U_47 supplies the first, and
    # the primitive part left is the second.
    fac = primitive.factor_term(fib, 94, cache=FactorCache(budget=100_000))
    assert fac.complete and fac.value() == value
    assert fac.factors == {lucas_u(fib, 47): 1, value // lucas_u(fib, 47): 1}


def test_pm1_step_splits_deep_6_1_terms_without_rho(monkeypatch):
    params = validate_params(6, 1)
    rho_calls = []
    real_rho = factoring._brent_rho

    def recording_rho(c, budget):
        rho_calls.append(c)
        return real_rho(c, budget)

    monkeypatch.setattr(factoring, "_brent_rho", recording_rho)
    for n in (50, 53):
        fac = primitive.factor_term(params, n, cache=FactorCache(budget=100_000))
        assert rho_calls == [], n
        assert fac == factorize(lucas_u(params, n), cache=FactorCache(budget=100_000)), n
        rho_calls.clear()


def test_is_primitive_iff_prime_divides_no_term_at_n_over_l(fib):
    values = lucas_values(fib.p, fib.q, 90)
    for n in range(1, 91):
        maximal = [n // l for l in primes_below(n + 1) if n % l == 0]
        entries = primitive_divisors(fib, n).entries
        assert [entry.prime for entry in entries] == sorted(factorize(values[n]).factors), n
        for entry in entries:
            p = entry.prime
            expected = all(values[m] % p for m in maximal)
            assert entry.primitive == expected, (n, p)
