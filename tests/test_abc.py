"""Field data, Binet triples, and the height/radical quality evidence.

High-precision reference values come from mpmath at 200 bits; the module
under test works in doubles, so agreement within 1e-6 is the bar.
"""

import math

import pytest
from mpmath import mp

from lucasprod import (
    FactorCache,
    IncompleteFactorization,
    ProductEquation,
    admissible_indices,
    binet_height,
    binet_radical,
    field_discriminant,
    make_binet_triple,
    power_free_part,
    quality_report,
    validate_params,
)
from lucasprod.abc_evidence import BinetTriple
from lucasprod.intmath import kronecker_at_prime

from _oracles import lucas_values, primes_below


def test_field_data_examples():
    # delta = conductor^2 * d with d squarefree; the discriminant is d or 4d.
    for delta, d, discriminant, conductor in ((5, 5, 5, 1), (8, 2, 8, 2), (45, 5, 5, 3)):
        e, s = power_free_part(delta, 2)
        assert (e, field_discriminant(delta), s) == (d, discriminant, conductor)


def test_field_data_rejections():
    for delta in (0, -5):
        with pytest.raises(ValueError, match=rf"^discriminant p\^2 \+ 4q = {delta} is not positive$"):
            field_discriminant(delta)
    for square in (4, 9, 16, 144):
        with pytest.raises(ValueError, match=rf"^discriminant {square} is a perfect square \(degenerate\)$"):
            field_discriminant(square)


def test_splitting_matches_root_counting():
    # The Kronecker symbol (D/p) of the field discriminant D, which
    # binet_radical reads, is 1 when p splits, -1 when it is inert and 0 when
    # it ramifies. Odd p: split iff D is a nonzero square mod p. At p=2 the
    # square test says nothing; there the class of D mod 8 decides (1: split,
    # 5: inert).
    for delta in (5, 8, 45):
        discriminant = field_discriminant(delta)
        for p in primes_below(200):
            got = kronecker_at_prime(discriminant, p)
            if discriminant % p == 0:
                expected = 0
            elif p == 2:
                expected = 1 if discriminant % 8 == 1 else -1
            elif any(x * x % p == discriminant % p for x in range(p)):
                expected = 1
            else:
                expected = -1
            assert got == expected, (delta, p)


def test_splitting_known_values():
    discriminant = field_discriminant(5)
    assert kronecker_at_prime(discriminant, 11) == 1  # split
    assert kronecker_at_prime(discriminant, 2) == -1  # inert
    assert kronecker_at_prime(discriminant, 5) == 0  # ramified


def test_triple_construction(fib, pell, shared_cache):
    triple = make_binet_triple(fib, 12, 2, cache=shared_cache)
    assert (triple.e, triple.s) == (1, 12)
    triple = make_binet_triple(pell, 7, 2, cache=shared_cache)
    assert (triple.e, triple.s) == (1, 13)
    triple = make_binet_triple(fib, 7, 2, cache=shared_cache)
    assert (triple.e, triple.s) == (13, 1)


def test_triple_field_validation():
    with pytest.raises(ValueError):
        BinetTriple(0, 1, 1, 2)
    with pytest.raises(ValueError):
        BinetTriple(3, 0, 1, 2)
    with pytest.raises(ValueError):
        BinetTriple(3, 2, 0, 2)
    with pytest.raises(ValueError):
        BinetTriple(3, 2, 1, 1)


def test_identity_residual_is_tiny(fib, pell, shared_cache):
    # beta^n + sqrt(delta)*e*s^k = alpha^n at 200 bits, negative p too: the
    # exact check e*s^k = U_n in make_binet_triple is this identity.
    for params, top in ((fib, 100), (pell, 100), (validate_params(-1, 1), 100), (validate_params(-3, -1), 40)):
        with mp.workprec(200):
            sqrt_delta = mp.sqrt(params.delta)
            alpha = (params.p + sqrt_delta) / 2
            beta = (params.p - sqrt_delta) / 2
            dominant = max(abs(alpha), abs(beta))
            for n in range(1, top + 1):
                triple = make_binet_triple(params, n, 2, cache=shared_cache)
                middle = sqrt_delta * triple.e * mp.mpf(triple.s) ** triple.k
                residual = beta**n + middle - alpha**n
                assert abs(residual) < mp.ldexp(dominant**n, -150), (params, n)


def _mp_height(params, n, middle_magnitude):
    with mp.workprec(200):
        sqrt_delta = mp.sqrt(params.delta)
        alpha = (params.p + sqrt_delta) / 2
        beta = (params.p - sqrt_delta) / 2
        if abs(alpha) < abs(beta):
            alpha, beta = beta, alpha
        b = sqrt_delta * middle_magnitude
        first = mp.log(max(abs(alpha) ** n, abs(beta) ** n, b))
        second = first  # conjugation swaps the roots and fixes |b|
        return float((first + second) / 2)


def test_height_matches_highprecision_reference(fib, pell):
    for params in (fib, pell):
        values = lucas_values(params.p, params.q, 200)
        for n in range(1, 201):
            triple = BinetTriple(n, values[n], 1, 2)
            got = binet_height(params, triple)
            want = _mp_height(params, n, abs(values[n]))
            assert abs(got - want) <= 1e-6, (params.p, n)


def test_height_lower_bound(fib, pell):
    for params in (fib, pell):
        values = lucas_values(params.p, params.q, 200)
        log_dominant = math.log((abs(params.p) + math.sqrt(params.delta)) / 2)
        for n in range(1, 201):
            triple = BinetTriple(n, values[n], 1, 2)
            assert binet_height(params, triple) - n * log_dominant >= 0.0


def test_height_is_representation_independent(fib, shared_cache):
    values = lucas_values(fib.p, fib.q, 60)
    for n in range(1, 61):
        canonical = make_binet_triple(fib, n, 2, cache=shared_cache)
        plain = BinetTriple(n, values[n], 1, 2)
        got = binet_height(fib, canonical)
        assert abs(got - binet_height(fib, plain)) <= 1e-9


def test_radical_reference_values(fib, pell, shared_cache):
    with mp.workprec(200):
        want = float(mp.log(2) + mp.log(3) + mp.log(5) / 2)
    triple = make_binet_triple(fib, 12, 2, cache=shared_cache)
    assert abs(binet_radical(fib, triple, cache=shared_cache) - want) <= 1e-6

    with mp.workprec(200):
        want = float(mp.log(2) / 2 + mp.log(13))
    triple = make_binet_triple(pell, 7, 2, cache=shared_cache)
    assert abs(binet_radical(pell, triple, cache=shared_cache) - want) <= 1e-6


def test_radical_of_unit_triples(fib, pell):
    # U_1 = 1, so the middle entry is just sqrt(delta)
    with mp.workprec(200):
        fib_want = float(mp.log(5) / 2)
        pell_want = float(mp.log(2) / 2)
        wide_want = float(mp.log(3) + mp.log(5) / 2)
    assert abs(binet_radical(fib, BinetTriple(1, 1, 1, 2)) - fib_want) <= 1e-6
    assert abs(binet_radical(pell, BinetTriple(1, 1, 1, 2)) - pell_want) <= 1e-6
    wide = validate_params(7, -1)  # delta = 45 = 3^2 * 5, conductor prime 3 is inert
    assert abs(binet_radical(wide, BinetTriple(1, 1, 1, 2)) - wide_want) <= 1e-6


def test_radical_is_representation_independent(fib, shared_cache):
    values = lucas_values(fib.p, fib.q, 40)
    for n in range(1, 41):
        canonical = make_binet_triple(fib, n, 2, cache=shared_cache)
        plain = BinetTriple(n, values[n], 1, 2)
        assert binet_radical(fib, canonical, cache=shared_cache) == binet_radical(
            fib, plain, cache=shared_cache
        )


def test_radical_bounded_by_log_s_plus_constant(fib, pell, shared_cache):
    cases = [(fib, 5, 120), (pell, 8, 60)]
    for params, a, n_max in cases:
        eq = ProductEquation(params=params, a=a, k=2, max_index=n_max, max_factors=2)
        adm = admissible_indices(eq, cache=shared_cache)
        bound_primes = set()
        for value in (a, params.delta):
            m = abs(value)
            d = 2
            while d * d <= m:
                if m % d == 0:
                    bound_primes.add(d)
                    while m % d == 0:
                        m //= d
                d += 1
            if m > 1:
                bound_primes.add(m)
        constant = sum(math.log(p) for p in bound_primes)
        for n in adm.indices:
            triple = make_binet_triple(params, n, 2, cache=shared_cache)
            rad = binet_radical(params, triple, cache=shared_cache)
            assert rad <= math.log(triple.s) + constant + 1e-9, (params.p, a, n)


def test_quality_report_fields(fib, pell, shared_cache):
    report = quality_report(fib, 12, 2, cache=shared_cache)
    assert report.quality == pytest.approx(report.height / report.radical)
    assert report.lower_slack >= 0.0
    assert abs(report.quality - 2.2240) <= 1e-3
    report = quality_report(pell, 7, 2, cache=shared_cache)
    with mp.workprec(200):
        want_slack = float(mp.log(2) / 2)
    assert abs(report.upper_slack_term - want_slack) <= 1e-6


def test_quality_report_budget_error(fib):
    with pytest.raises(IncompleteFactorization):
        quality_report(fib, 77, 2, cache=FactorCache(budget=100))
