"""Acceptance suite: the fixed checks the package must pass before release.

Each test covers one numbered criterion and prints a single PASS line on
success (run with ``pytest -s`` to see them); a failure surfaces as an
ordinary pytest failure for that criterion. Tests recompute everything they
need, so each criterion stands alone.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time

import mpmath as mp

from lucasprod import (
    ProductEquation,
    admissible_indices,
    binet_height,
    binet_radical,
    enumerate_solutions,
    factorize,
    lucas_range,
    lucas_u,
    make_binet_triple,
    obstruction_filter,
    primitive_divisors,
    quality_report,
    rank_of_apparition,
    validate_params,
    verify_solution,
)
from lucasprod.cli import main as cli_main
from lucasprod.intmath import is_perfect_square, primes_below

from _oracles import brute_solutions, lucas_values, rank_by_bigint


@contextlib.contextmanager
def report(number: int, summary: str):
    """Print one criterion NN: PASS/FAIL line around the wrapped checks."""
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d}: FAIL  {summary}")
        raise
    print(f"criterion {number:02d}: PASS  {summary}")


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def test_c01_coefficient_five_certificates():
    with report(1, "solve (P,Q,A,k)=(1,1,5,2), N=50, r=2 gives exactly the three known certificates"):
        params = validate_params(1, 1)
        eq = ProductEquation(params=params, a=5, k=2, max_index=50, max_factors=2)
        started = time.perf_counter()
        certs = enumerate_solutions(eq)
        elapsed = time.perf_counter() - started
        found = {cert.indices: cert.y for cert in certs}
        assert found == {(5,): 1, (2, 5): 1, (5, 12): 12}
        assert all(not cert.trivial for cert in certs)
        assert 5 * 12 ** 2 == lucas_u(params, 12) * lucas_u(params, 5)
        assert elapsed < 10.0


def test_c02_squarefree_part_table():
    with report(2, "classify reproduces the known (n, U_n, squarefree part) rows"):
        code, out = _run_cli(["classify", "--p", "1", "--q", "1", "--max", "12"])
        assert code == 0
        rows = {}
        for line in out.splitlines()[1:]:
            n, value, e, _s, _cls = line.split()
            rows[int(n)] = (int(value), int(e))
        expected = {
            1: (1, 1),
            2: (1, 1),
            3: (2, 2),
            4: (3, 3),
            5: (5, 5),
            6: (8, 2),
            12: (144, 1),
        }
        for n, pair in expected.items():
            assert rows[n] == pair, n


def test_c03_strong_divisibility_random():
    with report(3, "gcd(|U_a|,|U_b|) = |U_gcd(a,b)| on 500 random pairs for each of 4 parameter sets"):
        rng = random.Random(0xACC3)
        for p, q in ((1, 1), (2, 1), (3, -1), (-1, 1)):
            us = lucas_range(validate_params(p, q), 200)
            failures = 0
            for _ in range(500):
                a = rng.randint(1, 200)
                b = rng.randint(1, 200)
                if math.gcd(abs(us[a]), abs(us[b])) != abs(us[math.gcd(a, b)]):
                    failures += 1
            assert failures == 0, (p, q)


def test_c04_solver_matches_bruteforce(shared_cache):
    with report(4, "enumerate_solutions equals the unpruned oracle for N=30, r=3, k=2, A in {1,-1,5,8}"):
        for p, q in ((1, 1), (2, 1)):
            params = validate_params(p, q)
            for a in (1, -1, 5, 8):
                eq = ProductEquation(params=params, a=a, k=2, max_index=30, max_factors=3)
                certs = enumerate_solutions(eq, cache=shared_cache)
                got = sorted((cert.indices, cert.y) for cert in certs)
                assert got == brute_solutions(p, q, a, 2, 30, 3), (p, q, a)


def test_c05_valuation_separation(shared_cache):
    with report(5, "every certificate obeys the per-prime valuation separation laws"):
        cases = [(1, 1, 5, 50, 2)]
        cases += [(p, q, a, 30, 3) for p, q in ((1, 1), (2, 1)) for a in (1, -1, 5, 8)]
        checks = 0
        for p, q, a, n_max, r_max in cases:
            params = validate_params(p, q)
            eq = ProductEquation(params=params, a=a, k=2, max_index=n_max, max_factors=r_max)
            a_fac = factorize(a, cache=shared_cache)
            for cert in enumerate_solutions(eq, cache=shared_cache):
                if not cert.indices:
                    continue
                facs = {
                    n: factorize(lucas_u(params, n), cache=shared_cache) for n in cert.indices
                }
                primes = set(a_fac.support())
                for fac in facs.values():
                    primes.update(fac.support())
                for prime in sorted(primes):
                    vals = {n: facs[n].factors.get(prime, 0) for n in cert.indices}
                    v_a = a_fac.factors.get(prime, 0)
                    if v_a == 0:
                        assert all(v % 2 == 0 for v in vals.values()), (p, q, a, cert.indices, prime)
                    else:
                        carriers = [n for n, v in vals.items() if v > 0]
                        assert len(carriers) == 1, (p, q, a, cert.indices, prime)
                        v = vals[carriers[0]]
                        assert v >= v_a, (p, q, a, cert.indices, prime)
                        assert (v - v_a) % 2 == 0, (p, q, a, cert.indices, prime)
                    checks += 1
        assert checks > 0


def test_c06_square_fibonacci_scan():
    with report(6, "perfect-square scan of U_n(1,1) for n <= 200 finds exactly n in {1, 2, 12}"):
        us = lucas_range(validate_params(1, 1), 200)
        squares = [n for n in range(1, 201) if is_perfect_square(us[n])]
        assert squares == [1, 2, 12]


def test_c07_rank_of_apparition_agreement():
    with report(7, "divisor-descent rank equals the big-integer scan for p < 100; p | U_n iff z(p) | n up to 300"):
        params = validate_params(1, 1)
        us = lucas_values(1, 1, 301)
        for p in primes_below(100):
            rank = rank_of_apparition(params, p)
            assert rank.z == rank_by_bigint(p, us), p
            for n in range(1, 301):
                assert (us[n] % p == 0) == (n % rank.z == 0), (p, n)


def test_c08_obstruction_filter_soundness(shared_cache):
    with report(8, "filter excludes n=10 via primitive 11, admits {2,5,12}; no verified index is excluded"):
        params = validate_params(1, 1)
        verdict = obstruction_filter(5, primitive_divisors(params, 10, cache=shared_cache))
        assert not verdict.admissible
        assert verdict.prime == 11
        for n in (2, 5, 12):
            assert obstruction_filter(5, primitive_divisors(params, n, cache=shared_cache)).admissible, n
        eq = ProductEquation(params=params, a=5, k=2, max_index=120, max_factors=3)
        adm = admissible_indices(eq, cache=shared_cache)
        assert adm.indices == (2, 5, 12)
        certs = enumerate_solutions(eq, cache=shared_cache)
        used = sorted({n for cert in certs for n in cert.indices})
        assert used
        for n in used:
            assert n in adm
            assert obstruction_filter(5, primitive_divisors(params, n, cache=shared_cache)).admissible, n


def test_c09_height_lower_bound(shared_cache):
    with report(9, "height >= n log(phi) - 1e-9 for six indices; n=12 matches the 200-bit value to 1e-6"):
        params = validate_params(1, 1)
        log_phi = math.log((1 + math.sqrt(5)) / 2)
        for n in (5, 7, 10, 12, 25, 50):
            triple = make_binet_triple(params, n, 2, cache=shared_cache)
            assert binet_height(params, triple) - n * log_phi >= -1e-9, n
        with mp.workprec(200):
            oracle = float(12 * mp.log((1 + mp.sqrt(5)) / 2))
        triple12 = make_binet_triple(params, 12, 2, cache=shared_cache)
        assert abs(binet_height(params, triple12) - oracle) <= 1e-6


def test_c10_radical_and_quality(shared_cache):
    with report(10, "n=12 radical equals log2 + log3 + (log5)/2 to 1e-6; quality within 2.2240 +- 1e-3"):
        params = validate_params(1, 1)
        with mp.workprec(200):
            oracle = float(mp.log(2) + mp.log(3) + mp.log(5) / 2)
        triple = make_binet_triple(params, 12, 2, cache=shared_cache)
        assert abs(binet_radical(params, triple, cache=shared_cache) - oracle) <= 1e-6
        rep = quality_report(params, 12, 2, cache=shared_cache)
        assert abs(rep.quality - 2.2240) <= 1e-3


def test_c11_cube_analogue(shared_cache):
    with report(11, "solve (1,1,A=1,k=3), N=50, r=1 yields exactly indices (2) and (6); U_6 = 2^3"):
        params = validate_params(1, 1)
        eq = ProductEquation(params=params, a=1, k=3, max_index=50, max_factors=1)
        certs = enumerate_solutions(eq, cache=shared_cache)
        nontrivial = {cert.indices: cert.y for cert in certs if not cert.trivial}
        assert nontrivial == {(2,): 1, (6,): 2}
        cert = verify_solution(eq, (6,), cache=shared_cache)
        assert cert.y == 2
        assert lucas_u(params, 6) == 8 == 2 ** 3


def test_c12_byte_identical_reruns():
    with report(12, "the report behind each criterion is byte-identical across consecutive runs"):
        fib = ["--p", "1", "--q", "1"]
        commands = [
            ["solve", *fib, "--a", "5", "--max", "50", "--r", "2"],
            ["solve", *fib, "--a", "5", "--max", "50", "--r", "2", "--json"],
            ["classify", *fib, "--max", "12"],
            ["seq", *fib, "--max", "200"],
            ["solve", *fib, "--a", "8", "--max", "30", "--r", "3"],
            ["solve", "--p", "2", "--q", "1", "--a", "8", "--max", "30", "--r", "3"],
            ["rank", *fib, "--prime", "97"],
            ["primitive", *fib, "--n", "10", "--a", "5"],
            ["admissible", *fib, "--a", "5", "--max", "120"],
            ["abc-quality", *fib, "--from", "5", "--to", "50", "--json"],
            ["verify", *fib, "--a", "5", "--indices", "5,12", "--json"],
            ["solve", *fib, "--a", "1", "--k", "3", "--max", "50", "--r", "1"],
        ]
        for argv in commands:
            first = _run_cli(argv)
            second = _run_cli(argv)
            assert second == first, argv
            assert first[0] == 0, argv
