"""Parameter validation, fast doubling, and the strong divisibility law."""

import math
import random

import pytest

from lucasprod import (
    BadQ,
    NonpositiveDiscriminant,
    SquareDiscriminant,
    lucas_range,
    lucas_u,
    validate_params,
)

from _oracles import lucas_values

CLASSICAL = [(1, 1), (2, 1), (3, -1), (-1, 1), (5, 1), (4, -1)]


def test_validate_accepts_classical_pairs():
    for p, q in CLASSICAL:
        params = validate_params(p, q)
        assert params.delta == p * p + 4 * q
        assert abs(params.alpha) > 1 > abs(params.beta)
        assert params.alpha + params.beta == pytest.approx(p)
        assert params.alpha * params.beta == pytest.approx(-q)


def test_validate_relabels_dominant_root():
    params = validate_params(-1, 1)
    assert params.alpha == pytest.approx((-1 - math.sqrt(5)) / 2)
    assert params.beta == pytest.approx((-1 + math.sqrt(5)) / 2)


def test_validate_rejects_bad_q():
    for q in (0, 2, -2, 7):
        with pytest.raises(BadQ):
            validate_params(1, q)


def test_validate_rejects_degenerate_discriminants():
    with pytest.raises(NonpositiveDiscriminant):
        validate_params(1, -1)  # delta = -3
    with pytest.raises(NonpositiveDiscriminant):
        validate_params(2, -1)  # delta = 0
    with pytest.raises(SquareDiscriminant):
        validate_params(0, 1)  # delta = 4


def test_first_terms_match_recurrence():
    fib = validate_params(1, 1)
    assert [lucas_u(fib, n) for n in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    pell = validate_params(2, 1)
    assert [lucas_u(pell, n) for n in range(7)] == [0, 1, 2, 5, 12, 29, 70]


def test_doubling_agrees_with_recurrence_oracle():
    rng = random.Random(0xD0B1)
    for p, q in CLASSICAL:
        params = validate_params(p, q)
        oracle = lucas_values(p, q, 400)
        assert lucas_range(params, 400) == oracle
        for _ in range(60):
            n = rng.randrange(0, 401)
            assert lucas_u(params, n) == oracle[n]


def test_index_bounds():
    params = validate_params(1, 1)
    with pytest.raises(ValueError):
        lucas_u(params, -1)
    with pytest.raises(ValueError):
        lucas_u(params, 201, index_cap=200)
    assert lucas_u(params, 200, index_cap=200) == lucas_values(1, 1, 200)[200]


def test_strong_divisibility_random_pairs():
    rng = random.Random(0x5D1B)
    for p, q in CLASSICAL:
        params = validate_params(p, q)
        values = lucas_range(params, 300)
        for _ in range(200):
            a = rng.randrange(1, 301)
            b = rng.randrange(1, 301)
            g = math.gcd(a, b)
            assert math.gcd(abs(values[a]), abs(values[b])) == abs(values[g])
