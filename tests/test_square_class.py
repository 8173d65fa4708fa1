"""Square classes: canonical forms and the group law."""

import random

import pytest

from lucasprod import (
    IDENTITY_CLASS,
    SquareClass,
    abs_prime_support,
    class_mul,
    class_of,
)

from _oracles import kth_power_free_part


def test_class_of_basics():
    assert class_of(1) == IDENTITY_CLASS
    assert class_of(-1) == SquareClass(-1, ())
    assert class_of(12) == SquareClass(1, (3,))
    assert class_of(50) == SquareClass(1, (2,))
    assert class_of(-18) == SquareClass(-1, (2,))
    assert class_of(144) == IDENTITY_CLASS
    assert class_of(-18).as_integer() == -2
    assert str(class_of(30)) == "30"


def test_square_class_validation():
    with pytest.raises(ValueError):
        SquareClass(0, ())
    with pytest.raises(ValueError):
        SquareClass(1, (3, 2))  # unsorted
    with pytest.raises(ValueError):
        SquareClass(1, (4,))  # not prime


def test_class_of_matches_squarefree_part():
    rng = random.Random(0xC1A5)
    for _ in range(300):
        n = rng.randrange(2, 10 ** 6) * rng.choice((1, -1))
        e, _ = kth_power_free_part(n, 2)
        assert class_of(n).as_integer() == e


def test_group_law_is_multiplication():
    rng = random.Random(0x91B2)
    for _ in range(200):
        a = rng.randrange(1, 5000) * rng.choice((1, -1))
        b = rng.randrange(1, 5000) * rng.choice((1, -1))
        assert class_mul(class_of(a), class_of(b)) == class_of(a * b)


def _all_classes(support):
    classes = []
    for sign in (1, -1):
        for mask in range(1 << len(support)):
            primes = tuple(p for i, p in enumerate(support) if mask >> i & 1)
            classes.append(SquareClass(sign, primes))
    return classes


def test_group_axioms_exhaustive():
    classes = _all_classes((2, 3, 5, 7))
    assert len(classes) == 32
    for c in classes:
        assert class_mul(c, IDENTITY_CLASS) == c
        assert class_mul(c, c) == IDENTITY_CLASS  # every element is an involution
    for c1 in classes:
        for c2 in classes:
            assert class_mul(c1, c2) == class_mul(c2, c1)
    rng = random.Random(0xA550C)
    for _ in range(500):
        c1, c2, c3 = (rng.choice(classes) for _ in range(3))
        assert class_mul(class_mul(c1, c2), c3) == class_mul(c1, class_mul(c2, c3))


def test_abs_prime_support():
    assert abs_prime_support(1) == ()
    assert abs_prime_support(-1) == ()
    assert abs_prime_support(-360) == (2, 3, 5)
