"""Square classes: the factorization of the signed squarefree part, and the group law."""

import random

from lucasprod import Factorization, class_of

from _oracles import kth_power_free_part


def test_class_of_basics():
    assert class_of(1) == Factorization(1, {})
    assert class_of(-1) == Factorization(-1, {})
    for n, value, primes in ((12, 3, (3,)), (50, 2, (2,)), (-18, -2, (2,)), (144, 1, ()), (30, 30, (2, 3, 5))):
        c = class_of(n)
        assert isinstance(c, Factorization)
        assert (c.value(), c.support()) == (value, primes), n
        assert all(exp == 1 for exp in c.factors.values()), n


def test_class_of_matches_squarefree_part():
    rng = random.Random(0xC1A5)
    for _ in range(300):
        n = rng.randrange(2, 10 ** 6) * rng.choice((1, -1))
        e, _ = kth_power_free_part(n, 2)
        assert class_of(n).value() == e


def test_group_law_is_multiplication():
    rng = random.Random(0x91B2)
    for _ in range(200):
        a = rng.randrange(1, 5000) * rng.choice((1, -1))
        b = rng.randrange(1, 5000) * rng.choice((1, -1))
        ca, cb, cab = class_of(a), class_of(b), class_of(a * b)
        assert cab.sign == ca.sign * cb.sign, (a, b)
        assert set(cab.support()) == set(ca.support()) ^ set(cb.support()), (a, b)
