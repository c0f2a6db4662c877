import math
import random
import time

import pytest

from pdef import (
    EPSILON,
    Word,
    cyclic_reduce,
    nu_p,
    primitive_root,
    reduce,
    word_power,
)
from pdef.words import is_prime
from oracles import brute_force_nu, random_reduced_word


def W(*letters):
    return Word(tuple(letters))


def test_reduce_examples():
    assert reduce([1, -1]) == EPSILON
    assert reduce([1, 2, -2, 1]) == W(1, 1)
    assert reduce([1, 2, -1]) == W(1, 2, -1)


def test_reduce_rejects_bad_letters():
    with pytest.raises(ValueError):
        reduce([0])
    with pytest.raises(ValueError):
        reduce([3], n_generators=2)
    with pytest.raises(ValueError):
        Word((1, -1))


def test_cyclic_reduce_examples():
    assert cyclic_reduce(W(2, 1, 1, -2)) == (W(2), W(1, 1))
    assert cyclic_reduce(W(1, 2)) == (EPSILON, W(1, 2))
    assert cyclic_reduce(EPSILON) == (EPSILON, EPSILON)


def test_primitive_root_examples():
    d = primitive_root(W(1, 2, 1, 2, 1, 2))
    assert (d.root, d.exponent, d.conjugator) == (W(1, 2), 3, EPSILON)

    d = primitive_root(W(1))
    assert (d.root, d.exponent, d.conjugator) == (W(1), 1, EPSILON)

    # y x x y^-1 = (y x y^-1)^2
    d = primitive_root(W(2, 1, 1, -2))
    assert d.exponent == 2
    assert d.exact_root() == W(2, 1, -2)
    assert word_power(d.exact_root(), 2) == W(2, 1, 1, -2)

    d = primitive_root(EPSILON)
    assert d.root == EPSILON and d.exponent == 0


def test_nu_p_examples():
    assert nu_p(W(1, 1, 1), 3) == 1
    assert nu_p(word_power(W(1, 2), 4), 2) == 2
    assert nu_p(W(1, -2, 1), 5) == 0
    assert nu_p(EPSILON, 7) == math.inf
    with pytest.raises(ValueError):
        nu_p(W(1), 4)


def test_word_power_examples():
    assert word_power(W(1), 3) == W(1, 1, 1)
    assert word_power(W(1, 2), 0) == EPSILON
    assert word_power(W(1, 2, -1), 2) == W(1, 2, 2, -1)
    assert word_power(W(1, 2), -2) == W(-2, -1, -2, -1)


def test_reduce_idempotent_and_inverse_cancels():
    rng = random.Random(7)
    for _ in range(200):
        w = random_reduced_word(rng, 3, rng.randrange(0, 12))
        assert reduce(w.letters) == w
        assert w * w.inverse() == EPSILON


def test_power_multiplies_root_exponent():
    rng = random.Random(11)
    for _ in range(100):
        u = random_reduced_word(rng, 2, rng.randrange(1, 7))
        e = primitive_root(u).exponent
        for m in range(1, 9):
            assert primitive_root(word_power(u, m)).exponent == m * e


def test_nu_p_additive_in_p_powers():
    rng = random.Random(13)
    for p in (2, 3, 5):
        for _ in range(40):
            u = random_reduced_word(rng, 2, rng.randrange(1, 6))
            base = nu_p(u, p)
            for k in range(0, 4):
                assert nu_p(word_power(u, p**k), p) == k + base


def test_root_reassembly():
    rng = random.Random(17)
    for _ in range(300):
        w = random_reduced_word(rng, 3, rng.randrange(1, 14))
        d = primitive_root(w)
        assert word_power(d.exact_root(), d.exponent) == w
        assert d.conjugator * word_power(d.root, d.exponent) * d.conjugator.inverse() == w
        assert primitive_root(d.root).exponent == 1


def test_nu_p_matches_brute_force():
    rng = random.Random(19)
    for p in (2, 3):
        for _ in range(60):
            base = random_reduced_word(rng, 2, rng.randrange(1, 5))
            w = word_power(base, rng.randrange(1, 9))
            assert nu_p(w, p) == brute_force_nu(w, p)


def test_is_prime_is_exact_and_bounded():
    small = [n for n in range(2, 5000) if all(n % f for f in range(2, math.isqrt(n) + 1))]
    assert [n for n in range(-3, 5000) if is_prime(n)] == small
    assert not is_prime(3825123056546413051)  # strong pseudoprime to bases 2..23
    assert not is_prime(318665857834031151167461)  # ... and to bases 2..37
    start = time.perf_counter()
    assert is_prime(1000000000000000003)  # trial division never finished
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError):
        is_prime(10**25)  # beyond the range the 13 bases decide
