import math
import random
from fractions import Fraction

import pytest

from unitprod.arith import jacobsthal
from unitprod.errors import NoCandidate
from unitprod.search import find_coprime_numerator, find_denominator_for_prime


def brute_numerator(x, b, Q, eps, min_ratio):
    """Argmin over all a in [1, b) satisfying the constraints, ties toward
    the smaller numerator; None when nothing is admissible."""
    best = None
    for a in range(1, b):
        if math.gcd(a, Q) != 1:
            continue
        value = Fraction(a, b)
        if value <= min_ratio or abs(x - value) >= eps:
            continue
        err = abs(x - value)
        if best is None or err < best[1]:
            best = (a, err)
    return best


def brute_denominator(a_prime, x, eps, min_ratio):
    cap = a_prime + math.ceil(2 * a_prime / eps)
    best = None
    for m in range(a_prime + 1, cap + 1):
        if m % a_prime == 0:
            continue
        value = Fraction(a_prime, m)
        if value <= min_ratio or abs(x - value) >= eps:
            continue
        err = abs(x - value)
        if best is None or err < best[1]:
            best = (m, err)
    return best


# ------------------------------------------------------- numerator search

def test_numerator_examples():
    a = find_coprime_numerator(Fraction(1, 2), 7, 7, Fraction(1, 5), Fraction(1, 10))
    assert a == 3  # ties with a=4 broken downward
    assert abs(Fraction(1, 2) - Fraction(a, 7)) == Fraction(1, 14)

    a = find_coprime_numerator(Fraction(1, 2), 2, 2, 1, 0)
    assert a == 1 and abs(Fraction(1, 2) - Fraction(a, 2)) == 0

    with pytest.raises(NoCandidate):
        find_coprime_numerator(Fraction(1, 2), 4, 4, Fraction(1, 100), 0)


def test_numerator_validation():
    with pytest.raises(ValueError):
        find_coprime_numerator(Fraction(3, 2), 7, 7, Fraction(1, 5), 0)
    with pytest.raises(ValueError):
        find_coprime_numerator(Fraction(1, 2), 1, 1, Fraction(1, 5), 0)
    with pytest.raises(ValueError):
        find_coprime_numerator(Fraction(1, 2), 7, 8, Fraction(1, 5), 0)
    with pytest.raises(ValueError):
        find_coprime_numerator(Fraction(1, 2), 7, 7, 2, 0)
    with pytest.raises(ValueError):
        find_coprime_numerator(Fraction(1, 2), 7, 7, Fraction(1, 5), 1)


def test_numerator_oracle_equivalence():
    rng = random.Random(2001)
    for _ in range(400):
        b = rng.randint(2, 300)
        xd = rng.randint(1, 200)
        x = Fraction(rng.randint(0, xd), xd)
        eps = Fraction(rng.randint(1, 30), 30)
        if rng.random() < 0.5:
            Q = b
        else:
            c = rng.randint(2, 30)
            while math.gcd(b, c) != 1:
                c = rng.randint(2, 30)
            Q = b * c
        min_ratio = Fraction(0) if rng.random() < 0.5 else eps / 2
        expected = brute_numerator(x, b, Q, eps, min_ratio)
        try:
            got = find_coprime_numerator(x, b, Q, eps, min_ratio)
        except NoCandidate:
            assert expected is None
            continue
        assert expected is not None
        assert type(got) is int
        assert got == expected[0]
        assert abs(x - Fraction(got, b)) == expected[1]
        # postconditions, re-checked exactly
        assert 1 <= got < b
        assert math.gcd(got, Q) == 1
        assert abs(x - Fraction(got, b)) < eps
        assert Fraction(got, b) > min_ratio


def test_numerator_gap_soundness():
    # wide-enough windows always succeed once eps clears (g(Q)+1)/b
    rng = random.Random(2002)
    for _ in range(100):
        b = rng.randint(2, 400)
        if rng.random() < 0.5:
            Q = b
        else:
            c = rng.randint(2, 20)
            while math.gcd(b, c) != 1:
                c = rng.randint(2, 20)
            Q = b * c
        eps = Fraction(jacobsthal(Q) + 1, b) + Fraction(1, 1000)
        if eps > 1:
            continue
        for numerator in range(0, 11):
            x = Fraction(numerator, 10)
            if not eps <= x <= 1 - eps:
                continue
            find_coprime_numerator(x, b, Q, eps, 0)  # must not raise


# ----------------------------------------------------- denominator search

def test_denominator_examples():
    m = find_denominator_for_prime(29, Fraction(3, 5), Fraction(1, 10), Fraction(1, 20))
    assert m == 48
    assert abs(Fraction(3, 5) - Fraction(29, m)) == Fraction(1, 240)

    m = find_denominator_for_prime(29, Fraction(1, 2), Fraction(1, 10), 0)
    assert m == 59  # 58 excluded (multiple of 29)
    assert abs(Fraction(1, 2) - Fraction(29, m)) == Fraction(1, 118)

    m = find_denominator_for_prime(5, 1, Fraction(1, 2), 0)
    assert m == 6
    assert abs(1 - Fraction(5, m)) == Fraction(1, 6)


def test_denominator_validation():
    with pytest.raises(ValueError):
        find_denominator_for_prime(6, Fraction(1, 2), Fraction(1, 10), 0)
    with pytest.raises(ValueError):
        find_denominator_for_prime(29, 2, Fraction(1, 10), 0)


def test_denominator_incompatible_ratio():
    # x far below min_ratio leaves an empty window
    with pytest.raises(NoCandidate):
        find_denominator_for_prime(29, 0, Fraction(1, 100), Fraction(1, 2))


def test_denominator_oracle_equivalence():
    rng = random.Random(2003)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    for _ in range(300):
        a_prime = rng.choice(primes)
        xd = rng.randint(1, 100)
        x = Fraction(rng.randint(0, xd), xd)
        eps = Fraction(rng.randint(1, 20), 20)
        min_ratio = Fraction(0) if rng.random() < 0.5 else eps / 2
        expected = brute_denominator(a_prime, x, eps, min_ratio)
        try:
            got = find_denominator_for_prime(a_prime, x, eps, min_ratio)
        except NoCandidate:
            assert expected is None
            continue
        assert expected is not None
        assert type(got) is int
        assert got == expected[0]
        assert abs(x - Fraction(a_prime, got)) == expected[1]
        assert got > a_prime
        assert got % a_prime != 0
        assert abs(x - Fraction(a_prime, got)) < eps
        assert Fraction(a_prime, got) > min_ratio


def test_denominator_zero_target():
    # pure ratio window: a_prime/m must land in (eps/2, eps)
    m = find_denominator_for_prime(3, 0, Fraction(1, 10), Fraction(1, 20))
    assert Fraction(1, 20) < Fraction(3, m) < Fraction(1, 10)
    assert m == 59
