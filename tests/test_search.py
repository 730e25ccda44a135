import math
import random
from fractions import Fraction

import pytest

from unitprod.arith import jacobsthal, next_prime
from unitprod.errors import NoCandidate
from unitprod.search import find_coprime_numerator, find_denominator_for_prime


def brute_numerator(x, b, Q, eps, min_ratio):
    """Argmin over all a in [1, b) satisfying the constraints, ties toward
    the smaller numerator; None when nothing is admissible. Only a with
    |x - a/b| < eps can be admissible, so the scan covers that range and a
    margin of one on each side."""
    best = None
    for a in range(max(1, math.floor((x - eps) * b)), min(b, math.ceil((x + eps) * b) + 1)):
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
    """Argmin over all m in (a_prime, a_prime + ceil(2*a_prime/eps)], ties
    toward the smaller m. Only m with x - eps < a_prime/m < x + eps and
    a_prime/m > min_ratio can be admissible, so the scan covers the m those
    bounds leave and a margin of one on each side."""
    cap = a_prime + math.ceil(2 * a_prime / eps)
    low = max(x - eps, min_ratio)
    if low > 0:
        cap = min(cap, math.floor(a_prime / low) + 1)
    best = None
    for m in range(max(a_prime + 1, math.floor(a_prime / (x + eps)) - 1), cap + 1):
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


# ------------------------------------------------- at the certify workload's scale

CERTIFY_EPS = (Fraction(1, 20), Fraction(1, 200), Fraction(1, 2000))


def coordinate(rng, eps):
    """k/1000, with 0, 1 and values below eps drawn often."""
    roll = rng.random()
    if roll < 0.1:
        return Fraction(rng.randint(0, 1))
    if roll < 0.25:
        return Fraction(rng.randrange(math.ceil(eps * 1000)), 1000)
    return Fraction(rng.randint(1, 999), 1000)


def check_numerator(x, b, Q, eps, min_ratio):
    expected = brute_numerator(x, b, Q, eps, min_ratio)
    try:
        got = find_coprime_numerator(x, b, Q, eps, min_ratio)
    except NoCandidate:
        assert expected is None, (x, b, Q, eps, min_ratio)
        return None
    assert expected is not None and got == expected[0], (x, b, Q, eps, min_ratio)
    return got


def check_denominator(a_prime, x, eps, min_ratio):
    expected = brute_denominator(a_prime, x, eps, min_ratio)
    try:
        got = find_denominator_for_prime(a_prime, x, eps, min_ratio)
    except NoCandidate:
        assert expected is None, (a_prime, x, eps, min_ratio)
        return None
    assert expected is not None and got == expected[0], (a_prime, x, eps, min_ratio)
    return got


def test_numerator_oracle_at_certify_scale():
    rng = random.Random(2004)
    found = 0
    for _ in range(200):
        eps = rng.choice(CERTIFY_EPS)
        # b up to 10^6, with a window of at most ~1000 numerators to brute-force
        b = rng.randint(2, min(10**6, int(500 / eps)))
        Q = b * rng.choice((1, 1, 2 * 3 * 5 * 7, 11 * 13, rng.randint(2, 10**4)))
        x = coordinate(rng, eps)
        found += check_numerator(x, b, Q, eps, eps / 2) is not None
    assert found > 100


def test_denominator_oracle_at_certify_scale():
    rng = random.Random(2005)
    found = 0
    for _ in range(200):
        eps = rng.choice(CERTIFY_EPS)
        x = coordinate(rng, eps)
        # the window holds about 2*a_prime*eps/x^2 denominators (a_prime/eps
        # when x < eps); keep it near 1000 so the brute force stays cheap
        width = max(x, eps) ** 2 / eps
        a_prime = next_prime(rng.randint(2, max(2, min(10**6, int(500 * width)))))
        found += check_denominator(a_prime, x, eps, eps / 2) is not None
    assert found > 100


def test_window_ends_on_an_integer_are_excluded():
    # x = 1/2, b = 10, eps = 1/5: the window (3, 7) has integer ends; 4, 5
    # and 6 share a factor with 10, and 3 and 7 sit exactly on the ends
    with pytest.raises(NoCandidate):
        find_coprime_numerator(Fraction(1, 2), 10, 10, Fraction(1, 5))
    assert brute_numerator(Fraction(1, 2), 10, 10, Fraction(1, 5), 0) is None
    rng = random.Random(2006)
    for _ in range(200):
        eps = rng.choice(CERTIFY_EPS)
        # b a multiple of 1000 puts x*b -+ eps*b and min_ratio*b on integers
        b = 1000 * rng.randint(1, min(100, int(1 / eps)))
        Q = b * rng.choice((1, 3, 7, 2 * 3 * 5 * 7))
        got = check_numerator(coordinate(rng, eps), b, Q, eps, eps / 2)
        if got is not None:
            assert got != b * eps / 2
    ran = 0
    for _ in range(200):
        # a_prime/m0 is exactly x + eps or x - eps, and sometimes min_ratio
        eps = rng.choice(CERTIFY_EPS)
        a_prime = next_prime(rng.randint(2, 10**4))
        m0 = rng.randint(a_prime + 1, 3 * a_prime)
        edge = Fraction(a_prime, m0)
        x = edge + rng.choice((eps, -eps))
        if not 0 <= x <= 1 or a_prime * eps / max(x, eps) ** 2 > 500:
            continue  # too wide a window to brute-force
        ran += 1
        got = check_denominator(a_prime, x, eps, rng.choice((eps / 2, edge)))
        assert got != m0
    assert ran > 100


def test_exact_distance_ties_go_to_the_smaller_value():
    # x*b = 5 lies halfway between 3 and 7, the numerators coprime to 10
    assert find_coprime_numerator(Fraction(1, 2), 10, 10, Fraction(1, 5) + Fraction(1, 1000)) == 3
    # 29/40 and 29/41 sit equally far from their midpoint
    x = (Fraction(29, 40) + Fraction(29, 41)) / 2
    assert find_denominator_for_prime(29, x, Fraction(1, 20), Fraction(1, 40)) == 40
    rng = random.Random(2007)
    for _ in range(200):
        eps = rng.choice(CERTIFY_EPS)
        b = rng.randint(3, int(500 / eps))
        j = rng.randint(1, b - 2)
        x = Fraction(2 * j + 1, 2 * b)  # x*b is j + 1/2, halfway between j and j+1
        Q = b * rng.choice((1, 2, 3, 30))
        got = check_numerator(x, b, Q, max(eps, Fraction(2, b)), 0)
        if got is not None and math.gcd(j, Q) == 1:
            assert got == j
    for _ in range(200):
        a_prime = next_prime(rng.randint(2, 10**5))
        m1 = rng.randint(a_prime + 1, 20 * a_prime)
        m2 = m1 + rng.randint(1, 3)
        x = (Fraction(a_prime, m1) + Fraction(a_prime, m2)) / 2
        gap = Fraction(a_prime, m1) - x
        eps = max(2 * gap, Fraction(1, 2000))
        if a_prime * eps / x**2 > 500:
            continue  # too wide a window to brute-force
        got = check_denominator(a_prime, x, eps, 0)
        if got is not None and m1 % a_prime and m2 - m1 == 1:
            assert got == m1
