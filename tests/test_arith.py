import math
import random

import pytest

from unitprod import arith
from unitprod.arith import (
    CongruenceClass,
    DETERMINISTIC_PRIMALITY_BOUND,
    Factorization,
    crt,
    factorize,
    is_prime,
    jacobsthal,
    mod_inverse,
    next_prime,
    next_prime_in_ap,
    primality_method,
    strict_ceil,
    strict_floor,
)
from unitprod.errors import (
    InputTooLarge,
    ModuliNotCoprime,
    NotCoprime,
    SearchExhausted,
)
from fractions import Fraction


# ---------------------------------------------------------------- strict floor/ceil

def test_strict_bounds():
    assert strict_floor(Fraction(3)) == 2
    assert strict_floor(Fraction(7, 2)) == 3
    assert strict_ceil(Fraction(3)) == 4
    assert strict_ceil(Fraction(7, 2)) == 4
    assert strict_floor(Fraction(-3, 2)) == -2
    assert strict_ceil(Fraction(-3, 2)) == -1
    # numerator and denominator given apart, any representation of the value
    assert strict_floor(14, 4) == strict_floor(7, 2) == 3
    assert strict_ceil(14, 4) == strict_ceil(7, 2) == 4
    assert strict_floor(12, 4) == 2 and strict_ceil(12, 4) == 4
    assert strict_floor(-6, 4) == -2 and strict_ceil(-6, 4) == -1
    for num in range(-30, 31):
        for den in range(1, 8):
            assert strict_floor(num, den) == strict_floor(Fraction(num, den))
            assert strict_ceil(num, den) == strict_ceil(Fraction(num, den))
            assert strict_floor(num, den) < Fraction(num, den) <= strict_floor(num, den) + 1
            assert strict_ceil(num, den) - 1 <= Fraction(num, den) < strict_ceil(num, den)


# ---------------------------------------------------------------- mod_inverse

def test_mod_inverse_examples():
    assert mod_inverse(1, 2) == 1
    assert mod_inverse(3, 7) == 5  # brute-force scan over [1, 7)
    with pytest.raises(NotCoprime):
        mod_inverse(4, 6)
    with pytest.raises(ValueError):
        mod_inverse(3, 1)


def test_mod_inverse_against_scan():
    for m in range(2, 40):
        for a in range(1, m):
            expected = next((x for x in range(1, m) if a * x % m == 1), None)
            if expected is None:
                with pytest.raises(NotCoprime):
                    mod_inverse(a, m)
            else:
                assert mod_inverse(a, m) == expected


def test_mod_inverse_random_pairs():
    rng = random.Random(1001)
    done = 0
    while done < 1000:
        m = rng.randint(2, 10**9)
        a = rng.randint(1, 10**12)
        if math.gcd(a, m) != 1:
            continue
        x = mod_inverse(a, m)
        assert 1 <= x < m
        assert a * x % m == 1
        done += 1


# ---------------------------------------------------------------- crt

def test_crt_examples():
    assert crt([CongruenceClass(1, 2), CongruenceClass(14, 15)]) == CongruenceClass(29, 30)
    assert crt([CongruenceClass(0, 1)]) == CongruenceClass(0, 1)
    with pytest.raises(ModuliNotCoprime):
        crt([CongruenceClass(2, 4), CongruenceClass(3, 6)])
    with pytest.raises(ValueError):
        crt([])


def test_crt_against_scan():
    rng = random.Random(1002)
    for _ in range(200):
        count = rng.randint(1, 3)
        moduli = []
        while len(moduli) < count:
            m = rng.randint(1, 60)
            if all(math.gcd(m, other) == 1 for other in moduli):
                moduli.append(m)
        classes = [CongruenceClass(rng.randrange(m), m) for m in moduli]
        product = math.prod(moduli)
        assert product <= 10**6
        expected = [
            r for r in range(product)
            if all(r % c.modulus == c.residue for c in classes)
        ]
        combined = crt(classes)
        assert combined.modulus == product
        assert expected == [combined.residue]


def test_congruence_class_normalizes():
    assert CongruenceClass(-1, 15) == CongruenceClass(14, 15)
    assert CongruenceClass(31, 30).residue == 1
    with pytest.raises(ValueError):
        CongruenceClass(0, 0)


# ---------------------------------------------------------------- is_prime

def _trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_examples():
    assert is_prime(29)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael number


def test_is_prime_small_range():
    for n in range(1, 3000):
        assert is_prime(n) == _trial_division(n)


def test_is_prime_large():
    mersenne_89 = 2**89 - 1  # above the deterministic bound, known prime
    assert mersenne_89 > DETERMINISTIC_PRIMALITY_BOUND
    assert is_prime(mersenne_89)
    assert not is_prime(mersenne_89 * 1000003)
    assert primality_method(mersenne_89) == "miller-rabin-probabilistic-64"
    assert primality_method(29) == "miller-rabin-deterministic"


# psi_k, the least strong pseudoprime to all of the first k prime bases, for
# k = 1..13 (Pomerance, Selfridge & Wagstaff 1980; Jaeschke 1993; Jiang &
# Deng 2014; Sorenson & Webster 2017), written out apart from arith's table
PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, bases):
    """True iff odd n > 1 passes the strong test to every base in bases."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    return all(arith._miller_rabin_passes(n, a, d, s) for a in bases)


def _full_13_base_test(n):
    """Trial division by the 13 bases, then all 13 of them as witnesses."""
    if n < 2:
        return False
    for p in BASES:
        if n % p == 0:
            return n == p
    return _strong_probable_prime(n, BASES)


def test_psi_table_is_tight():
    # psi_k passes the first k bases, so no base count below the table's is
    # enough for it; is_prime, which grades its bases by size, rejects it
    assert PSI[-1] == DETERMINISTIC_PRIMALITY_BOUND
    # arith's rows: each distinct psi_k with the fewest bases proved for it
    assert [bound for bound, _ in arith._BASE_COUNTS] == sorted(set(PSI))
    for bound, k in arith._BASE_COUNTS:
        assert bound == PSI[k - 1] and (k == 1 or PSI[k - 2] < bound)
    for k, psi in enumerate(PSI, start=1):
        assert _strong_probable_prime(psi, BASES[:k])
        assert not is_prime(psi)


def test_is_prime_around_each_psi():
    for psi in PSI:
        for n in range(psi - 40, psi + 41):
            if n < DETERMINISTIC_PRIMALITY_BOUND and n not in PSI:
                assert is_prime(n) == _full_13_base_test(n), n
        if psi < DETERMINISTIC_PRIMALITY_BOUND:
            assert {primality_method(n) for n in (psi - 1, psi, psi + 1)} == {
                "miller-rabin-deterministic"
            }
    bound = DETERMINISTIC_PRIMALITY_BOUND
    assert primality_method(bound - 1) == "miller-rabin-deterministic"
    assert primality_method(bound) == primality_method(bound + 1) == (
        "miller-rabin-probabilistic-64"
    )


def test_is_prime_matches_full_base_set():
    rng = random.Random(1004)
    primes = 0
    for _ in range(20_000):
        bits = rng.randint(2, 81)
        n = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
        assert n < DETERMINISTIC_PRIMALITY_BOUND
        expected = _full_13_base_test(n)
        assert is_prime(n) == expected, n
        primes += expected
    assert primes > 500  # the sample is not all composites


def test_next_prime_matches_full_scan():
    # odd-only stepping must find the prime the all-integer scan finds
    for lower in range(-3, 3000):
        assert next_prime(lower) == next_prime_in_ap(CongruenceClass(0, 1), lower)
    rng = random.Random(1005)
    for _ in range(200):
        lower = rng.getrandbits(rng.randint(20, 100))
        assert next_prime(lower) == next_prime_in_ap(CongruenceClass(0, 1), lower)


# ---------------------------------------------------------------- next_prime_in_ap

def test_next_prime_in_ap_examples():
    assert next_prime_in_ap(CongruenceClass(29, 30), 2) == 29
    assert next_prime_in_ap(CongruenceClass(29, 30), 30) == 59
    # residue 1 mod 1 normalizes to 0 mod 1: every integer qualifies
    assert next_prime_in_ap(CongruenceClass(1, 1), 8) == 11


def test_next_prime_in_ap_properties():
    rng = random.Random(1003)
    for _ in range(100):
        m = rng.randint(1, 50)
        r = rng.randrange(m)
        if math.gcd(r, m) != 1:
            continue
        lower = rng.randint(1, 1000)
        p = next_prime_in_ap(CongruenceClass(r, m), lower)
        assert p >= lower and p % m == r and _trial_division(p)
        # nothing smaller in the progression is prime
        q = lower + (r - lower) % m
        while q < p:
            assert not _trial_division(q)
            q += m


def test_next_prime_in_ap_errors(monkeypatch):
    with pytest.raises(NotCoprime):
        next_prime_in_ap(CongruenceClass(2, 4), 10)
    monkeypatch.setattr(arith, "DEFAULT_PRIME_SEARCH_STEPS", 1)
    with pytest.raises(SearchExhausted, match="within 1 terms"):
        next_prime_in_ap(CongruenceClass(1, 10**6), 2)


# ---------------------------------------------------------------- factorize

def test_factorize_examples():
    assert factorize(30).prime_powers == ((2, 1), (3, 1), (5, 1))
    assert factorize(1) == Factorization(1, ())
    assert factorize(1372).prime_powers == ((2, 2), (7, 3))


def test_factorize_random():
    rng = random.Random(1004)
    for _ in range(200):
        n = rng.randint(1, 10**6)
        fac = factorize(n)
        assert fac.base == n
        product = 1
        previous = 0
        for p, e in fac.prime_powers:
            assert p > previous and e >= 1 and _trial_division(p)
            product *= p**e
            previous = p
        assert product == n
        assert fac.omega == len(fac.prime_powers)


def test_factorize_beyond_trial_limit():
    p, q = 1_000_003, 1_000_033  # both prime, both above the trial limit
    with pytest.raises(InputTooLarge):
        factorize(p * q)
    # a single prime cofactor above the limit is recognised as prime
    big = 10**13 + 37
    assert factorize(8 * big).prime_powers == ((2, 3), (big, 1))


# ---------------------------------------------------------------- jacobsthal

def _gap_oracle(b):
    # direct gcd walk over two periods
    gap, run = 1, 0
    for i in range(1, 2 * b + 1):
        if math.gcd(i, b) == 1:
            gap = max(gap, run + 1)
            run = 0
        else:
            run += 1
    return gap


def test_jacobsthal_examples():
    assert jacobsthal(1) == 1
    assert jacobsthal(2) == 2
    assert jacobsthal(6) == 4
    assert jacobsthal(30) == 6
    assert jacobsthal(210) == 10


def test_jacobsthal_against_oracle():
    for b in range(1, 400):
        assert jacobsthal(b) == _gap_oracle(b), b


def test_jacobsthal_window_semantics():
    for b in (2, 6, 30, 210):
        g = jacobsthal(b)
        windows = range(1, 2 * b + 1)
        assert all(
            any(math.gcd(s + j, b) == 1 for j in range(g)) for s in windows
        )
        assert not all(
            any(math.gcd(s + j, b) == 1 for j in range(g - 1)) for s in windows
        )


def test_jacobsthal_budget():
    with pytest.raises(InputTooLarge):
        jacobsthal(10**7 + 1)
