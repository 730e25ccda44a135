import math
import random

import pytest

from unitprod import arith
from unitprod.arith import (
    DETERMINISTIC_PRIMALITY_BOUND,
    DETERMINISTIC_TAG,
    LUCAS_TAG,
    PROBABILISTIC_TAG,
    CongruenceClass,
    Factorization,
    crt,
    factorize,
    is_prime,
    jacobi,
    jacobsthal,
    lucas_n_plus_1,
    mod_inverse,
    next_prime,
    next_prime_in_ap,
    next_proved_prime_in_ap,
    primality_method,
    prime_factor_candidates,
    prove_prime,
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

import sympy


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


# ---------------------------------------------------------------- N+1 proof

def test_jacobi_against_sympy():
    rng = random.Random(1101)
    for _ in range(3000):
        n = rng.getrandbits(rng.randint(1, 90)) | 1
        a = rng.randint(-10**6, 10**30)
        assert jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)


def test_prime_factor_candidates_against_sympy():
    rng = random.Random(1102)
    for _ in range(300):
        values = [rng.getrandbits(rng.randint(1, 64)) + 1 for _ in range(rng.randint(1, 4))]
        expected = set()
        for v in values:
            factors = sympy.factorint(v)
            small = {q for q in factors if q < arith.SMALL_PRIME_LIMIT}
            expected |= small
            cofactor = v // math.prod(q ** factors[q] for q in small)
            if 1 < cofactor < DETERMINISTIC_PRIMALITY_BOUND:
                expected.add(cofactor)
        assert prime_factor_candidates(values) == tuple(sorted(expected, reverse=True))
    assert prime_factor_candidates([]) == prime_factor_candidates([1]) == ()


def _seeded_primes_below_minus_one(rng, count, bits):
    """(p, qs): primes p = -1 (mod prod qs), with (F-1)^2 > p, qs random primes."""
    found = []
    while len(found) < count:
        qs = [sympy.randprime(2, 2**rng.randint(2, bits)) for _ in range(rng.randint(1, 5))]
        f = math.prod(qs)
        if f < 4:
            continue
        p = f * rng.randint(1, f - 2) - 1  # below (f-1)^2
        if p > 3 and sympy.isprime(p):
            found.append((p, qs))
    return found


def test_lucas_proves_seeded_primes():
    rng = random.Random(1103)
    for p, qs in _seeded_primes_below_minus_one(rng, 200, 36):
        # F holds each q at its full valuation in p+1, so F >= prod(qs) > sqrt(p)+1
        assert lucas_n_plus_1(p, qs) is True, (p, qs)
        expected = LUCAS_TAG if p >= DETERMINISTIC_PRIMALITY_BOUND else DETERMINISTIC_TAG
        assert prove_prime(p, qs) == expected


def test_lucas_needs_q_equal_two():
    # p + 1 = 3 * 2^94: F = 3 alone is far too small, so the proof rests on 2
    p = 3 * 2**94 - 1
    assert sympy.isprime(p) and p > DETERMINISTIC_PRIMALITY_BOUND
    assert lucas_n_plus_1(p, [3]) is None
    assert lucas_n_plus_1(p, [2, 3]) is True
    assert lucas_n_plus_1(p, [2]) is True
    assert prove_prime(p, [3, 2]) == LUCAS_TAG


def test_lucas_never_proves_seeded_composites():
    rng = random.Random(1104)
    seen = 0
    while seen < 1500:
        qs = [sympy.randprime(2, 2**rng.randint(2, 40)) for _ in range(rng.randint(1, 5))]
        f = math.prod(qs)
        n = f * rng.randint(1, f - 1) - 1
        if n < 5 or sympy.isprime(n):
            continue
        seen += 1
        assert lucas_n_plus_1(n, qs) is not True, (n, qs)
        assert prove_prime(n, qs) is None


def _full_factor_list(n):
    return list(sympy.factorint(n + 1))


def test_lucas_never_proves_semiprimes():
    # n = r*s = -1 (mod F) with (F-1)^2 > n: s runs through the class -1/r mod F
    rng = random.Random(1105)
    for _ in range(60):
        qs = [sympy.randprime(2**8, 2**24) for _ in range(3)]
        f = math.prod(qs)
        r = sympy.randprime(2**10, 2**20)
        s = (-pow(r, -1, f)) % f
        while not sympy.isprime(s):
            s += f
        n = r * s
        assert (n + 1) % f == 0 and (f - 1) ** 2 > n
        assert lucas_n_plus_1(n, qs) is not True
        assert lucas_n_plus_1(n, _full_factor_list(n)) is not True
        assert prove_prime(n, qs) is None


# strong pseudoprimes to base 2 (the first few, then psi_1..psi_13 above),
# and Carmichael numbers, among them Chernick's (6k+1)(12k+1)(18k+1)
STRONG_BASE_2 = (2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041)


def _chernick(count, k=1):
    found = []
    while len(found) < count:
        parts = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(sympy.isprime(v) for v in parts):
            found.append(math.prod(parts))
        k += 1
    return found


def test_lucas_never_proves_pseudoprimes_or_carmichael_numbers():
    chernick = _chernick(12) + _chernick(3, 10**8)
    assert max(chernick) > DETERMINISTIC_PRIMALITY_BOUND
    for n in STRONG_BASE_2 + CARMICHAEL + PSI + tuple(chernick):
        assert not sympy.isprime(n)
        # with every prime factor of n+1, F = n+1 and (F-1)^2 > n always
        assert lucas_n_plus_1(n, _full_factor_list(n)) is not True, n
        assert prove_prime(n, _full_factor_list(n)) is None


def _lucas_v_by_matrix(p, k, n):
    """V_k(P, 1) mod n from the k-th power of the companion matrix
    [[P, -1], [1, 0]], applied to (V_1, V_0) = (P, 2)."""
    def mul(x, y):
        return [[sum(x[i][t] * y[t][j] for t in range(2)) % n for j in range(2)] for i in range(2)]

    result, base = [[1, 0], [0, 1]], [[p % n, n - 1], [1, 0]]
    while k:
        if k & 1:
            result = mul(result, base)
        base = mul(base, base)
        k >>= 1
    return (result[1][0] * p + result[1][1] * 2) % n


# composites n with (5/n) = -1 and V_{n+1}(3, 1) = 2 (mod n): P = 3 passes the
# check on V_{n+1}, so only the gcd conditions can reject them
LUCAS_V_PSEUDOPRIMES = (323, 377, 1127, 2303, 3827, 5777, 6137, 10877, 10933, 11663, 14027)


def test_lucas_never_proves_lucas_pseudoprimes():
    for n in LUCAS_V_PSEUDOPRIMES:
        assert not sympy.isprime(n) and sympy.jacobi_symbol(5, n) == -1
        assert _lucas_v_by_matrix(3, n + 1, n) == 2
        assert lucas_n_plus_1(n, _full_factor_list(n)) is not True, n


def test_lucas_does_not_apply_to_perfect_squares():
    rng = random.Random(1107)
    for _ in range(40):
        r = sympy.randprime(5000, 2**32)  # above every D = P^2 - 4 tried
        n = r * r
        assert all(jacobi(p * p - 4, n) != -1 for p in range(3, 3 + arith.LUCAS_PARAMETERS))
        assert lucas_n_plus_1(n, _full_factor_list(n)) is None
        assert prove_prime(n, _full_factor_list(n)) is None


def test_lucas_ignores_composite_or_non_dividing_factors():
    rng = random.Random(1108)
    for p, qs in _seeded_primes_below_minus_one(rng, 60, 40):
        f = math.prod(qs)
        # the same F offered as one composite "prime", or as composites of pairs
        assert lucas_n_plus_1(p, [f] if not sympy.isprime(f) else []) is None
        # primes that do not divide p+1 add nothing
        strangers = [q for q in sympy.primerange(2, 400) if (p + 1) % q]
        assert lucas_n_plus_1(p, strangers) is None
    # a composite n whose n+1 the composite "prime" covers is not proved either
    n = 341  # 11 * 31, n + 1 = 342 = 2 * 3^2 * 19
    assert lucas_n_plus_1(n, [342]) is None
    assert lucas_n_plus_1(n, [171, 2]) is None
    # 8321 = 53 * 157 passes trial division and the first base, 2
    assert 8321 in STRONG_BASE_2 and not sympy.isprime(8321)
    p = next(p for p in (8321 * k - 1 for k in range(2, 8320, 2)) if sympy.isprime(p))
    assert lucas_n_plus_1(p, [8321]) is None
    # a prime above DETERMINISTIC_PRIMALITY_BOUND is not a usable factor
    big = next_prime(DETERMINISTIC_PRIMALITY_BOUND)
    p = next(p for p in (big * k - 1 for k in range(2, 10**4, 2)) if sympy.isprime(p))
    assert lucas_n_plus_1(p, [big]) is None


def _boundary_pair(rng):
    """F = 6 * (primes above 5), with n_hi = F(F-5) - 1 and n_lo = F(F-1) - 1
    both prime. n = Fk - 1 has exactly F as the part of n+1 over F's primes
    iff gcd(k, F) = 1, which rules out k = F-4, F-3, F-2; so these are the
    nearest such n on either side of (F-1)^2 = n: (F-1)^2 - n_hi = 3F + 2
    and n_lo - (F-1)^2 = F - 2."""
    while True:
        qs = [2, 3] + [sympy.randprime(7, 2**rng.randint(3, 14)) for _ in range(rng.randint(0, 2))]
        f = math.prod(qs)
        n_hi, n_lo = f * (f - 5) - 1, f * (f - 1) - 1
        if sympy.isprime(n_hi) and sympy.isprime(n_lo):
            return qs, f, n_hi, n_lo


def test_lucas_bound_on_both_sides():
    rng = random.Random(1109)
    for _ in range(20):
        qs, f, n_hi, n_lo = _boundary_pair(rng)
        assert (f - 1) ** 2 > n_hi and (f - 1) ** 2 <= n_lo < f**2
        assert lucas_n_plus_1(n_hi, qs) is True
        assert lucas_n_plus_1(n_lo, qs) is None


def test_prove_prime_tags_on_both_sides_of_the_bound():
    rng = random.Random(1110)
    bound = DETERMINISTIC_PRIMALITY_BOUND
    below = sympy.prevprime(bound)
    assert prove_prime(below) == prove_prime(below, _full_factor_list(below)) == DETERMINISTIC_TAG
    assert prove_prime(below - 2 if not sympy.isprime(below - 2) else below - 4) is None
    above = sympy.nextprime(bound)
    assert prove_prime(above) == PROBABILISTIC_TAG
    assert prove_prime(above, _full_factor_list(above)) == LUCAS_TAG
    assert prove_prime(bound, _full_factor_list(bound)) is None  # psi_13 itself
    mersenne_89 = 2**89 - 1
    assert prove_prime(mersenne_89, _full_factor_list(mersenne_89)) == LUCAS_TAG  # 2^89
    assert prove_prime(mersenne_89 * 1000003, [2]) is None
    for p, qs in _seeded_primes_below_minus_one(rng, 20, 60):
        proof = prove_prime(p, qs)
        assert proof == (DETERMINISTIC_TAG if p < bound else LUCAS_TAG)
        # is_prime agrees with every tag
        assert is_prime(p)


def test_next_proved_prime_in_ap_matches_next_prime_in_ap():
    rng = random.Random(1111)
    for _ in range(40):
        tail = [sympy.randprime(2**20, 2**40) for _ in range(rng.randint(1, 3))]
        tail[0] *= rng.choice((1, 2, 6))
        m = math.prod(tail)
        cls = CongruenceClass(-1, m)
        lower = rng.getrandbits(rng.randint(40, 140))
        p, proof = next_proved_prime_in_ap(cls, lower, tail)
        assert p == next_prime_in_ap(cls, lower)
        assert sympy.isprime(p)
        assert proof == prove_prime(p, prime_factor_candidates(tail))
        if p < DETERMINISTIC_PRIMALITY_BOUND:
            assert proof == DETERMINISTIC_TAG
        elif (m - 1) ** 2 > p:
            assert proof == LUCAS_TAG


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
