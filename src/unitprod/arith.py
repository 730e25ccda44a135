"""Exact integer and rational primitives shared by the whole pipeline.

Everything here is deterministic and exact: no floating point ever enters a
certificate-relevant computation.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import InputTooLarge, ModuliNotCoprime, NotCoprime, SearchExhausted

# Largest n for which the fixed Miller-Rabin base set below is a proven
# deterministic primality test (Sorenson & Webster, first 13 primes).
DETERMINISTIC_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_k, k): psi_k is the least strong pseudoprime to all of the first k
# prime bases (Pomerance, Selfridge & Wagstaff 1980; Jaeschke 1993; Jiang &
# Deng 2014; Sorenson & Webster 2017), so for n < psi_k those k bases decide
# n. psi_8 = psi_7 and psi_9 = psi_10 = psi_11, hence no rows for k = 8, 10,
# 11; psi_12 needs all 12 bases.
_BASE_COUNTS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (DETERMINISTIC_PRIMALITY_BOUND, 13),
)
DEFAULT_MILLER_RABIN_ROUNDS = 64

# primality tags stored in certificates
DETERMINISTIC_TAG = "miller-rabin-deterministic"
PROBABILISTIC_TAG = f"miller-rabin-probabilistic-{DEFAULT_MILLER_RABIN_ROUNDS}"
LUCAS_TAG = "lucas-n-plus-1"
# values of P that lucas_n_plus_1 tries, from 3 up
LUCAS_PARAMETERS = 64
# prime_factor_candidates finds by gcd every prime factor below this
SMALL_PRIME_LIMIT = 2**12

TRIAL_DIVISION_LIMIT = 10**6
JACOBSTHAL_SCAN_LIMIT = 10**7

DEFAULT_PRIME_SEARCH_STEPS = 100_000


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of a positive integer, primes strictly increasing."""

    base: int
    prime_powers: tuple[tuple[int, int], ...]

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.prime_powers)


@dataclass(frozen=True)
class CongruenceClass:
    """Residue class modulo `modulus`; the residue is stored in [0, modulus)."""

    residue: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def __str__(self) -> str:
        return f"{self.residue} mod {self.modulus}"

    def contains(self, value: int) -> bool:
        return value % self.modulus == self.residue


def strict_floor(num: Fraction | int, den: int = 1) -> int:
    """Largest integer strictly less than num/den, for den > 0.

    >>> strict_floor(14, 4), strict_floor(Fraction(7, 2)), strict_floor(3)
    (3, 3, 2)
    """
    return -(-num // den) - 1


def strict_ceil(num: Fraction | int, den: int = 1) -> int:
    """Smallest integer strictly greater than num/den, for den > 0.

    >>> strict_ceil(14, 4), strict_ceil(Fraction(7, 2)), strict_ceil(3)
    (4, 4, 4)
    """
    return num // den + 1


def as_fraction(q: Fraction | int | str) -> Fraction:
    """q as a Fraction, returning a Fraction argument itself (they are
    immutable) instead of a copy."""
    return q if type(q) is Fraction else Fraction(q)


def check_eps(eps: Fraction | int | str) -> Fraction:
    """eps as a Fraction; ValueError unless 0 < eps <= 1."""
    eps = as_fraction(eps)
    if not 0 < eps.numerator <= eps.denominator:
        raise ValueError("eps must lie in (0, 1]")
    return eps


def mod_inverse(a: int, m: int) -> int:
    """Multiplicative inverse of a modulo m, in [1, m).

    Requires m >= 2 and gcd(a, m) = 1; raises NotCoprime otherwise.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotCoprime(f"{a} is not invertible modulo {m}") from None


def crt(classes: Sequence[CongruenceClass]) -> CongruenceClass:
    """Combine congruences with pairwise coprime moduli into one class.

    >>> crt([CongruenceClass(1, 2), CongruenceClass(14, 15)])
    CongruenceClass(residue=29, modulus=30)
    """
    if not classes:
        raise ValueError("need at least one congruence")
    r, m = classes[0].residue, classes[0].modulus
    for cls in classes[1:]:
        r2, m2 = cls.residue, cls.modulus
        if math.gcd(m, m2) != 1:
            raise ModuliNotCoprime(f"moduli {m} and {m2} share a factor")
        if m2 > 1:
            # r + m*t = r2 (mod m2)
            t = ((r2 - r) * pow(m, -1, m2)) % m2
            r += m * t
        m *= m2
    return CongruenceClass(r % m, m)


def _miller_rabin_passes(n: int, a: int, d: int, s: int) -> bool:
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Trial division by the 13 primes 2..41, then Miller-Rabin.

    Deterministic below DETERMINISTIC_PRIMALITY_BOUND: n gets the first k of
    those primes as bases, the least k that _BASE_COUNTS proves enough for
    its size. Above it, DEFAULT_MILLER_RABIN_ROUNDS bases are drawn from an
    RNG seeded by n itself, so the answer is still reproducible run to run.
    """
    if n < 2:
        return False
    for p in _DETERMINISTIC_BASES:
        if n % p == 0:
            return n == p
    return all(_strong_tests(n))


def _strong_tests(n: int) -> Iterator[bool]:
    """is_prime's Miller-Rabin rounds for n > 41, run lazily one per item:
    most composites fail on the first base."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < DETERMINISTIC_PRIMALITY_BOUND:
        k = next(k for bound, k in _BASE_COUNTS if n < bound)
        bases: Iterable[int] = _DETERMINISTIC_BASES[:k]
    else:
        rng = random.Random(n)
        bases = (rng.randrange(2, n - 1) for _ in range(DEFAULT_MILLER_RABIN_ROUNDS))
    return (_miller_rabin_passes(n, a, d, s) for a in bases)


def _first_test_passes(n: int) -> bool:
    """is_prime's trial division and its first Miller-Rabin base only."""
    for p in _DETERMINISTIC_BASES:
        if n % p == 0:
            return n == p
    return next(_strong_tests(n))


def primality_method(n: int) -> str:
    """Tag recording how is_prime decides n (stored in certificates)."""
    if n < DETERMINISTIC_PRIMALITY_BOUND:
        return DETERMINISTIC_TAG
    return PROBABILISTIC_TAG


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0.

    >>> jacobi(5, 7), jacobi(2, 7), jacobi(21, 15)
    (-1, 1, 0)
    """
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _lucas_v(p: int, k: int, n: int) -> int:
    """V_k(P, 1) mod n, from the ladder on the pairs (V_j, V_j+1).

    With Q = 1, V_j(V_k(P)) = V_jk(P), so a ladder may start from the value
    of another one.
    """
    v, w = 2, p % n
    for bit in bin(k)[2:]:
        if bit == "1":
            v, w = (v * w - p) % n, (w * w - 2) % n
        else:
            v, w = (v * v - 2) % n, (v * w - p) % n
    return v


def lucas_n_plus_1(n: int, primes: Iterable[int]) -> bool | None:
    """N+1 primality proof of odd n from known prime factors of n+1
    (Morrison 1975; Brillhart, Lehmer & Selfridge 1975).

    Returns True when the proof shows n prime, False when it shows n
    composite, None when it does not apply. A candidate q counts only if it
    is a prime below DETERMINISTIC_PRIMALITY_BOUND (is_prime decides it)
    that divides n+1, and it enters F at its full valuation in n+1; the
    largest come first, until (F-1)^2 > n. Then one Lucas sequence with
    Q = 1 and D = P^2 - 4, (D/n) = -1, must satisfy

        V_{n+1} = 2 (mod n)  and  gcd(V_{(n+1)/q} - 2, n) = 1 for each q | F.

    Why this proves n prime: let r be a prime factor of n and alpha a root
    of x^2 - Px + 1 modulo r. (D/n) = -1 makes D a unit mod r, so
    V_{n+1} = 2 gives alpha^(n+1) = 1, and V_m - 2 is the norm of
    alpha^m - 1, so alpha^((n+1)/q) != 1. The order of alpha thus holds q
    to its full power in n+1 for every q | F, so F divides it, and it
    divides r - (D/r). Every prime factor of n is then at least F - 1, which
    exceeds sqrt(n). The argument needs one alpha for all q, hence one P.
    P takes the LUCAS_PARAMETERS values from 3 up; a perfect square n never
    gets (D/n) = -1, so it ends in None. Each V_{(n+1)/q} is V_{F/q} of
    W = V_{(n+1)/F}, so the ladders per q run over F/q, not (n+1)/q.

    The usual form asks gcd(U_{(n+1)/q}, n) = 1 instead. Since
    D * U_m^2 = (V_m - 2)(V_m + 2) that implies the condition above, and
    with Q = 1 it fails for q = 2 at every prime n (alpha^((n+1)/2) = +-1
    makes U_{(n+1)/2} vanish), so q = 2 could never enter F.
    """
    if n < 3 or n % 2 == 0:
        return None
    m = n + 1
    powers = {}
    for q in sorted(set(primes), reverse=True):
        # most composites fail is_prime's first base, which costs a full
        # test's fraction: a hopeless F is given up before any full test
        if 1 < q < DETERMINISTIC_PRIMALITY_BOUND and m % q == 0 and _first_test_passes(q):
            power = q
            while m % (power * q) == 0:
                power *= q
            powers[q] = power
    # reach bounds F from above, dropping each candidate is_prime rejects
    f, reach = 1, math.prod(powers.values())
    used = []
    for q, power in powers.items():
        if (f - 1) ** 2 > n or (reach - 1) ** 2 <= n:
            break
        if is_prime(q):
            f *= power
            used.append(q)
        else:
            reach //= power
    if (f - 1) ** 2 <= n:
        return None
    for p in range(3, 3 + LUCAS_PARAMETERS):
        d = p * p - 4
        symbol = jacobi(d, n)
        if symbol == 0 and d % n:
            return False  # 1 < gcd(d, n) < n
        if symbol != -1:
            continue
        w = _lucas_v(p, m // f, n)
        if _lucas_v(w, f, n) != 2:
            return False
        if all(math.gcd(_lucas_v(w, f // q, n) - 2, n) == 1 for q in used):
            return True
    return None


def prove_prime(n: int, primes: Iterable[int] = ()) -> str | None:
    """The tag of the test that shows n prime, or None when n is composite.

    Below DETERMINISTIC_PRIMALITY_BOUND that is is_prime. Above it, n gets
    is_prime's trial division and first seeded round, then the N+1 proof
    from `primes`, candidate prime factors of n+1; only where that proof
    does not apply does n get is_prime's other rounds.
    """
    if n < DETERMINISTIC_PRIMALITY_BOUND:
        return DETERMINISTIC_TAG if is_prime(n) else None
    if any(n % p == 0 for p in _DETERMINISTIC_BASES):
        return None
    rounds = _strong_tests(n)
    if not next(rounds):
        return None
    proof = lucas_n_plus_1(n, primes)
    if proof is not None:
        return LUCAS_TAG if proof else None
    return PROBABILISTIC_TAG if all(rounds) else None


@functools.cache
def _small_prime_tree() -> tuple[tuple[int, ...], ...]:
    """Product tree of the primes below SMALL_PRIME_LIMIT: the primes, then
    each level the products of adjacent pairs of the one below, up to the
    primorial. Built on first use."""
    sieve = bytearray([1]) * SMALL_PRIME_LIMIT
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(SMALL_PRIME_LIMIT) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, SMALL_PRIME_LIMIT, i)))
    level = tuple(i for i, flag in enumerate(sieve) if flag)
    tree = [level]
    while len(level) > 1:
        level = tuple(math.prod(level[i : i + 2]) for i in range(0, len(level), 2))
        tree.append(level)
    return tuple(tree)


def prime_factor_candidates(values: Iterable[int]) -> tuple[int, ...]:
    """Candidate prime factors of the positive values, largest first.

    Each value gives every prime below SMALL_PRIME_LIMIT that divides it,
    found by gcds down a product tree of those primes, and its cofactor
    after removing them if that is below DETERMINISTIC_PRIMALITY_BOUND: a
    prime, or a product of primes above SMALL_PRIME_LIMIT, which
    lucas_n_plus_1 rejects when it tests the candidates it uses.

    >>> prime_factor_candidates([2 * 3**2 * 4099, 35])
    (4099, 7, 5, 3, 2)
    """
    tree = _small_prime_tree()
    found = set()
    for v in values:
        nodes = [0] if math.gcd(v, tree[-1][0]) > 1 else []
        for level in reversed(tree[:-1]):
            nodes = [
                c for i in nodes for c in (2 * i, 2 * i + 1)
                if c < len(level) and math.gcd(v, level[c]) > 1
            ]
        for i in nodes:
            q = tree[0][i]
            found.add(q)
            while v % q == 0:
                v //= q
        if 1 < v < DETERMINISTIC_PRIMALITY_BOUND:
            found.add(v)
    return tuple(sorted(found, reverse=True))


def next_proved_prime_in_ap(
    cls: CongruenceClass, lower: int, terms: Sequence[int] = ()
) -> tuple[int, str]:
    """Smallest prime p >= lower in the residue class, and prove_prime's tag
    for it.

    The candidate factors of p+1 for the N+1 proof come from `terms`,
    factored once, at the first term of the progression above
    DETERMINISTIC_PRIMALITY_BOUND. Scans the progression term by term.
    Existence is guaranteed whenever gcd(residue, modulus) = 1; the cap of
    DEFAULT_PRIME_SEARCH_STEPS terms is purely pragmatic.
    """
    r, m = cls.residue, cls.modulus
    if math.gcd(r, m) != 1:
        raise NotCoprime(f"class {cls} contains at most one prime")
    lower = max(lower, 2)
    candidate = lower + (r - lower) % m
    primes: tuple[int, ...] | None = None
    for _ in range(DEFAULT_PRIME_SEARCH_STEPS):
        if primes is None and candidate >= DETERMINISTIC_PRIMALITY_BOUND:
            primes = prime_factor_candidates(terms)
        method = prove_prime(candidate, primes or ())
        if method is not None:
            return candidate, method
        candidate += m
    raise SearchExhausted(
        f"no prime = {r} (mod {m}) within {DEFAULT_PRIME_SEARCH_STEPS} terms "
        f"at or above {lower}"
    )


def next_prime_in_ap(cls: CongruenceClass, lower: int) -> int:
    """Smallest prime p >= lower with p in the given residue class."""
    return next_proved_prime_in_ap(cls, lower)[0]


def next_prime(lower: int) -> int:
    """Smallest prime >= lower; above 2 only odd candidates are tested."""
    if lower <= 2:
        return 2
    return next_prime_in_ap(CongruenceClass(1, 2), lower)


def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division up to TRIAL_DIVISION_LIMIT.

    Raises InputTooLarge when the cofactor left after trial division is
    composite, i.e. n has two prime factors above the limit.
    """
    if n < 1:
        raise ValueError("n must be positive")
    original = n
    powers: dict[int, int] = {}

    def record(p: int) -> None:
        powers[p] = powers.get(p, 0) + 1

    while n % 2 == 0:
        record(2)
        n //= 2
    f = 3
    while f <= TRIAL_DIVISION_LIMIT and f * f <= n:
        while n % f == 0:
            record(f)
            n //= f
        f += 2
    if n > 1:
        if not is_prime(n):
            raise InputTooLarge(
                f"{original} has a composite cofactor {n} beyond trial division"
            )
        record(n)
    return Factorization(original, tuple(sorted(powers.items())))


def jacobsthal(b: int) -> int:
    """Maximum gap between consecutive integers coprime to b.

    Equivalently: the least window length w such that every w consecutive
    integers contain one coprime to b (and some window of length w-1 does
    not). Exact, by marking two periods of the coprimality pattern; every
    wraparound gap appears in full inside [1, 2b].

    >>> jacobsthal(30)
    6
    """
    if b < 1:
        raise ValueError("b must be positive")
    if b > JACOBSTHAL_SCAN_LIMIT:
        raise InputTooLarge(f"exact scan restricted to b <= {JACOBSTHAL_SCAN_LIMIT}")
    if b == 1:
        return 1
    span = 2 * b
    mask = bytearray(b"\x01") * span  # mask[i] == 1  <=>  i + 1 coprime to b
    for q, _ in factorize(b).prime_powers:
        count = (span - q) // q + 1
        mask[q - 1 :: q] = b"\x00" * count
    blob = bytes(mask)
    # Longest zero run, via C-level substring probes: doubling then bisection.
    lo, hi = 0, 1
    while hi <= span and b"\x00" * hi in blob:
        lo, hi = hi, hi * 2
    hi = min(hi, span + 1)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if b"\x00" * mid in blob:
            lo = mid
        else:
            hi = mid
    return lo + 1
