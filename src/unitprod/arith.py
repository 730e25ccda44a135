"""Exact integer and rational primitives shared by the whole pipeline.

Everything here is deterministic and exact: no floating point ever enters a
certificate-relevant computation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < DETERMINISTIC_PRIMALITY_BOUND:
        k = next(k for bound, k in _BASE_COUNTS if n < bound)
        bases: Iterable[int] = _DETERMINISTIC_BASES[:k]
    else:
        # drawn lazily: most composites fail on the first base
        rng = random.Random(n)
        bases = (rng.randrange(2, n - 1) for _ in range(DEFAULT_MILLER_RABIN_ROUNDS))
    return all(_miller_rabin_passes(n, a, d, s) for a in bases)


def primality_method(n: int) -> str:
    """Tag recording how is_prime decided n (stored in certificates)."""
    if n < DETERMINISTIC_PRIMALITY_BOUND:
        return "miller-rabin-deterministic"
    return f"miller-rabin-probabilistic-{DEFAULT_MILLER_RABIN_ROUNDS}"


def next_prime_in_ap(cls: CongruenceClass, lower: int) -> int:
    """Smallest prime p >= lower with p in the given residue class.

    Scans the progression term by term. Existence is guaranteed whenever
    gcd(residue, modulus) = 1; the cap of DEFAULT_PRIME_SEARCH_STEPS terms is
    purely pragmatic.
    """
    r, m = cls.residue, cls.modulus
    if math.gcd(r, m) != 1:
        raise NotCoprime(f"class {cls} contains at most one prime")
    lower = max(lower, 2)
    candidate = lower + (r - lower) % m
    for _ in range(DEFAULT_PRIME_SEARCH_STEPS):
        if is_prime(candidate):
            return candidate
        candidate += m
    raise SearchExhausted(
        f"no prime = {r} (mod {m}) within {DEFAULT_PRIME_SEARCH_STEPS} terms "
        f"at or above {lower}"
    )


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
