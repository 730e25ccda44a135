"""Exact integer and rational primitives shared by the whole pipeline.

Everything here is deterministic and exact: no floating point ever enters a
certificate-relevant computation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputTooLarge, ModuliNotCoprime, NotCoprime, SearchExhausted

# Largest n for which the fixed Miller-Rabin base set below is a proven
# deterministic primality test (Sorenson & Webster, first 13 primes).
DETERMINISTIC_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
DEFAULT_MILLER_RABIN_ROUNDS = 64

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

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


def strict_floor(q: Fraction | int) -> int:
    """Largest integer strictly less than q."""
    q = Fraction(q)
    return (q.numerator - 1) // q.denominator


def strict_ceil(q: Fraction | int) -> int:
    """Smallest integer strictly greater than q."""
    q = Fraction(q)
    return q.numerator // q.denominator + 1


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
    """Miller-Rabin primality test.

    Deterministic below DETERMINISTIC_PRIMALITY_BOUND via the fixed base set;
    above it, DEFAULT_MILLER_RABIN_ROUNDS bases are drawn from an RNG seeded
    by n itself, so the answer is still reproducible run to run.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < DETERMINISTIC_PRIMALITY_BOUND:
        bases: tuple[int, ...] = _DETERMINISTIC_BASES
    else:
        rng = random.Random(n)
        bases = tuple(
            rng.randrange(2, n - 1) for _ in range(DEFAULT_MILLER_RABIN_ROUNDS)
        )
    # a base divisible by n carries no information (only hit by n = 41)
    return all(a % n == 0 or _miller_rabin_passes(n, a, d, s) for a in bases)


def primality_method(n: int) -> str:
    """Tag recording how is_prime decided n (stored in certificates)."""
    if n < DETERMINISTIC_PRIMALITY_BOUND:
        return "miller-rabin-deterministic"
    return f"miller-rabin-probabilistic-{DEFAULT_MILLER_RABIN_ROUNDS}"


def next_prime_in_ap(
    cls: CongruenceClass, lower: int, max_steps: int = DEFAULT_PRIME_SEARCH_STEPS
) -> int:
    """Smallest prime p >= lower with p in the given residue class.

    Scans the progression term by term. Existence is guaranteed whenever
    gcd(residue, modulus) = 1; the step cap is purely pragmatic.
    """
    r, m = cls.residue, cls.modulus
    if math.gcd(r, m) != 1:
        raise NotCoprime(f"class {cls} contains at most one prime")
    lower = max(lower, 2)
    candidate = lower + (r - lower) % m
    for _ in range(max_steps):
        if is_prime(candidate):
            return candidate
        candidate += m
    raise SearchExhausted(
        f"no prime = {r} (mod {m}) within {max_steps} terms at or above {lower}"
    )


def next_prime(lower: int, max_steps: int = DEFAULT_PRIME_SEARCH_STEPS) -> int:
    """Smallest prime >= lower."""
    return next_prime_in_ap(CongruenceClass(0, 1), lower, max_steps)


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
