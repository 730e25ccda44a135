"""Exact integer and rational primitives shared by the whole pipeline.

Everything here is deterministic and exact: no floating point ever enters a
certificate-relevant computation.
"""

from __future__ import annotations

import functools
import itertools
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

# the tags prove_prime returns
DETERMINISTIC_TAG = "miller-rabin-deterministic"
PROBABILISTIC_TAG = f"miller-rabin-probabilistic-{DEFAULT_MILLER_RABIN_ROUNDS}"
LUCAS_TAG = "lucas-n-plus-1"
# values of P (N+1) or of the base (N-1) that _order_conditions tries, from 3 up
LUCAS_PARAMETERS = 64
# the primes below this form one cached product, and sieve each search block
SMALL_PRIME_LIMIT = 2**12

SEARCH_PRIME_LIMIT = 2**16
"""The search cap of the N+-1 proofs: _small_prime_factors finds every prime
below this that divides a number, with one gcd against the product of the
primes below SMALL_PRIME_LIMIT and one per block of SMALL_PRIME_LIMIT
integers above it against the cached product of the block's primes (16
gcds; the products take about 12 KB). No larger factor is searched for: a
cofactor left by these primes enters F whole or not at all."""

PROOF_DEPTH_LIMIT = 2
"""How deep proofs may nest inside the proof of p (depth 0). A cofactor
above DETERMINISTIC_PRIMALITY_BOUND enters F only with an N-1 or N+1 proof
of its own, one level deeper than the proof that uses it; a proof at this
depth uses only factors that is_prime decides. With t tail terms, one proof
of p thus runs at most 12t + 1 factor searches (_extended_proof): one for
p; two, N-1 and N+1, for each of the at most 2t cofactors its terms offer;
and two for the one cofactor each of those 4t searches leaves, as a nested
proof's only term is c -+ 1 itself."""

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


def _order_conditions(n: int, e: int, f: int, used: Sequence[int]) -> bool | None:
    """The N+1 test (e = -1) or the N-1 test (e = 1) on odd n, where F
    divides n - e and `used` holds the primes of F, each at its full
    valuation in n - e.

    N+1 (Morrison 1975; Brillhart, Lehmer & Selfridge 1975): one Lucas
    sequence with P = x, Q = 1 and D = x^2 - 4, (D/n) = -1, must satisfy
    V_{n+1} = 2 (mod n) and gcd(V_{(n+1)/q} - 2, n) = 1 for each q | F.
    N-1 (Pocklington 1914): one base x with (x/n) = -1 must satisfy
    x^(n-1) = 1 (mod n) and gcd(x^((n-1)/q) - 1, n) = 1 for each q | F.
    Returns True when they hold, False when a step shows n composite, None
    when none of the LUCAS_PARAMETERS values of x from 3 up passes.

    What they prove: let r be a prime factor of n. For N+1 take alpha, a
    root of x^2 - Px + 1 modulo r; (D/n) = -1 makes D a unit mod r, so
    V_{n+1} = 2 gives alpha^(n+1) = 1, and V_m - 2 is the norm of
    alpha^m - 1, so alpha^((n+1)/q) != 1. For N-1 take alpha = x mod r. The
    order of alpha thus holds q to its full power in n - e for every q | F,
    so F divides it, and it divides r - (D/r), resp. r - 1: every prime
    factor of n is +-1 (mod F), resp. 1 (mod F), hence at least F - 1. The
    argument needs one alpha for all q, hence one x. A perfect square n
    never gets the symbol -1, so it ends in None. Each value at (n - e)/q is
    the value at F/q from W, the value at (n - e)/F, so the ladders per q
    run over F/q, not (n - e)/q.

    The usual N+1 form asks gcd(U_{(n+1)/q}, n) = 1 instead. Since
    D * U_m^2 = (V_m - 2)(V_m + 2) that implies the condition above, and
    with Q = 1 it fails for q = 2 at every prime n (alpha^((n+1)/2) = +-1
    makes U_{(n+1)/2} vanish), so q = 2 could never enter F. At a prime n,
    alpha^((n+1)/2) = ((P+2)/n) (alpha is the square of
    (sqrt(P+2) + sqrt(P-2))/2, and the Frobenius flips the sign of the
    root whose radicand is a non-residue) and x^((n-1)/2) = (x/n), so x is
    also chosen with ((x+2)/n) = -1 for N+1: then q = 2 passes at every
    prime n.

    >>> _order_conditions(131, -1, 12, [2, 3]), _order_conditions(433, 1, 144, [2, 3])
    (True, True)
    """
    m = n - e
    power, one = (_lucas_v, 2) if e < 0 else (pow, 1)
    for x in range(3, 3 + LUCAS_PARAMETERS):
        d = x * x - 4 if e < 0 else x
        symbol = jacobi(d, n)
        if symbol == 0 and d % n:
            return False  # 1 < gcd(d, n) < n
        if symbol != -1 or (e < 0 and jacobi(x + 2, n) != -1):
            continue
        w = power(x, m // f, n)
        if power(w, f, n) != one:
            return False
        # smallest q first: x fails the condition at q with chance about 1/q
        if all(math.gcd(power(w, f // q, n) - one, n) == 1 for q in sorted(used)):
            return True
    return None


def _splits(n: int, f: int, e: int) -> bool:
    """Whether n = (aF + 1)(bF + e) for integers a, b >= 1, where F divides
    n - e and (F - 1)^3 > n.

    The bound on F forces a, b < F. Write (n - e)/F = c2*F + c1 with
    0 <= c1 < F; then s = b + e*a and k = ab satisfy s*F + k*F^2 = n - e, so
    (s, k) is (c1, c2) or (c1 + e*F, c2 - e), and a is a root of
    e*a^2 - s*a + k = 0, whose discriminant s^2 - 4ek must be a square. (For
    e = 1 the second case needs a + b >= F, so ab >= F - 1 and n > F^3: it
    never occurs, but costs nothing to try.)

    >>> _splits(11 * 13, 12, -1), _splits(131, 12, -1)
    (True, False)
    >>> _splits(13 * 37, 12, 1), _splits(433, 12, 1)
    (True, False)
    """
    c2, c1 = divmod((n - e) // f, f)
    for s, k in ((c1, c2), (c1 + e * f, c2 - e)):
        disc = s * s - 4 * e * k
        root = math.isqrt(disc) if disc >= 0 else -1
        if root * root != disc:
            continue
        for t in (s - root, s + root):
            a = e * (t // 2)
            b = s - e * a
            if t % 2 == 0 and a >= 1 and b >= 1 and (a * f + 1) * (b * f + e) == n:
                return True
    return False


def _proof(
    n: int, e: int, candidates: Iterable[int], depth: int, primes: Iterable[int] = ()
) -> bool | None:
    """The N+1 (e = -1) or N-1 (e = 1) proof of odd n from candidate prime
    factors of m = n - e, and from `primes`, known primes: True when it
    shows n prime, False when it shows n composite, None when it does not
    apply.

    Each candidate that divides m and is proved prime enters F at its full
    valuation in m, largest first, until (F-1)^2 > n, or (F-1)^3 > n once
    the candidates left cannot reach (F-1)^2 > n. A known prime needs no
    proof. is_prime decides a candidate below DETERMINISTIC_PRIMALITY_BOUND.
    One above it counts only while depth <= PROOF_DEPTH_LIMIT, after the
    first seeded round and a proof of its own nested `depth` deep
    (_nested_proof).

    Once _order_conditions hold, every prime factor of n is at least F - 1.
    With (F-1)^2 > n that proves n prime. With only (F-1)^3 > n, n has at
    most two prime factors, and is prime unless _splits finds them (the
    cube-root form; Brillhart, Lehmer & Selfridge 1975). Below, 132 = 12 * 11
    and 144 = 12^2: F = 12 gives the cube-root form for 131 and the square
    form for 143 = 11 * 13, and F = 4 is too short for 131.

    >>> _proof(131, -1, [2, 3], 1), _proof(11 * 13, -1, [2, 3], 1), _proof(131, -1, [2], 1)
    (True, False, None)
    """
    m = n - e
    known = set(primes)
    powers = {}
    for q in sorted(known.union(candidates), reverse=True):
        # most composites fail is_prime's first base, which costs a full
        # test's fraction: a hopeless F is given up before any full test
        if q > 1 and m % q == 0 and (q in known or (
            (q < DETERMINISTIC_PRIMALITY_BOUND or depth <= PROOF_DEPTH_LIMIT)
            and _first_test_passes(q)
        )):
            power = q
            while m % (power * q) == 0:
                power *= q
            powers[q] = power
    # reach bounds F from above, dropping each candidate that is not proved
    f, reach = 1, math.prod(powers.values())
    used = []
    for q, power in powers.items():
        exponent = 2 if (reach - 1) ** 2 > n else 3
        if (f - 1) ** exponent > n or (reach - 1) ** 3 <= n:
            break
        if q in known or (
            is_prime(q) if q < DETERMINISTIC_PRIMALITY_BOUND else _nested_proof(q, depth)
        ):
            f *= power
            used.append(q)
        else:
            reach //= power
    if (f - 1) ** 3 <= n:
        return None
    proof = _order_conditions(n, e, f, used)
    if proof and (f - 1) ** 2 <= n:
        return not _splits(n, f, e)
    return proof


def _extended_proof(n: int, e: int, terms: Iterable[int], depth: int) -> bool | None:
    """_proof of n from every prime below SEARCH_PRIME_LIMIT that divides
    m = n - e, and from the cofactors those primes leave in `terms`, known
    divisors of m. Let `stripped` be m without those primes. Each term
    offers two cofactors: the part of `stripped` it shares once the terms
    before it have taken theirs, and its own gcd with `stripped`. The first
    splits m between terms; the second keeps a large prime that two terms
    share, which the first term's piece may hold inside a composite. The
    primes below SEARCH_PRIME_LIMIT come from gcds with products of known
    primes, so they enter F untested. A cofactor enters F only once proved
    prime, and F is keyed by prime, so one offered twice counts once. A
    cofactor above DETERMINISTIC_PRIMALITY_BOUND needs a proof nested
    `depth` deep.
    """
    m = n - e
    small = _small_prime_factors(m)
    stripped = m
    for q in small:
        while stripped % q == 0:
            stripped //= q
    rest, pieces = stripped, set()
    for t in terms:
        piece = math.gcd(t, rest)
        rest //= piece
        pieces.update((piece, math.gcd(t, stripped)))
    return _proof(n, e, pieces, depth, small)


def _nested_proof(c: int, depth: int) -> bool:
    """Whether an N-1 proof (tried first, as a pow is cheaper than a Lucas
    ladder) or an N+1 proof shows c prime, from the primes below
    SEARCH_PRIME_LIMIT of c -+ 1 and the one cofactor they leave; the proof
    is nested `depth` deep in another one, so that cofactor gets depth + 1.

    >>> _nested_proof(1_000_003, 1), _nested_proof(101 * 9901, 1)
    (True, False)
    """
    return any(_extended_proof(c, e, (c - e,), depth + 1) for e in (1, -1))


def prove_prime(n: int, terms: Iterable[int] = ()) -> str | None:
    """The tag of the test that shows n prime, or None when n is composite.

    Below DETERMINISTIC_PRIMALITY_BOUND that is is_prime. Above it, n gets
    is_prime's trial division and first seeded round, then the N+1 proof of
    _extended_proof: from every prime below SEARCH_PRIME_LIMIT that divides
    n+1, and from the cofactors those primes leave in `terms`, known
    divisors of n+1 (the tail of a chain), each cofactor proved prime. Only
    where that proof does not apply does n get is_prime's other rounds.
    """
    if n < DETERMINISTIC_PRIMALITY_BOUND:
        return DETERMINISTIC_TAG if is_prime(n) else None
    if any(n % p == 0 for p in _DETERMINISTIC_BASES):
        return None
    rounds = _strong_tests(n)
    if not next(rounds):
        return None
    proof = _extended_proof(n, -1, terms, 1)
    if proof is not None:
        return LUCAS_TAG if proof else None
    return PROBABILISTIC_TAG if all(rounds) else None


def _sieve(limit: int) -> bytearray:
    """flags[i] = 1 exactly when i is prime, for 0 <= i < limit."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return flags


@functools.cache
def _small_primes() -> tuple[tuple[int, ...], int]:
    """The primes below SMALL_PRIME_LIMIT and their product, built on first
    use."""
    primes = tuple(itertools.compress(range(SMALL_PRIME_LIMIT), _sieve(SMALL_PRIME_LIMIT)))
    return primes, math.prod(primes)


@functools.cache
def _search_products() -> tuple[tuple[int, int], ...]:
    """(low, product of the primes in [low, low + SMALL_PRIME_LIMIT)) for
    each low from SMALL_PRIME_LIMIT up to SEARCH_PRIME_LIMIT: 15 integers of
    about 11 KB in all, built on first use. Each block is sieved on its own
    by the primes of _small_primes up to the square root of its end."""
    width = SMALL_PRIME_LIMIT
    products = []
    for low in range(SMALL_PRIME_LIMIT, SEARCH_PRIME_LIMIT, width):
        flags = bytearray([1]) * width  # flags[i]: low + i has no factor sieved so far
        for q in _small_primes()[0]:
            if q * q >= low + width:
                break
            start = -low % q  # low > q, so no q itself is struck
            flags[start::q] = bytes(len(range(start, width, q)))
        products.append((low, math.prod(itertools.compress(range(low, low + width), flags))))
    return tuple(products)


def _small_prime_factors(m: int) -> list[int]:
    """The primes below SEARCH_PRIME_LIMIT that divide m > 0, ascending.

    Below SMALL_PRIME_LIMIT they come from one gcd with the product of
    _small_primes, split by trial division over those primes. Above it they
    come from one gcd per block of _search_products. A gcd below low^2 is
    one prime; a larger one, a product of several primes of the block, is
    split by trial division over the block.

    >>> _small_prime_factors(2**5 * 3 * 4099 * 65521 * 65537)
    [2, 3, 4099, 65521]
    """
    primes, primorial = _small_primes()
    g = math.gcd(m, primorial)
    found = [q for q in primes if g % q == 0]
    for low, product in _search_products():
        g = math.gcd(m, product)
        if g >= low * low:
            found += [q for q in range(low + 1, low + SMALL_PRIME_LIMIT, 2) if g % q == 0]
        elif g > 1:
            found.append(g)
    return found


def _progression(cls: CongruenceClass, lower: int) -> Iterator[int]:
    """The terms >= lower of the residue class, ascending, then
    SearchExhausted after DEFAULT_PRIME_SEARCH_STEPS of them. A class with
    gcd(residue, modulus) = 1 holds primes beyond every bound, so the cap is
    purely pragmatic; any other class raises NotCoprime."""
    r, m = cls.residue, cls.modulus
    if math.gcd(r, m) != 1:
        raise NotCoprime(f"class {cls} contains at most one prime")
    lower = max(lower, 2)
    candidate = lower + (r - lower) % m
    for _ in range(DEFAULT_PRIME_SEARCH_STEPS):
        yield candidate
        candidate += m
    raise SearchExhausted(
        f"no prime = {r} (mod {m}) within {DEFAULT_PRIME_SEARCH_STEPS} terms "
        f"at or above {lower}"
    )


def next_proved_prime_in_ap(
    cls: CongruenceClass, lower: int, terms: Sequence[int] = ()
) -> tuple[int, str]:
    """Smallest prime p >= lower in the residue class, and prove_prime's tag
    for it; `terms` divide p+1 for every p in the class (the tail of a
    chain)."""
    return next(
        (c, method) for c in _progression(cls, lower)
        if (method := prove_prime(c, terms)) is not None
    )


def next_prime_in_ap(cls: CongruenceClass, lower: int) -> int:
    """Smallest prime p >= lower with p in the given residue class, by
    is_prime alone."""
    return next(c for c in _progression(cls, lower) if is_prime(c))


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
    not). Exact, by marking one period plus one of the coprimality pattern:
    1 and b+1 are coprime to b, so every gap between consecutive coprimes
    lies inside [1, b+1].

    >>> jacobsthal(30)
    6
    """
    if b < 1:
        raise ValueError("b must be positive")
    if b > JACOBSTHAL_SCAN_LIMIT:
        raise InputTooLarge(f"exact scan restricted to b <= {JACOBSTHAL_SCAN_LIMIT}")
    if b == 1:
        return 1
    span = b + 1
    mask = bytearray(b"\x01") * span  # mask[i] == 1  <=>  i + 1 coprime to b
    for q, _ in factorize(b).prime_powers:
        count = (span - q) // q + 1
        mask[q - 1 :: q] = b"\x00" * count
    # Longest zero run, via C-level substring probes: doubling then bisection.
    lo, hi = 0, 1
    while hi <= span and b"\x00" * hi in mask:
        lo, hi = hi, hi * 2
    hi = min(hi, span + 1)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if b"\x00" * mid in mask:
            lo = mid
        else:
            hi = mid
    return lo + 1
