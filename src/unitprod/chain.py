"""Builds increasing coprime chains whose consecutive ratios approximate a
target point coordinate by coordinate.

A chain (a0, ..., an) represents the point (a0/a1, ..., a[n-1]/an). The
builder works from the last coordinate backwards: it picks a prime, finds a
denominator above it, then finds each earlier numerator in turn, keeping
every intermediate ratio above eps/2 so later windows stay wide. A failed
attempt restarts at a higher prime floor, up to one where none can fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import check_eps, next_prime
from .errors import EscalationExhausted, NoCandidate
from .search import find_coprime_numerator, find_denominator_for_prime

MODES = ("search", "faithful")
SEARCH_START_FLOOR = 3


@dataclass(frozen=True)
class TargetPoint:
    """Point of [0,1]^n with exact rational coordinates, n >= 2."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coords = tuple(Fraction(c) for c in self.coords)
        if len(coords) < 2:
            raise ValueError("need at least two coordinates")
        if any(c < 0 or c > 1 for c in coords):
            raise ValueError("coordinates must lie in [0, 1]")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class Chain:
    """Terms (a0, ..., an); shape is checked here, the arithmetic invariants
    (strict growth, consecutive coprimality, gcd(a1, a2*...*an) = 1) by
    chain_is_valid."""

    a: tuple[int, ...]

    def __post_init__(self) -> None:
        a = tuple(int(v) for v in self.a)
        if len(a) < 3:
            raise ValueError("a chain needs at least three terms")
        if any(v < 1 for v in a):
            raise ValueError("chain terms must be positive")
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return len(self.a) - 1

    @property
    def fractions(self) -> tuple[Fraction, ...]:
        """The represented point, coordinate i = a[i-1]/a[i]."""
        return tuple(Fraction(self.a[i], self.a[i + 1]) for i in range(self.n))


@dataclass(frozen=True)
class BuilderConfig:
    """Construction mode for build_chain; the default is search mode."""

    mode: str = "search"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError("mode must be 'search' or 'faithful'")


DEFAULT_CONFIG = BuilderConfig()


def chain_is_valid(a) -> bool:
    """True iff the terms strictly increase, consecutive terms are coprime,
    and the second term is coprime to the product of all later terms."""
    a = tuple(a)
    if len(a) < 3 or any(v < 1 for v in a):
        return False
    for i in range(len(a) - 1):
        if a[i] >= a[i + 1] or math.gcd(a[i], a[i + 1]) != 1:
            return False
    return math.gcd(a[1], math.prod(a[2:])) == 1


def _attempt_chain(target: TargetPoint, eps: Fraction, prime_floor: int) -> Chain:
    n = target.n
    coords = target.coords
    half = eps / 2
    a = [0] * (n + 1)

    a[n - 1] = next_prime(prime_floor)
    a[n] = find_denominator_for_prime(a[n - 1], coords[n - 1], eps, half)
    for i in range(n - 1, 1, -1):
        # a1 must also be coprime to every later term, not just to a2
        modulus = math.prod(a[2:]) if i == 2 else a[i]
        a[i - 1] = find_coprime_numerator(coords[i - 1], a[i], modulus, eps, half)
        if a[i - 1] < 2:
            # a numerator of 1 leaves no room for the step after it
            raise NoCandidate(f"term a{i - 1} collapsed to 1 at floor {prime_floor}")
    a[0] = find_coprime_numerator(coords[0], a[1], a[1], eps)
    return Chain(tuple(a))


def _prime_floors(eps: Fraction, n: int, mode: str):
    """Floors to try: in search mode SEARCH_START_FLOOR doubled while below the
    faithful floor F, then F. As F >= (2/eps)^(n-2) * M and M > 4/eps, F is
    computed only once a rung passes the cheap bound (2/eps)^(n-2) * 4/eps."""
    # that bound, equal to 2^n * (1/eps)^(n-1), rounded down in integers
    bound = 2**n * eps.denominator ** (n - 1) // eps.numerator ** (n - 1)
    floor = SEARCH_START_FLOOR
    while mode == "search" and floor <= bound:
        yield floor
        floor *= 2
    faithful_floor = faithful_parameters(eps, n)[1]
    while mode == "search" and floor < faithful_floor:
        yield floor
        floor *= 2
    yield faithful_floor


def build_chain(
    target: TargetPoint,
    eps: Fraction | int | str,
    config: BuilderConfig = DEFAULT_CONFIG,
) -> Chain:
    """Chain whose every coordinate lies strictly within eps of the target's.

    Determinism: identical (target, eps, config) always yields the identical
    chain. Search mode doubles the prime floor from SEARCH_START_FLOOR after
    each failed attempt, up to the faithful floor F of faithful_parameters,
    where no step can fail; faithful mode starts at F. EscalationExhausted,
    raised only if the attempt at F fails, would mean that guarantee broke.
    """
    eps = check_eps(eps)
    for floor in _prime_floors(eps, target.n, config.mode):
        try:
            return _attempt_chain(target, eps, floor)
        except NoCandidate as exc:
            failure = str(exc)  # not exc: its traceback would pin this frame
    raise EscalationExhausted(f"no chain at the faithful floor {floor}: {failure}")


def faithful_parameters(eps: Fraction | int | str, n: int) -> tuple[int, int]:
    """Starting parameters (M, prime_floor) under which every construction
    step is guaranteed to succeed, prime_floor = ceil((2/eps)^(n-2) * M).

    Uses the explicit gap bound 2^omega(q) for the largest run of integers
    sharing a factor with q. M is the smallest integer such that:
      * M > 4/eps, so the prime's own denominator window succeeds;
      * M > 2*(2^k+1)/eps for every k whose primorial is at most that
        threshold, so every numerator window of width eps*b/2, b >= M,
        contains a value coprime to its modulus;
      * for n >= 3, M > 2^W + 1, where W caps (via primorials) the number of
        distinct primes in the product of all chain terms after the first,
        assuming a worst-case prime below 2*prime_floor and ratios >= eps/2.
    """
    eps = check_eps(eps)
    if n < 2:
        raise ValueError("dimension must be at least 2")

    m = math.floor(4 / eps) + 1
    k, p, primorial = 1, 2, 2
    while True:
        threshold = 2 * (2**k + 1) / eps
        if primorial > threshold:
            break
        m = max(m, math.floor(threshold) + 1)
        k += 1
        p = next_prime(p + 1)
        primorial *= p

    if n >= 3:
        growth = (2 / eps) ** (n - 2)
        # W counts the first primes with product <= top, which only grows
        w, q_primorial, q = 0, 1, 2
        for _ in range(200):
            prime_floor = math.ceil(growth * m)
            # worst case: the chosen prime is < 2*prime_floor (Bertrand), the
            # last term < (2/eps) times the prime, every other term smaller
            top = math.floor(((4 / eps) * prime_floor) ** (n - 1))
            while q_primorial * q <= top:
                q_primorial *= q
                w += 1
                q = next_prime(q + 1)
            need = 2**w + 2
            if m >= need:
                break
            m = need
        else:  # pragma: no cover - the fixed point settles in a few rounds
            raise RuntimeError("faithful parameter iteration did not settle")

    return m, math.ceil((2 / eps) ** (n - 2) * m)
