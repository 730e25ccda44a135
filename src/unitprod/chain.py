"""Builds increasing coprime chains whose consecutive ratios approximate a
target point coordinate by coordinate.

A chain (a0, ..., an) represents the point (a0/a1, ..., a[n-1]/an). The
builder works from the last coordinate backwards: it picks a prime, finds a
denominator above it, then finds each earlier numerator in turn, keeping
every intermediate ratio above eps/2 so later windows stay wide. Any failed
step escalates the starting prime and restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import next_prime
from .errors import EscalationExhausted, NoCandidate
from .search import find_coprime_numerator, find_denominator_for_prime

MODES = ("search", "faithful")


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
    """Knobs for build_chain; the defaults suit the direct search mode."""

    mode: str = "search"
    start_prime_floor: int = 3
    escalation_factor: Fraction = Fraction(2)
    max_escalations: int = 40

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError("mode must be 'search' or 'faithful'")
        if self.start_prime_floor < 2:
            raise ValueError("start_prime_floor must be at least 2")
        factor = Fraction(self.escalation_factor)
        if factor <= 1:
            raise ValueError("escalation_factor must exceed 1")
        object.__setattr__(self, "escalation_factor", factor)
        if self.max_escalations < 0:
            raise ValueError("max_escalations must be non-negative")


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
    a[n] = find_denominator_for_prime(a[n - 1], coords[n - 1], eps, half).denominator
    for i in range(n - 1, 2, -1):
        cand = find_coprime_numerator(coords[i - 1], a[i], a[i], eps, half)
        if cand.numerator < 2:
            # a numerator of 1 leaves no room for the step after it
            raise NoCandidate(f"term a{i - 1} collapsed to 1 at floor {prime_floor}")
        a[i - 1] = cand.numerator
    if n >= 3:
        tail_product = math.prod(a[2 : n + 1])
        cand = find_coprime_numerator(coords[1], a[2], tail_product, eps, half)
        if cand.numerator < 2:
            raise NoCandidate(f"term a1 collapsed to 1 at floor {prime_floor}")
        a[1] = cand.numerator
    a[0] = find_coprime_numerator(coords[0], a[1], a[1], eps, Fraction(0)).numerator
    return Chain(tuple(a))


def build_chain(
    target: TargetPoint,
    eps: Fraction | int | str,
    config: BuilderConfig = DEFAULT_CONFIG,
) -> Chain:
    """Chain whose every coordinate lies strictly within eps of the target's.

    Determinism: identical (target, eps, config) always yields the identical
    chain. In faithful mode the starting prime floor comes from
    faithful_parameters, large enough that no step should ever fail; in the
    default search mode it starts small and doubles on demand.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    floor = config.start_prime_floor
    if config.mode == "faithful":
        floor = max(floor, faithful_parameters(eps, target.n)[1])
    failures = []
    for _ in range(config.max_escalations + 1):
        try:
            return _attempt_chain(target, eps, floor)
        except NoCandidate as exc:
            failures.append(str(exc))
            floor = max(floor + 1, math.ceil(floor * config.escalation_factor))
    raise EscalationExhausted(
        f"no chain after {config.max_escalations} restarts (last failure: {failures[-1]})"
    )


def _omega_cap(limit: int) -> int:
    """Largest k such that the product of the first k primes is <= limit."""
    k, product, p = 0, 1, 2
    while product * p <= limit:
        product *= p
        k += 1
        p = next_prime(p + 1)
    return k


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
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
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
        for _ in range(200):
            prime_floor = math.ceil(growth * m)
            # worst case: the chosen prime is < 2*prime_floor (Bertrand), the
            # last term < (2/eps) times the prime, every other term smaller
            top = math.floor(((4 / eps) * prime_floor) ** (n - 1))
            need = 2 ** _omega_cap(top) + 2
            if m >= need:
                break
            m = need
        else:  # pragma: no cover - the fixed point settles in a few rounds
            raise RuntimeError("faithful parameter iteration did not settle")

    return m, math.ceil((2 / eps) ** (n - 2) * m)
