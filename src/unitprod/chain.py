"""Builds increasing coprime chains whose consecutive ratios approximate a
target point coordinate by coordinate.

A chain (a0, ..., an) represents the point (a0/a1, ..., a[n-1]/an). The
builder works from the last coordinate backwards: it picks a prime, finds a
denominator above it, then finds each earlier numerator in turn, keeping
every intermediate ratio above eps/2 so later windows stay wide. A failed
attempt restarts at a higher prime floor, up to one where none can fail.
The same ladder can be rebuilt with a tail of proved primes, which the
proof of a lifting prime p can use as factors of p + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import check_eps, next_prime, next_proved_prime
from .errors import EscalationExhausted, NoCandidate
from .search import (
    find_coprime_numerator,
    find_denominator_for_prime,
    find_proved_denominator,
)

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


def _attempt_chain(
    target: TargetPoint, eps: Fraction, prime_floor: int, proved: bool = False
) -> Chain:
    n = target.n
    coords = target.coords
    half = eps / 2
    a = [0] * (n + 1)

    if proved:
        a[n - 1] = next_proved_prime(prime_floor)
        a[n] = find_proved_denominator(a[n - 1], coords[n - 1], eps, half)
    else:
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


def _prime_floors(target: TargetPoint, eps: Fraction, mode: str):
    """Floors to try: in search mode SEARCH_START_FLOOR doubled while below the
    faithful floor F, then F; in faithful mode the target's own floor F'
    (faithful_floor) when it is below F, then F. As F >= (2/eps)^(n-2) * M
    and M > 4/eps, search mode computes F only once a rung passes the cheap
    bound (2/eps)^(n-2) * 4/eps."""
    n = target.n
    # that bound, equal to 2^n * (1/eps)^(n-1), rounded down in integers
    bound = 2**n * eps.denominator ** (n - 1) // eps.numerator ** (n - 1)
    floor = SEARCH_START_FLOOR
    while mode == "search" and floor <= bound:
        yield floor
        floor *= 2
    m, last = faithful_parameters(eps, n)
    if mode == "faithful":
        floor = _target_floor(target, eps, m, last)
        if floor < last:
            yield floor
    while mode == "search" and floor < last:
        yield floor
        floor *= 2
    yield last


def _build(target: TargetPoint, eps: Fraction, mode: str, proved: bool) -> Chain:
    for floor in _prime_floors(target, eps, mode):
        try:
            return _attempt_chain(target, eps, floor, proved)
        except NoCandidate as exc:
            failure = str(exc)  # not exc: its traceback would pin this frame
    raise EscalationExhausted(f"no chain at the faithful floor {floor}: {failure}")


def build_chain(
    target: TargetPoint,
    eps: Fraction | int | str,
    config: BuilderConfig = DEFAULT_CONFIG,
) -> Chain:
    """Chain whose every coordinate lies strictly within eps of the target's.

    Determinism: identical (target, eps, config) always yields the identical
    chain. Search mode doubles the prime floor from SEARCH_START_FLOOR after
    each failed attempt, up to the faithful floor F of faithful_parameters,
    where no step can fail; faithful mode tries the target's own floor F'
    of faithful_floor first when it is below F, then F. EscalationExhausted,
    raised only if the attempt at F fails, would mean that guarantee broke.
    """
    return _build(target, check_eps(eps), config.mode, proved=False)


def build_proved_chain(
    target: TargetPoint,
    eps: Fraction | int | str,
    config: BuilderConfig = DEFAULT_CONFIG,
) -> Chain:
    """build_chain's chain with a tail of proved primes, over the same ladder
    of floors: at each floor, a[n-1] is the least prime at or above it that
    arith.is_proved_prime accepts, and a[n] the admissible denominator nearest
    build_chain's choice that it accepts. A proof of a lifting prime p can
    then take both as factors of p + 1. No floor guarantees such a tail, so
    EscalationExhausted here means only that no floor gave one.
    """
    return _build(target, check_eps(eps), config.mode, proved=True)


def faithful_floor(target: TargetPoint, eps: Fraction | int | str) -> int:
    """The target's own faithful floor F' <= F: a prime floor at which, as at
    faithful_parameters' F, no construction step can fail.

    Write e = eps, (M, F) = faithful_parameters(e, n), x_i for coordinate i
    and r_i = max(x_i - e, e/2) <= 1. Each step keeps a[i-1]/a[i] within e
    of x_i and above e/2, so a[i-1] > r_i * a[i], and a[j] >= a[n-1] *
    r_(j+1) ... r_(n-1) for j <= n - 1. F' = ceil(2M / (e * r_3 ...
    r_(n-1))), capped at F. Take a prime a[n-1] >= F' and follow
    faithful_parameters' conditions step by step:

      * a1's window is at least e*a2/2 wide, and a2 >= a[n-1] * r_3 ...
        r_(n-1) >= 2M/e, so it is wider than M > 2^W + 1. W still caps the
        distinct primes of a2 * ... * an: a[n-1] < 2F' <= 2F (Bertrand) and
        every later term is below (2/e) * a[n-1], as faithful_parameters
        assumes;
      * every other numerator window has a denominator of at least M, so it
        is at least e*b/2 > 2^k + 1 wide for k = omega(b), its modulus b,
        and holds a value coprime to b. Those of a2 ... a[n-2] have a
        denominator a[i], 3 <= i <= n-1, with a[i] >= a[n-1] * r_4 ...
        r_(n-1) >= 2M / (e * r_3) > M; a0's has a1 > (e/2) * a2 >= M;
      * a[n-1] >= 2M/e > M > 4/e, so the prime's own denominator window
        succeeds.

    With every r_i = e/2, F' is F itself, and each r_i >= e/2, so F' <= F
    always; n = 2 and 3 have no middle coordinate and keep F. A mid-range
    n=5 target gets a lower floor; middle coordinates x_3, x_4 at most e
    leave F:

    >>> e = Fraction(1, 4)
    >>> faithful_parameters(e, 5)[1]
    8796093023232
    >>> faithful_floor(TargetPoint((Fraction(1, 2),) * 5), e)
    2199023255808
    >>> faithful_floor(TargetPoint((Fraction(1, 2), Fraction(1, 2), e, 0, 1)), e)
    8796093023232
    """
    eps = check_eps(eps)
    return _target_floor(target, eps, *faithful_parameters(eps, target.n))


def _target_floor(target: TargetPoint, eps: Fraction, m: int, last: int) -> int:
    """faithful_floor from faithful_parameters' (M, F)."""
    ratios = [max(x - eps, eps / 2) for x in target.coords[2 : target.n - 1]]
    return min(math.ceil(2 * m / (eps * math.prod(ratios))), last)


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
