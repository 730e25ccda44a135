"""Searches for fractions with prescribed coprimality near a target.

Each search fixes one side of the fraction and returns the other as an
int: the admissible one nearest the target (exact ties go to the smaller
integer), or raises NoCandidate so the caller can escalate. Both start at
the real minimizer: the numerator search walks outward from it, so the
first admissible value met is the global argmin; the denominator search
needs only the two integers nearest it on each side.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import check_eps, is_prime, strict_ceil, strict_floor
from .errors import NoCandidate


def find_coprime_numerator(
    x: Fraction | int | str,
    b: int,
    Q: int,
    eps: Fraction | int | str,
    min_ratio: Fraction | int | str = 0,
) -> int:
    """Best numerator a with 1 <= a < b, gcd(a, Q) = 1, |x - a/b| < eps and
    a/b > min_ratio (all inequalities strict, all comparisons exact).

    Q must be a multiple of b (Q = b constrains against the denominator
    alone). Among admissible numerators the one with the smallest distance
    wins; exact ties go to the smaller numerator.

    >>> find_coprime_numerator(Fraction(1, 2), 7, 7, Fraction(1, 5), Fraction(1, 10))
    3
    """
    x, min_ratio = Fraction(x), Fraction(min_ratio)
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    eps = check_eps(eps)
    if b < 2:
        raise ValueError("denominator must be at least 2")
    if Q % b != 0:
        raise ValueError("Q must be a multiple of b")
    if not 0 <= min_ratio < 1:
        raise ValueError("min_ratio must lie in [0, 1)")

    t = x * b
    radius = eps * b
    a_min = max(1, strict_ceil(min_ratio * b), strict_ceil(t - radius))
    a_max = min(b - 1, strict_floor(t + radius))
    if a_min > a_max:
        raise NoCandidate(
            f"no admissible numerator for x={x}, b={b}, eps={eps}, min_ratio={min_ratio}"
        )

    # Everything in [a_min, a_max] already satisfies the range, distance and
    # ratio constraints; only coprimality with Q remains to be tested.
    lo = min(math.floor(t), a_max)
    hi = lo + 1
    if hi < a_min:
        hi = a_min
        lo = a_min - 1
    while lo >= a_min or hi <= a_max:
        if lo >= a_min and (hi > a_max or t - lo <= hi - t):
            a = lo  # tie prefers the smaller numerator
            lo -= 1
        else:
            a = hi
            hi += 1
        if math.gcd(a, Q) == 1:
            return a
    raise NoCandidate(
        f"no numerator coprime to {Q} for x={x}, b={b}, eps={eps}, min_ratio={min_ratio}"
    )


def find_denominator_for_prime(
    a_prime: int,
    x: Fraction | int | str,
    eps: Fraction | int | str,
    min_ratio: Fraction | int | str = 0,
) -> int:
    """Best denominator m > a_prime with gcd(a_prime, m) = 1,
    |x - a_prime/m| < eps and a_prime/m > min_ratio.

    a_prime must be prime, so coprimality just means m is not a multiple of
    it. The window is capped at a_prime + ceil(2*a_prime/eps), past which
    the ratio has fallen below eps/2. Ties go to the smaller m.

    >>> find_denominator_for_prime(29, Fraction(1, 2), Fraction(1, 10))
    59
    """
    x, min_ratio = Fraction(x), Fraction(min_ratio)
    if not is_prime(a_prime):
        raise ValueError("a_prime must be prime")
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    eps = check_eps(eps)
    if not 0 <= min_ratio < 1:
        raise ValueError("min_ratio must lie in [0, 1)")

    m_lo = max(a_prime + 1, strict_ceil(a_prime / (x + eps)))
    m_hi = a_prime + math.ceil(2 * a_prime / eps)
    if min_ratio > 0:
        m_hi = min(m_hi, strict_floor(a_prime / min_ratio))
    if x > eps:
        m_hi = min(m_hi, strict_floor(a_prime / (x - eps)))
    if m_lo > m_hi:
        raise NoCandidate(
            f"no admissible denominator for a_prime={a_prime}, x={x}, "
            f"eps={eps}, min_ratio={min_ratio}"
        )

    # The distance |x - a_prime/m| is V-shaped in m with bottom at a_prime/x,
    # and a prime never divides two consecutive m, so the best admissible m
    # is one of the two nearest the bottom on either side, clamped into the
    # window.
    bottom = m_hi if x == 0 else math.floor(Fraction(a_prime, 1) / x)
    lo = min(bottom, m_hi)
    hi = max(lo + 1, m_lo)
    admissible = [m for m in (lo - 1, lo, hi, hi + 1) if m_lo <= m <= m_hi and m % a_prime]
    if admissible:
        # key: the distance times x's denominator; min keeps the first of
        # equal keys, and the candidates ascend, so ties go to the smaller m
        num, den = x.numerator, x.denominator
        return min(admissible, key=lambda m: Fraction(abs(num * m - a_prime * den), m))
    raise NoCandidate(
        f"only multiples of {a_prime} in the window for x={x}, eps={eps}, "
        f"min_ratio={min_ratio}"
    )
