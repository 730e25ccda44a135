"""Searches for fractions with prescribed coprimality near a target.

Each search fixes one side of the fraction and returns the other as an
int: the admissible one nearest the target (exact ties go to the smaller
integer), or raises NoCandidate so the caller can escalate. Both start at
the real minimizer: the numerator search walks outward from it, so the
first admissible value met is the global argmin; the denominator search
needs only the two integers nearest it on each side.

Windows, walks and distances are exact integer arithmetic: each bound is
cross-multiplied over the numerators and denominators of x, eps and
min_ratio, so no Fraction is built after the arguments are read.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import (
    DEFAULT_PRIME_SEARCH_STEPS,
    as_fraction,
    check_eps,
    is_prime,
    is_proved_prime,
    strict_ceil,
    strict_floor,
)
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
    x, min_ratio = as_fraction(x), as_fraction(min_ratio)
    xn, xd = x.numerator, x.denominator
    rn, rd = min_ratio.numerator, min_ratio.denominator
    if not 0 <= xn <= xd:
        raise ValueError("x must lie in [0, 1]")
    eps = check_eps(eps)
    en, ed = eps.numerator, eps.denominator
    if b < 2:
        raise ValueError("denominator must be at least 2")
    if Q % b != 0:
        raise ValueError("Q must be a multiple of b")
    if not 0 <= rn < rd:
        raise ValueError("min_ratio must lie in [0, 1)")

    # t = x*b is the real minimizer; the window is t -+ eps*b = (b*xn*ed -+
    # b*en*xd) / (xd*ed), ends excluded, and a > min_ratio*b
    center, radius, den = b * xn * ed, b * en * xd, xd * ed
    a_min = max(1, strict_ceil(rn * b, rd), strict_ceil(center - radius, den))
    a_max = min(b - 1, strict_floor(center + radius, den))
    if a_min > a_max:
        raise NoCandidate(
            f"no admissible numerator for x={x}, b={b}, eps={eps}, min_ratio={min_ratio}"
        )

    # Everything in [a_min, a_max] already satisfies the range, distance and
    # ratio constraints; only coprimality with Q remains to be tested.
    twice_t = 2 * b * xn  # t - lo <= hi - t  <=>  twice_t <= (lo + hi) * xd
    lo = min(b * xn // xd, a_max)
    hi = lo + 1
    if hi < a_min:
        hi = a_min
        lo = a_min - 1
    while lo >= a_min or hi <= a_max:
        if lo >= a_min and (hi > a_max or twice_t <= (lo + hi) * xd):
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


def _denominator_window(
    a_prime: int,
    x: Fraction,
    eps: Fraction | int | str,
    min_ratio: Fraction,
) -> tuple[int, int]:
    """The least and greatest admissible denominator m > a_prime with
    |x - a_prime/m| < eps and a_prime/m > min_ratio, capped at a_prime +
    ceil(2*a_prime/eps), past which the ratio has fallen below eps/2."""
    xn, xd = x.numerator, x.denominator
    rn, rd = min_ratio.numerator, min_ratio.denominator
    if not 0 <= xn <= xd:
        raise ValueError("x must lie in [0, 1]")
    eps = check_eps(eps)
    en, ed = eps.numerator, eps.denominator
    if not 0 <= rn < rd:
        raise ValueError("min_ratio must lie in [0, 1)")

    # a_prime/m within eps of x = xn/xd means xn/xd - en/ed < a_prime/m <
    # xn/xd + en/ed, i.e. a_prime*xd*ed / (xn*ed +- en*xd) bounds m
    scaled, above, below = a_prime * xd * ed, xn * ed + en * xd, xn * ed - en * xd
    m_lo = max(a_prime + 1, strict_ceil(scaled, above))
    m_hi = a_prime - (-2 * a_prime * ed // en)  # a_prime + ceil(2*a_prime/eps)
    if rn > 0:
        m_hi = min(m_hi, strict_floor(a_prime * rd, rn))
    if below > 0:
        m_hi = min(m_hi, strict_floor(scaled, below))
    if m_lo > m_hi:
        raise NoCandidate(
            f"no admissible denominator for a_prime={a_prime}, x={x}, "
            f"eps={eps}, min_ratio={min_ratio}"
        )
    return m_lo, m_hi


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
    x, min_ratio = as_fraction(x), as_fraction(min_ratio)
    if not is_prime(a_prime):
        raise ValueError("a_prime must be prime")
    m_lo, m_hi = _denominator_window(a_prime, x, eps, min_ratio)
    xn, xd = x.numerator, x.denominator

    # The distance |x - a_prime/m| is V-shaped in m with bottom at a_prime/x,
    # and a prime never divides two consecutive m, so the best admissible m
    # is one of the two nearest the bottom on either side, clamped into the
    # window.
    bottom = m_hi if xn == 0 else a_prime * xd // xn
    lo = min(bottom, m_hi)
    hi = max(lo + 1, m_lo)
    best = None
    for m in (lo - 1, lo, hi, hi + 1):
        if m_lo <= m <= m_hi and m % a_prime:
            # distance times xd is gap/m; the candidates ascend and only a
            # strictly smaller distance replaces, so ties go to the smaller m
            gap = abs(xn * m - a_prime * xd)
            if best is None or gap * best < best_gap * m:
                best, best_gap = m, gap
    if best is not None:
        return best
    raise NoCandidate(
        f"only multiples of {a_prime} in the window for x={x}, eps={check_eps(eps)}, "
        f"min_ratio={min_ratio}"
    )


def find_proved_denominator(
    a_prime: int,
    x: Fraction | int | str,
    eps: Fraction | int | str,
    min_ratio: Fraction | int | str = 0,
) -> int:
    """The admissible denominator of find_denominator_for_prime that
    is_proved_prime accepts and that lies nearest that function's choice;
    ties go to the smaller m. A prime m > a_prime is never a multiple of it.
    At most DEFAULT_PRIME_SEARCH_STEPS distances from the choice are tried.

    >>> find_proved_denominator(29, Fraction(1, 2), Fraction(1, 10))
    59
    >>> find_proved_denominator(31, Fraction(1, 2), Fraction(1, 10))
    61
    """
    x, min_ratio = as_fraction(x), as_fraction(min_ratio)
    choice = find_denominator_for_prime(a_prime, x, eps, min_ratio)
    eps = check_eps(eps)
    m_lo, m_hi = _denominator_window(a_prime, x, eps, min_ratio)
    for step in range(DEFAULT_PRIME_SEARCH_STEPS):
        if choice - step < m_lo and choice + step > m_hi:
            break
        for m in (choice - step, choice + step) if step else (choice,):
            if m_lo <= m <= m_hi and is_proved_prime(m):
                return m
    raise NoCandidate(
        f"no proved prime denominator for a_prime={a_prime}, x={x}, eps={eps}, "
        f"min_ratio={min_ratio}"
    )
