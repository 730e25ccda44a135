"""Exhaustive enumeration of the product-one hypersurface for small primes,
with grid box counting against the uniform measure.

enumerate_points and nearest_point_distance share one walk: the first n-2
residues run over [1, p) with their product acc mod p (in lexicographic
order, except that nearest_point_distance takes each axis nearest-first),
the residue n-1 runs over [1, p) in an inner loop, and the last residue is
inv[acc * v % p] from a table of inverses built once per call. The inner
loops work on integers through per-residue tables; Fractions appear only in
the results.

box_discrepancy does not walk. With a primitive root g, x1...xn = 1 iff the
exponents of the xi to base g sum to 0 mod p-1, so every box count is a
coefficient of a cyclic convolution of per-box indicator vectors over the
exponents, computed exactly on Python ints by Kronecker substitution."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import count, product
from math import lcm, prod
from typing import Iterator

from .arith import factorize, is_prime
from .chain import TargetPoint
from .errors import BudgetExceeded
from .lift import WitnessPoint

DEFAULT_ENUMERATION_BUDGET = 10**8
# box_discrepancy's k^n-long lists: 2^20 boxes add ~25 MB of RSS, ~90 MB serialized
BOX_BUDGET = 2**20


@dataclass(frozen=True)
class DiscrepancyReport:
    """Box counts for one (p, n, k) grid and their deviation from uniform.

    counts holds all k^n boxes in row-major order of the box indices;
    sup_deviation and mean_abs_deviation compare count/total against 1/k^n
    exactly.
    """

    p: int
    n: int
    k: int
    total: int
    counts: tuple[int, ...]
    sup_deviation: Fraction
    mean_abs_deviation: Fraction


def _check_walk(p: int, n: int) -> None:
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    total = (p - 1) ** (n - 1)
    if total > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetExceeded(
            f"(p-1)^(n-1) = {total} exceeds the budget {DEFAULT_ENUMERATION_BUDGET}"
        )


def _inverses(p: int) -> list[int]:
    """inv[a] = a^-1 mod p for 1 <= a < p (inv[0] = 0 is a placeholder), in
    O(p) from p = (p // a) * a + p % a, so inv[a] = -(p // a) * inv[p % a]."""
    inv = [0, 1] + [0] * (p - 2)
    for a in range(2, p):
        inv[a] = -(p // a) * inv[p % a] % p
    return inv


def enumerate_points(p: int, n: int) -> Iterator[WitnessPoint]:
    """All (p-1)^(n-1) hypersurface points: the first n-1 residues range
    freely over [1, p) in lexicographic order, the last completes the
    product to 1 mod p. Validates eagerly, streams lazily.

    >>> [w.x for w in enumerate_points(5, 2)]
    [(1, 1), (2, 3), (3, 2), (4, 4)]
    """
    _check_walk(p, n)
    return _generate_points(p, n)


def _generate_points(p: int, n: int) -> Iterator[WitnessPoint]:
    inv = _inverses(p)
    for prefix in product(range(1, p), repeat=n - 2):
        acc = prod(prefix) % p
        for v in range(1, p):
            yield WitnessPoint(p, prefix + (v, inv[acc * v % p]))


def _primitive_root(p: int) -> int:
    """The least primitive root g of the prime p: the least g >= 1 with
    g^((p-1)/q) != 1 mod p for each prime q dividing p-1.

    >>> [_primitive_root(p) for p in (2, 3, 7, 41)]
    [1, 2, 3, 6]
    """
    m = p - 1
    primes = [q for q, _ in factorize(m).prime_powers]
    return next(g for g in count(1) if all(pow(g, m // q, p) != 1 for q in primes))


@cache
def _reversed_bits() -> bytes:
    """Translation table from each byte to the byte with its bits reversed."""
    return bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reflect(x: int, span: int) -> int:
    """The int whose bit q is bit -q mod span of x, for 0 <= x < 2^span.

    >>> bin(_reflect(0b0110, 4)), bin(_reflect(0b0011, 4))
    ('0b1100', '0b1001')
    """
    size = span // 8 + 1
    mirror = int.from_bytes(x.to_bytes(size, "big").translate(_reversed_bits()), "little")
    mirror >>= 8 * size - 1 - span  # bit q of x is now bit span - q
    return (mirror & ((1 << span) - 1)) | (mirror >> span)


def box_discrepancy(p: int, n: int, k: int) -> DiscrepancyReport:
    """Assign each normalized point to the k-per-axis grid box
    [j/k, (j+1)/k) (top box closed; irrelevant here since x/p < 1) and
    compare box frequencies with the uniform 1/k^n.

    The points are counted, not walked. With x = g^e for a primitive root g,
    x1...xn = 1 iff e1 + ... + en = 0 mod p-1, so the count of a box is the
    constant coefficient, mod x^(p-1) - 1, of the product of its axes'
    indicator polynomials over the exponents.

    >>> report = box_discrepancy(5, 2, 2)
    >>> report.counts, report.sup_deviation
    ((1, 1, 1, 1), Fraction(0, 1))
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cells = k**n
    if cells > BOX_BUDGET:
        raise BudgetExceeded(f"k^n = {cells} boxes exceed the budget {BOX_BUDGET}")
    _check_walk(p, n)
    m = p - 1
    total = m ** (n - 1)
    # Polynomials mod x^m - 1 are ints with one width-bit slot per exponent
    # (Kronecker substitution). No coefficient of a product of at most n-1
    # indicators exceeds total, so no slot carries into the next, and a slot
    # sum, at most total < 2^width - 1, is the int mod 2^width - 1. At n = 2
    # nothing is multiplied, and one bit per exponent suffices.
    width = 1 if n == 2 else total.bit_length() + 1
    span, modulus = m * width, (1 << width) - 1
    fold = (1 << span) - 1
    # place[g^e]: the lowest bit of slot e, as an index into the span binary
    # digits of a polynomial, most significant first
    place = [0] * p
    g, x = _primitive_root(p), 1
    for at in range(span - 1, -1, -width):
        place[x] = at
        x = x * g % p
    edges = [max(1, -(-j * p // k)) for j in range(k + 1)]  # box j: [edges[j], edges[j+1])
    indicators = []  # (j, indicator) for each box a residue falls in
    masks = [0] * k  # for the last axis: slot s all ones iff g^-s lies in box j
    for j in range(k):
        if edges[j] < edges[j + 1]:
            digits = bytearray(b"0") * span
            for at in place[edges[j] : edges[j + 1]]:
                digits[at] = 49  # ord("1")
            indicator = int(digits, 2)
            indicators.append((j, indicator))
            masks[j] = _reflect(indicator, span) * modulus
    # the slot sum of poly & mask: a bit count when slots are single bits
    read = int.bit_count if width == 1 else modulus.__rmod__
    counts = [0] * cells

    def descend(index: int, poly: int, depth: int) -> None:
        if depth == n - 1:  # poly: the product over the first n-1 axes
            a, row = index % k, index * k
            counts[row + a : row + k] = map(read, map(poly.__and__, masks[a:]))
            # swapping the last two residues swaps the last two box indices, so
            # the box (..., b, a) holds as many points as (..., a, b)
            counts[row + k + a : row - a * k + k * k : k] = counts[row + a + 1 : row + k]
            return
        for j, indicator in indicators:
            poly_j = poly * indicator
            descend(index * k + j, (poly_j & fold) + (poly_j >> span), depth + 1)

    descend(0, 1, 0)
    # |count/total - 1/k^n| = |count * k^n - total| / (total * k^n)
    deviations = [abs(c * cells - total) for c in counts]
    return DiscrepancyReport(
        p=p,
        n=n,
        k=k,
        total=total,
        counts=tuple(counts),
        sup_deviation=Fraction(max(deviations), total * cells),
        mean_abs_deviation=Fraction(sum(deviations), total * cells * cells),
    )


def nearest_point_distance(p: int, n: int, target: TargetPoint) -> Fraction:
    """Smallest max-coordinate distance from the target to any enumerated
    point, as an exact fraction.

    With D the common denominator of the target, |t - x/p| is
    |t * D * p - D * x| / (D * p), so the walk compares integer gaps.
    """
    if target.n != n:
        raise ValueError("target dimension does not match n")
    _check_walk(p, n)
    inv = _inverses(p)
    denominator = lcm(*(t.denominator for t in target.coords))
    centres = [int(t * denominator) * p for t in target.coords]
    gaps = [[abs(c - denominator * x) for x in range(p)] for c in centres]
    inner = gaps[n - 2]
    last = [gaps[n - 1][u] for u in inv]  # gap of the last residue when acc * v = u
    # every distance is below 1, and there is at least one point
    best = denominator * p
    # nearest residues first on every prefix axis, so that best falls fast
    # and most prefixes are skipped; the minimum does not depend on order
    orders = [sorted(range(1, p), key=gap.__getitem__) for gap in gaps[: n - 2]]
    for prefix in product(*orders):
        acc = prod(prefix) % p
        floor = max((gaps[i][v] for i, v in enumerate(prefix)), default=0)
        if floor >= best:
            continue
        # only residues v with |centre - D * v| < best can improve on best
        low = max(1, (centres[n - 2] - best) // denominator + 1)
        high = min(p, -(-(centres[n - 2] + best) // denominator))
        for v in range(low, high):
            gap = inner[v]
            if gap < best:
                gap = max(gap, floor, last[acc * v % p])
                if gap < best:
                    best = gap
                    if best == 0:
                        return Fraction(0)
    return Fraction(best, denominator * p)
