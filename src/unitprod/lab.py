"""Exhaustive enumeration of the product-one hypersurface for small primes,
with grid box counting against the uniform measure.

All three kernels share one walk: the first n-2 residues run over [1, p)
with their product acc mod p (in lexicographic order, except that
nearest_point_distance takes each axis nearest-first), the residue n-1 runs
over [1, p) in an inner loop, and the last residue is inv[acc * v % p] from
a table of inverses built once per call. The inner loops work on integers
through per-residue tables; Fractions appear only in the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import Iterator

from .arith import is_prime
from .chain import TargetPoint
from .errors import BudgetExceeded
from .lift import WitnessPoint

DEFAULT_ENUMERATION_BUDGET = 10**8


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


def box_discrepancy(p: int, n: int, k: int) -> DiscrepancyReport:
    """Assign each normalized point to the k-per-axis grid box
    [j/k, (j+1)/k) (top box closed; irrelevant here since x/p < 1) and
    compare box frequencies with the uniform 1/k^n.

    >>> report = box_discrepancy(5, 2, 2)
    >>> report.counts, report.sup_deviation
    ((1, 1, 1, 1), Fraction(0, 1))
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cells = k**n
    if cells > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetExceeded(
            f"k^n = {cells} boxes exceed the budget {DEFAULT_ENUMERATION_BUDGET}"
        )
    _check_walk(p, n)
    inv = _inverses(p)
    box = [v * k // p for v in range(p)]  # box index of residue v on one axis
    counts = [0] * cells
    if n == 2:  # the one prefix is empty, acc = 1: the last residue is inv[v]
        for v in range(1, p):
            counts[box[v] * k + box[inv[v]]] += 1
    else:
        row = [j * k for j in box]  # axis n-1, weighted by the last axis's k boxes
        last_box = [box[u] for u in inv]  # box of the last residue when acc * v = u
        for prefix in product(range(1, p), repeat=n - 2):
            acc = prod(prefix) % p
            base = 0
            for v in prefix:
                base = base * k + box[v]
            base *= k * k
            for v in range(1, p):
                counts[base + row[v] + last_box[acc * v % p]] += 1
    total = (p - 1) ** (n - 1)
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
