"""Exhaustive enumeration of the product-one hypersurface for small primes,
with grid box counting against the uniform measure."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
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


def enumerate_points(
    p: int, n: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Iterator[WitnessPoint]:
    """All (p-1)^(n-1) hypersurface points: the first n-1 residues range
    freely over [1, p) in lexicographic order, the last completes the
    product to 1 mod p. Validates eagerly, streams lazily."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    total = (p - 1) ** (n - 1)
    if total > budget:
        raise BudgetExceeded(f"(p-1)^(n-1) = {total} exceeds the budget {budget}")
    return _generate_points(p, n)


def _generate_points(p: int, n: int) -> Iterator[WitnessPoint]:
    for free in product(range(1, p), repeat=n - 1):
        acc = 1
        for v in free:
            acc = acc * v % p
        yield WitnessPoint(p, free + (pow(acc, -1, p),))


def box_discrepancy(
    p: int, n: int, k: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> DiscrepancyReport:
    """Assign each normalized point to the k-per-axis grid box
    [j/k, (j+1)/k) (top box closed; irrelevant here since x/p < 1) and
    compare box frequencies with the uniform 1/k^n."""
    if k < 1:
        raise ValueError("k must be at least 1")
    cells = k**n
    if cells > budget:
        raise BudgetExceeded(f"k^n = {cells} boxes exceed the budget {budget}")
    counts = [0] * cells
    total = 0
    for witness in enumerate_points(p, n, budget):
        index = 0
        for v in witness.x:
            index = index * k + v * k // p
        counts[index] += 1
        total += 1
    uniform = Fraction(1, cells)
    deviations = [abs(Fraction(c, total) - uniform) for c in counts]
    return DiscrepancyReport(
        p=p,
        n=n,
        k=k,
        total=total,
        counts=tuple(counts),
        sup_deviation=max(deviations),
        mean_abs_deviation=sum(deviations) / cells,
    )


def nearest_point_distance(
    p: int, n: int, target: TargetPoint, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Fraction:
    """Smallest max-coordinate distance from the target to any enumerated
    point, as an exact fraction."""
    if target.n != n:
        raise ValueError("target dimension does not match n")
    # every distance is below 1, and there is at least one point
    best = Fraction(1)
    for witness in enumerate_points(p, n, budget):
        dist = max(
            abs(t - Fraction(x, p)) for t, x in zip(target.coords, witness.x)
        )
        if dist < best:
            best = dist
            if best == 0:
                break
    return best
