from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import prod

import pytest
import sympy

import unitprod.lab as lab
from unitprod.chain import TargetPoint
from unitprod.cli import main
from unitprod.errors import BudgetExceeded
from unitprod.lab import (
    DiscrepancyReport,
    box_discrepancy,
    enumerate_points,
    nearest_point_distance,
)

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def naive_points(p, n):
    return {
        xs
        for xs in product(range(1, p), repeat=n)
        if _product_mod(xs, p) == 1
    }


@cache
def naive_sorted(p, n):
    return sorted(naive_points(p, n))


def _product_mod(xs, p):
    acc = 1
    for v in xs:
        acc = acc * v % p
    return acc


# ---------------------------------------------------------------- enumeration

def test_enumerate_examples():
    points = [w.x for w in enumerate_points(5, 2)]
    assert points == [(1, 1), (2, 3), (3, 2), (4, 4)]
    assert sum(1 for _ in enumerate_points(7, 3)) == 36
    assert [w.x for w in enumerate_points(2, 3)] == [(1, 1, 1)]


def test_enumerate_matches_naive_filter():
    for p in PRIMES_TO_31:
        for n in (2, 3, 4):
            assert [w.x for w in enumerate_points(p, n)] == naive_sorted(p, n)


def test_enumerate_count_law():
    for p in PRIMES_TO_31:
        for n in (2, 3):
            count = sum(1 for _ in enumerate_points(p, n))
            assert count == (p - 1) ** (n - 1)


def test_enumerate_budget_and_validation():
    with pytest.raises(BudgetExceeded):
        list(enumerate_points(10007, 3))
    with pytest.raises(ValueError):
        list(enumerate_points(4, 2))
    with pytest.raises(ValueError):
        list(enumerate_points(5, 1))


def test_point_set_symmetric_under_permutation():
    points = {w.x for w in enumerate_points(7, 3)}
    for xs in points:
        for perm in permutations(xs):
            assert perm in points


# ---------------------------------------------------------------- boxes

def test_box_single_box_degenerate():
    report = box_discrepancy(11, 2, 1)
    assert report.counts == (10,)
    assert report.sup_deviation == 0
    assert report.mean_abs_deviation == 0


def test_box_worked_example():
    report = box_discrepancy(5, 2, 2)
    assert report.total == 4
    assert report.counts == (1, 1, 1, 1)
    assert report.sup_deviation == 0


def test_box_counts_sum_and_symmetry():
    report = box_discrepancy(101, 2, 4)
    assert sum(report.counts) == 100
    assert report.total == 100
    small = box_discrepancy(13, 2, 2)
    grid = [small.counts[2 * i : 2 * i + 2] for i in range(2)]
    assert grid[0][1] == grid[1][0]  # symmetric across the diagonal


def test_box_validation():
    with pytest.raises(ValueError):
        box_discrepancy(5, 2, 0)
    with pytest.raises(BudgetExceeded):
        box_discrepancy(5, 2, 10**4 + 1)


def test_box_budget_refuses_one_box_past_two_to_the_twenty():
    # the box budget comes before the dimension check, so n = 1 probes it
    # exactly without counting a million boxes
    assert lab.BOX_BUDGET == 2**20
    with pytest.raises(BudgetExceeded, match="k\\^n = 1048577 boxes"):
        box_discrepancy(4, 1, 2**20 + 1)
    with pytest.raises(ValueError, match="dimension"):
        box_discrepancy(4, 1, 2**20)
    with pytest.raises(BudgetExceeded, match="k\\^n"):
        box_discrepancy(2, 2, 1025)  # 1025^2 boxes, one point


def test_discrepancy_shrinks_with_p():
    small = box_discrepancy(101, 2, 4)
    large = box_discrepancy(1009, 2, 4)
    assert large.sup_deviation < small.sup_deviation


# ---------------------------------------------------------------- distances

def test_nearest_point_examples():
    assert nearest_point_distance(5, 2, TargetPoint((Fraction(2, 5), Fraction(3, 5)))) == 0
    assert nearest_point_distance(2, 3, TargetPoint((Fraction(1, 2),) * 3)) == 0
    assert nearest_point_distance(5, 2, TargetPoint((0, 0))) == Fraction(1, 5)


def test_nearest_point_validation():
    with pytest.raises(ValueError):
        nearest_point_distance(5, 3, TargetPoint((0, 0)))


# ---------------------------------------------------------------- brute force

def naive_counts(p, n, k):
    """Box counts of the naive point set, classified with Fractions."""
    box = {x: int(Fraction(x, p) * k) for x in range(1, p)}
    counts = [0] * k**n
    for xs in naive_sorted(p, n):
        index = 0
        for x in xs:
            index = index * k + box[x]
        counts[index] += 1
    return tuple(counts)


def naive_distance(p, n, target):
    gaps = [{x: abs(t - Fraction(x, p)) for x in range(1, p)} for t in target.coords]
    return min(max(gap[x] for gap, x in zip(gaps, xs)) for xs in naive_sorted(p, n))


def brute_force_targets(p, n):
    """Mixed denominators, coordinates exactly 0 and 1, and an exact hit."""
    mixed = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(3, 4))
    edges = (Fraction(0), Fraction(1), Fraction(1), Fraction(0))
    hit = naive_sorted(p, n)[len(naive_sorted(p, n)) // 2]
    return [
        TargetPoint(mixed[:n]),
        TargetPoint(edges[:n]),
        TargetPoint(tuple(Fraction(x, p) for x in hit)),
    ]


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("p", PRIMES_TO_31)
def test_box_counts_match_brute_force(p, n):
    total = (p - 1) ** (n - 1)
    for k in (1, 2, 3, 5):
        report = box_discrepancy(p, n, k)
        expected = naive_counts(p, n, k)
        assert report.counts == expected
        assert report.total == total
        deviations = [abs(Fraction(c, total) - Fraction(1, k**n)) for c in expected]
        assert report.sup_deviation == max(deviations)
        assert report.mean_abs_deviation == sum(deviations) / k**n


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("p", PRIMES_TO_31)
def test_nearest_point_matches_brute_force(p, n):
    mixed, edges, hit = brute_force_targets(p, n)
    for target in (mixed, edges):
        assert nearest_point_distance(p, n, target) == naive_distance(p, n, target)
    assert nearest_point_distance(p, n, hit) == 0


# ---------------------------------------------------------------- the walk

def walk_report(p, n, k):
    """The box counts of a walk that visits every point and drops it into its
    box: the reference each box_discrepancy report must equal."""
    inv = lab._inverses(p)
    box = [v * k // p for v in range(p)]
    counts = [0] * k**n
    if n == 2:
        for v in range(1, p):
            counts[box[v] * k + box[inv[v]]] += 1
    else:
        row = [j * k for j in box]
        last_box = [box[u] for u in inv]
        for prefix in product(range(1, p), repeat=n - 2):
            acc = prod(prefix) % p
            base = 0
            for v in prefix:
                base = base * k + box[v]
            base *= k * k
            for v in range(1, p):
                counts[base + row[v] + last_box[acc * v % p]] += 1
    total, cells = (p - 1) ** (n - 1), k**n
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


GRID_K = (1, 2, 3, 4, 5, 8, 16)


def walk_grid():
    """(p, n, k): every prime below 400 at n = 2, below 120 at n = 3 and up
    to 31 at n = 4, 5, with k in GRID_K plus a k > p - 1 (empty boxes) and,
    at n = 2, k = 300 > 256. Cases past 2 * 10^5 boxes are left out for time."""
    limits = {2: 400, 3: 120, 4: 32, 5: 32}
    for n, limit in limits.items():
        for p in sympy.primerange(2, limit):
            ks = GRID_K + (p + 1,) + ((300,) if n == 2 else ())
            yield from ((p, n, k) for k in ks if k**n <= 2 * 10**5)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_box_counts_match_the_walk(n):
    cases = [case for case in walk_grid() if case[1] == n]
    assert any(k > p - 1 for p, _, k in cases)
    for p, n, k in cases:
        assert box_discrepancy(p, n, k) == walk_report(p, n, k), (p, n, k)


@pytest.mark.parametrize("p, n, k", [(10007, 2, 8), (1009, 3, 4)])
def test_box_counts_match_the_walk_at_lab_sizes(p, n, k):
    assert box_discrepancy(p, n, k) == walk_report(p, n, k)


def test_primitive_root_against_sympy():
    for p in sympy.primerange(2, 10**4):
        assert lab._primitive_root(p) == sympy.primitive_root(p), p


# ---------------------------------------------------------------- order and validation

def _no_walk(*args):
    raise AssertionError("the work started before validation finished")


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: box_discrepancy(4, 1, 0), ValueError, "k must be"),
        (lambda: box_discrepancy(4, 1, 10**8 + 1), BudgetExceeded, "k\\^n"),
        (lambda: box_discrepancy(4, 1, 2), ValueError, "dimension"),
        (lambda: box_discrepancy(4, 3, 2), ValueError, "not prime"),
        (lambda: box_discrepancy(10007, 3, 2), BudgetExceeded, "\\(p-1\\)"),
        (lambda: enumerate_points(4, 1), ValueError, "dimension"),
        (lambda: enumerate_points(4, 3), ValueError, "not prime"),
        (lambda: enumerate_points(10007, 3), BudgetExceeded, "\\(p-1\\)"),
        (
            lambda: nearest_point_distance(4, 3, TargetPoint((0, 0))),
            ValueError,
            "target dimension",
        ),
        (
            lambda: nearest_point_distance(4, 2, TargetPoint((0, 0))),
            ValueError,
            "not prime",
        ),
        (
            lambda: nearest_point_distance(10007, 3, TargetPoint((0, 0, 0))),
            BudgetExceeded,
            "\\(p-1\\)",
        ),
    ],
)
def test_errors_keep_their_order_and_come_first(monkeypatch, call, error, match):
    monkeypatch.setattr(lab, "_inverses", _no_walk)
    monkeypatch.setattr(lab, "_primitive_root", _no_walk)
    with pytest.raises(error, match=match):
        call()  # enumerate_points raises here, before it is iterated


def test_cli_enumerate_stdout_unchanged(capsys):
    assert main(["enumerate", "--p", "7", "--n", "3"]) == 0
    expected = "x1,x2,x3\n" + "".join(f"{a},{b},{c}\n" for a, b, c in naive_sorted(7, 3))
    assert capsys.readouterr().out == expected
