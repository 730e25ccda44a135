"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Expected values are frozen from independent oracles (brute-force
scans, naive enumeration, direct modular arithmetic), never from the code
paths under test.
"""

import math
import random
import statistics
import sys
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from unitprod.arith import CongruenceClass, is_prime, jacobsthal
from unitprod.certio import (
    parse_document,
    serialize_certificate,
    serialize_poly_certificate,
)
from unitprod.chain import TargetPoint
from unitprod.errors import NoCandidate
from unitprod.lab import box_discrepancy, enumerate_points
from unitprod.lift import (
    approximate,
    dirichlet_residue,
    lift_chain,
    min_prime_for_error,
    verify_certificate,
)
from unitprod.chain import Chain
from unitprod.poly import (
    MonicPolynomial,
    approximate_polynomial,
    verify_poly_certificate,
)
from unitprod.search import find_coprime_numerator

WORKED_CHAIN = Chain((1, 2, 3, 5))


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    sys.stdout.flush()
    assert ok, f"criterion {number}: {detail}"


def rand_fraction(rng, max_den):
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


# ------------------------------------------------------------------ shared runs

@pytest.fixture(scope="module")
def end_to_end_runs():
    """200 pipeline runs: 50 per (n, eps) combination, with timings."""
    rng = random.Random(90002)
    runs = []
    for n in (3, 4):
        for eps in (Fraction(1, 10), Fraction(1, 100)):
            for _ in range(50):
                target = TargetPoint(tuple(rand_fraction(rng, 1000) for _ in range(n)))
                start = time.perf_counter()
                cert = approximate(target, eps)
                elapsed = time.perf_counter() - start
                runs.append((n, eps, cert, elapsed))
    return runs


@pytest.fixture(scope="module")
def poly_runs():
    """The worked polynomial instance, the identity collapse, and 50 random
    trials with degree <= 3 and coefficients in [-5, 5]."""
    rng = random.Random(90007)
    runs = []

    worked = approximate_polynomial(
        MonicPolynomial(2, (1, 0)),
        TargetPoint((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))),
        Fraction(1, 10),
    )
    runs.append(("worked", worked))

    identity = approximate_polynomial(
        MonicPolynomial(1, (0,)),
        TargetPoint((Fraction(1, 3), Fraction(2, 7), Fraction(5, 9))),
        Fraction(1, 10),
    )
    runs.append(("identity", identity))

    for _ in range(50):
        d = rng.randint(1, 3)
        f = MonicPolynomial(d, tuple(rng.randint(-5, 5) for _ in range(d)))
        alphas = TargetPoint(tuple(rand_fraction(rng, 200) for _ in range(3)))
        runs.append(("random", approximate_polynomial(f, alphas, Fraction(1, 10))))
    return runs


# ------------------------------------------------------------------ criterion 1

def test_criterion_1_worked_lift():
    ok = dirichlet_residue(WORKED_CHAIN) == CongruenceClass(29, 30)
    w29 = lift_chain(WORKED_CHAIN, 29)
    w59 = lift_chain(WORKED_CHAIN, 59)
    ok = ok and w29.x == (17, 20, 18) and 17 * 20 * 18 % 29 == 1
    ok = ok and w59.x == (32, 40, 36) and 32 * 40 * 36 % 59 == 1

    timings = []
    for _ in range(200):
        start = time.perf_counter()
        dirichlet_residue(WORKED_CHAIN)
        a = lift_chain(WORKED_CHAIN, 29)
        b = lift_chain(WORKED_CHAIN, 59)
        timings.append(time.perf_counter() - start)
        assert a.x == (17, 20, 18) and b.x == (32, 40, 36)
    median = statistics.median(timings)
    ok = ok and median < 0.001
    report(1, ok, f"worked lift exact at p=29 and p=59, median {median * 1e6:.0f} us < 1 ms")


# ------------------------------------------------------------------ criterion 2

def test_criterion_2_end_to_end_soundness(end_to_end_runs):
    failures = 0
    for n, eps, cert, _ in end_to_end_runs:
        if not (verify_certificate(cert) and cert.max_error < eps):
            failures += 1
    reference = [t for n, eps, _, t in end_to_end_runs if n == 3 and eps == Fraction(1, 100)]
    median = statistics.median(reference)
    ok = failures == 0 and len(end_to_end_runs) == 200 and median < 1.0
    report(
        2,
        ok,
        f"200/200 certificates verify with max_error < eps; "
        f"median n=3 eps=1/100 runtime {median * 1000:.1f} ms < 1 s",
    )


# ------------------------------------------------------------------ criterion 3

def _numpy_numerator_oracle(x, b, Q, eps, min_ratio):
    a = np.arange(1, b, dtype=np.int64)
    err = np.abs(x.numerator * b - x.denominator * a)
    ok = np.gcd(a, Q) == 1
    ok &= err * eps.denominator < eps.numerator * x.denominator * b
    ok &= a * min_ratio.denominator > min_ratio.numerator * b
    if not ok.any():
        return None
    masked = np.where(ok, err, np.iinfo(np.int64).max)
    best = int(np.argmin(masked))  # first minimum = smallest numerator on ties
    return int(a[best])


def test_criterion_3_coprime_search_oracle():
    rng = random.Random(90003)
    mismatches = 0
    for _ in range(1000):
        b = rng.randint(2, 10**4)
        x = rand_fraction(rng, 10**4)
        eps = Fraction(rng.randint(1, 9), rng.choice((10, 100, 1000)))
        if rng.random() < 0.5:
            Q = b
        else:
            c = rng.randint(2, 50)
            while math.gcd(b, c) != 1:
                c = rng.randint(2, 50)
            Q = b * c
        min_ratio = Fraction(0) if rng.random() < 0.5 else eps / 2
        expected = _numpy_numerator_oracle(x, b, Q, eps, min_ratio)
        try:
            got = find_coprime_numerator(x, b, Q, eps, min_ratio)
        except NoCandidate:
            got = None
        if got != expected:
            mismatches += 1
    report(3, mismatches == 0, f"{mismatches} mismatches in 1000 random searches vs brute force")


# ------------------------------------------------------------------ criterion 4

def _numpy_gap_oracle(b):
    # one period plus one: 1 and b + 1 are both coprime to b, so the gaps
    # over [1, b + 1] are every gap of the periodic pattern
    values = np.arange(1, b + 2, dtype=np.int64)
    coprime = np.flatnonzero(np.gcd(values, b) == 1)
    if coprime.size <= 1:
        return 1
    return int(np.diff(coprime).max())


def _window_oracle(b):
    # least w such that every w consecutive integers contain a coprime value
    w = 1
    while True:
        if all(
            any(math.gcd(s + j, b) == 1 for j in range(w))
            for s in range(1, 2 * b + 1)
        ):
            return w
        w += 1


def test_criterion_4_jacobsthal():
    start = time.perf_counter()
    mismatches = sum(1 for b in range(1, 10**4 + 1) if jacobsthal(b) != _numpy_gap_oracle(b))
    spots = {2: 2, 6: 4, 30: 6, 210: 10}
    spot_ok = all(
        jacobsthal(b) == g and _window_oracle(b) == g for b, g in spots.items()
    )
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and spot_ok and elapsed < 60
    report(
        4,
        ok,
        f"{mismatches} oracle mismatches for b <= 10^4, spot values confirmed, "
        f"{elapsed:.1f} s < 60 s",
    )


# ------------------------------------------------------------------ criterion 5

def test_criterion_5_enumeration_law():
    mismatches = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for n in (2, 3):
            if sum(1 for _ in enumerate_points(p, n)) != (p - 1) ** (n - 1):
                mismatches += 1
    for p in (2, 3, 5, 7, 11, 13):
        for n in (2, 3):
            naive = {
                xs
                for xs in product(range(1, p), repeat=n)
                if math.prod(xs) % p == 1
            }
            if {w.x for w in enumerate_points(p, n)} != naive:
                mismatches += 1
    report(5, mismatches == 0, "counts equal (p-1)^(n-1) and sets match the naive filter")


# ------------------------------------------------------------------ criterion 6

def test_criterion_6_exact_error_law():
    cls = dirichlet_residue(WORKED_CHAIN)
    primes = []
    candidate = min_prime_for_error(WORKED_CHAIN, 1)
    candidate += (cls.residue - candidate) % cls.modulus
    while len(primes) < 10:
        if is_prime(candidate):
            primes.append(candidate)
        candidate += cls.modulus

    ok = True
    previous = None
    for p in primes:
        witness = lift_chain(WORKED_CHAIN, p)
        gaps = [
            abs(f - v) for f, v in zip(WORKED_CHAIN.fractions, witness.point)
        ]
        direct = [
            abs(Fraction(WORKED_CHAIN.a[i], WORKED_CHAIN.a[i + 1]) - Fraction(witness.x[i], p))
            for i in range(3)
        ]
        ok = ok and gaps == direct  # algebra cross-checked by direct subtraction
        ok = ok and max(gaps) * p == Fraction(5, 2)
        if previous is not None:
            ok = ok and max(gaps) < previous
        previous = max(gaps)
    report(6, ok, f"max_error * p = 5/2 and strictly decreasing over primes {primes[:3]}...")


# ------------------------------------------------------------------ criterion 7

def test_criterion_7_polynomial_pipeline(poly_runs):
    failures = 0
    worked = poly_runs[0][1]
    if not (
        worked.inner.witness.p > 40
        and all(err < Fraction(1, 10) for err in worked.errors)
        and verify_poly_certificate(worked)
    ):
        failures += 1
    identity = poly_runs[1][1]
    if not (
        identity.errors == identity.inner.errors
        and identity.values == identity.inner.witness.point
        and verify_poly_certificate(identity)
    ):
        failures += 1
    randoms = [cert for kind, cert in poly_runs if kind == "random"]
    for cert in randoms:
        if not verify_poly_certificate(cert):
            failures += 1
    ok = failures == 0 and len(randoms) == 50
    report(7, ok, "x^2+1 worked case, identity collapse, and 50/50 random trials verify")


# ------------------------------------------------------------------ criterion 8

def test_criterion_8_equidistribution_trend():
    start = time.perf_counter()
    deviations = [box_discrepancy(p, 2, 4).sup_deviation for p in (101, 1009, 10007)]
    elapsed = time.perf_counter() - start
    ok = deviations[0] > deviations[1] > deviations[2] and elapsed < 30
    report(
        8,
        ok,
        "sup deviation shrinks along p=101,1009,10007 "
        f"({', '.join(f'{float(d):.4g}' for d in deviations)}), "
        f"{elapsed:.1f} s < 30 s",
    )


# ------------------------------------------------------------------ criterion 9

def test_criterion_9_certificate_round_trip(end_to_end_runs, poly_runs):
    failures = 0
    count = 0
    worked = approximate(
        TargetPoint((Fraction(1, 2), Fraction(2, 3), Fraction(3, 5))), Fraction(1, 5)
    )
    for cert in [worked] + [cert for _, _, cert, _ in end_to_end_runs]:
        document = serialize_certificate(cert)
        parsed = parse_document(document)
        if not (
            parsed == cert
            and serialize_certificate(parsed) == document
            and verify_certificate(parsed)
        ):
            failures += 1
        count += 1
    for _, cert in poly_runs:
        document = serialize_poly_certificate(cert)
        parsed = parse_document(document)
        if not (
            parsed == cert
            and serialize_poly_certificate(parsed) == document
            and verify_poly_certificate(parsed)
        ):
            failures += 1
        count += 1
    report(9, failures == 0, f"{count} certificates round-trip losslessly and re-verify")
