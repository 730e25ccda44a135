import dataclasses
import random
from fractions import Fraction

import pytest

from unitprod.arith import CongruenceClass, is_prime
from unitprod.chain import Chain, TargetPoint
from unitprod import lift
from unitprod.errors import CongruenceViolated
from unitprod.lift import (
    WitnessPoint,
    approximate,
    check_certificate,
    dirichlet_residue,
    lift_chain,
    min_prime_for_error,
    verify_certificate,
    witness_is_valid,
)

CHAIN = Chain((1, 2, 3, 5))
TARGET = TargetPoint((Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)))


def class_primes(chain, start, count):
    """First `count` primes in the chain's class at or above start."""
    cls = dirichlet_residue(chain)
    found = []
    candidate = start + (cls.residue - start) % cls.modulus
    while len(found) < count:
        if is_prime(candidate):
            found.append(candidate)
        candidate += cls.modulus
    return found


# ---------------------------------------------------------------- residue

def test_dirichlet_residue_examples():
    assert dirichlet_residue(CHAIN) == CongruenceClass(29, 30)
    assert dirichlet_residue(Chain((1, 2, 3))) == CongruenceClass(5, 6)


def test_dirichlet_residue_brute():
    # every admissible prime makes both lift divisions exact
    rng = random.Random(4001)
    for chain in (CHAIN, Chain((1, 2, 3)), Chain((2, 3, 5, 7, 11)), Chain((3, 4, 7, 9))):
        cls = dirichlet_residue(chain)
        a = chain.a
        n = chain.n
        expected = [
            r for r in range(cls.modulus)
            if (a[0] * r + a[n]) % a[1] == 0
            and all(a[i - 1] * (r + 1) % a[i] == 0 for i in range(2, n + 1))
        ]
        assert cls.residue in expected


# ---------------------------------------------------------------- prime floor

def test_min_prime_for_error_examples():
    assert min_prime_for_error(CHAIN, Fraction(1, 10)) == 26
    assert min_prime_for_error(CHAIN, 1) == 6
    assert min_prime_for_error(CHAIN, 2) == 6  # range conditions dominate


def test_min_prime_for_error_sharp():
    # at the first class prime above L all gaps stay below delta; at the
    # largest class prime below L some condition fails
    chain = Chain((1, 2, 3))
    delta = Fraction(1, 10)
    floor = min_prime_for_error(chain, delta)
    assert floor == 16
    good = class_primes(chain, floor, 1)[0]
    witness = lift_chain(chain, good)
    assert all(
        abs(f - v) < delta for f, v in zip(chain.fractions, witness.point)
    )
    bad = 11  # class prime below the floor
    assert dirichlet_residue(chain).contains(bad)
    witness = lift_chain(chain, bad)
    assert any(
        abs(f - v) >= delta for f, v in zip(chain.fractions, witness.point)
    )


def test_min_prime_for_error_validation():
    with pytest.raises(ValueError):
        min_prime_for_error(CHAIN, 0)
    with pytest.raises(ValueError):
        min_prime_for_error(Chain((1, 2, 4)), 1)


# ---------------------------------------------------------------- lift

def test_lift_worked_instances():
    w29 = lift_chain(CHAIN, 29)
    assert w29.x == (17, 20, 18)
    assert 17 * 20 * 18 % 29 == 1
    w59 = lift_chain(CHAIN, 59)
    assert w59.x == (32, 40, 36)
    assert 32 * 40 * 36 % 59 == 1


def test_lift_dimension_two():
    witness = lift_chain(Chain((1, 2, 3)), 5)
    assert witness.x == (4, 4)
    assert 4 * 4 % 5 == 1


def test_lift_rejects_wrong_class():
    with pytest.raises(CongruenceViolated):
        lift_chain(CHAIN, 31)


def test_class_primes_always_lift_cleanly():
    # membership in the class forces p >= a2*...*an - 1, which already
    # dominates every residue-range bound, so any class prime lifts to a
    # valid witness (possibly with large errors)
    for chain in (CHAIN, Chain((1, 2, 3)), Chain((4, 5, 12)), Chain((2, 3, 4, 5))):
        for p in class_primes(chain, 2, 3):
            assert witness_is_valid(lift_chain(chain, p))


def test_exact_error_law():
    # gap * p is constant per coordinate: an/a1 and a[i-1]/a[i]
    primes = class_primes(CHAIN, min_prime_for_error(CHAIN, 1), 10)
    previous_max = None
    for p in primes:
        witness = lift_chain(CHAIN, p)
        gaps = [abs(f - v) for f, v in zip(CHAIN.fractions, witness.point)]
        assert gaps[0] * p == Fraction(5, 2)
        assert gaps[1] * p == Fraction(2, 3)
        assert gaps[2] * p == Fraction(3, 5)
        max_gap = max(gaps)
        assert max_gap * p == Fraction(5, 2)
        if previous_max is not None:
            assert max_gap < previous_max
        previous_max = max_gap


def test_witness_validity():
    assert witness_is_valid(WitnessPoint(29, (17, 20, 18)))
    assert not witness_is_valid(WitnessPoint(29, (17, 21, 18)))
    assert not witness_is_valid(WitnessPoint(29, (17, 29, 18)))
    assert not witness_is_valid(WitnessPoint(29, (0, 20, 18)))


# ---------------------------------------------------------------- approximate

def test_approximate_worked_example():
    cert = approximate(TARGET, Fraction(1, 5))
    assert cert.chain.a == (1, 2, 3, 5)
    assert cert.congruence == CongruenceClass(29, 30)
    assert cert.prime_floor == 26
    assert cert.witness.p == 29
    assert cert.witness.x == (17, 20, 18)
    assert cert.errors == (Fraction(5, 58), Fraction(2, 87), Fraction(3, 145))
    assert cert.max_error == Fraction(5, 58)
    assert cert.max_error < Fraction(1, 5)
    assert cert.primality_method == "miller-rabin-deterministic"
    assert verify_certificate(cert)


def test_approximate_full_tolerance():
    cert = approximate(TARGET, 1)
    assert verify_certificate(cert)


def test_approximate_corner_target():
    cert = approximate(TargetPoint((1, 1, 1)), Fraction(1, 100))
    assert all(v > Fraction(99, 100) for v in cert.witness.point)
    assert verify_certificate(cert)


def test_approximate_min_p():
    cert = approximate(TARGET, Fraction(1, 5), min_p=1000)
    assert cert.witness.p >= 1000
    assert cert.prime_floor >= 1000
    assert verify_certificate(cert)


def test_approximate_validation():
    with pytest.raises(ValueError):
        approximate(TARGET, 2)
    with pytest.raises(ValueError):
        approximate(TARGET, 0)


def test_convergence_along_primes():
    primes = class_primes(CHAIN, 6, 6)
    errors = []
    for p in primes:
        witness = lift_chain(CHAIN, p)
        errors.append(max(abs(f - v) for f, v in zip(CHAIN.fractions, witness.point)))
    assert all(a > b for a, b in zip(errors, errors[1:]))


# ---------------------------------------------------------------- verification

def test_verify_detects_tampering():
    cert = approximate(TARGET, Fraction(1, 5))
    assert check_certificate(cert) is None

    tampered = dataclasses.replace(cert, witness=WitnessPoint(29, (17, 21, 18)))
    assert check_certificate(tampered) == "witness-mismatch"
    assert not verify_certificate(tampered)

    tampered = dataclasses.replace(cert, max_error=Fraction(1, 1000))
    assert check_certificate(tampered) == "max-error-mismatch"

    tampered = dataclasses.replace(
        cert, errors=(Fraction(0), Fraction(2, 87), Fraction(3, 145))
    )
    assert check_certificate(tampered) == "errors-mismatch"

    tampered = dataclasses.replace(cert, chain=Chain((1, 2, 4, 5)))
    assert check_certificate(tampered) == "chain-invalid"

    tampered = dataclasses.replace(cert, congruence=CongruenceClass(7, 30))
    assert check_certificate(tampered) == "congruence-mismatch"

    tampered = dataclasses.replace(cert, prime_floor=2)
    assert check_certificate(tampered) == "prime-floor-below-error-bound"

    tampered = dataclasses.replace(cert, witness=WitnessPoint(59, (32, 40, 36)))
    assert check_certificate(tampered) == "errors-mismatch"

    tampered = dataclasses.replace(cert, version=7)
    assert check_certificate(tampered) == "version-unknown"

    tampered = dataclasses.replace(cert, eps=Fraction(1, 100))
    assert check_certificate(tampered) in (
        "prime-floor-below-error-bound",
        "max-error-exceeds-eps",
    )


def test_verify_checks_primality_tag():
    cert = approximate(TARGET, Fraction(1, 5))
    tampered = dataclasses.replace(cert, primality_method="pratt-proof")
    assert check_certificate(tampered) == "primality-method-mismatch"


def test_verify_checks_mode_tag():
    cert = approximate(TARGET, Fraction(1, 5))
    tampered = dataclasses.replace(cert, mode="anything goes")
    assert check_certificate(tampered) == "mode-unknown"


def test_approximate_guard_survives_without_asserts(monkeypatch):
    # a prime floor of 2 lifts 1,2,3,5 at p=29, 5/58 away from the target
    monkeypatch.setattr(lift, "min_prime_for_error", lambda chain, delta: 2)
    with pytest.raises(RuntimeError):
        approximate(TARGET, Fraction(1, 100))


def test_verify_random_end_to_end():
    rng = random.Random(4002)
    for _ in range(10):
        n = rng.choice((2, 3, 4))
        coords = []
        for _ in range(n):
            d = rng.randint(1, 500)
            coords.append(Fraction(rng.randint(0, d), d))
        eps = rng.choice((Fraction(1, 10), Fraction(1, 50)))
        cert = approximate(TargetPoint(tuple(coords)), eps)
        assert verify_certificate(cert)
        assert cert.max_error < eps
