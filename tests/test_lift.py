import dataclasses
import random
from fractions import Fraction

import pytest

from unitprod.arith import (
    LUCAS_TAG,
    PROBABILISTIC_TAG,
    CongruenceClass,
    is_prime,
    is_proved_prime,
)
from unitprod.chain import BuilderConfig, Chain, TargetPoint, build_chain
from unitprod import lift
from unitprod.certio import parse_document, serialize_certificate
from unitprod.errors import CertificateFormatError, CongruenceViolated
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


@pytest.mark.parametrize("p", [1, 0, -29])
def test_witness_rejects_p_below_two(p):
    with pytest.raises(ValueError):
        WitnessPoint(p, (1, 1, 1))


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
    assert cert.prime_proof == "miller-rabin-deterministic"
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
    assert verify_certificate(cert)


def test_approximate_needs_a_large_floor():
    # zero middle coordinates make every attempt fail up to a floor past 3 * 2^40
    target = TargetPoint((Fraction(1, 2), 0, 0, 0, Fraction(1, 2)))
    cert = approximate(target, Fraction(1, 1000))
    assert check_certificate(cert) is None
    assert cert.chain.a[4] > 3 * 2**40


def test_a_fallback_p_is_rebuilt_with_a_proved_tail():
    # the golden point-faithful-n5-rebuilt input: no proof applies to the p
    # of its first chain
    target = TargetPoint(tuple(Fraction(k, 1000) for k in (94, 87, 370, 856, 174)))
    eps, config = Fraction(1, 1000), BuilderConfig("faithful")
    first = build_chain(target, eps / 2, config)
    assert lift._least_prime(first, eps, 2)[1] == PROBABILISTIC_TAG
    cert = approximate(target, eps, config)
    assert cert.chain != first
    assert all(is_prime(a) and is_proved_prime(a) for a in cert.chain.a[-2:])
    assert cert.prime_proof == LUCAS_TAG
    assert check_certificate(cert) is None


@pytest.mark.parametrize("min_p, rebuilds", [(2, 1), (2**12, 0)])
def test_rebuild_gate(monkeypatch, min_p, rebuilds):
    # every p is made to fall back; the chain (1, 2, 3, 5) has a tail 3 * 5
    # of 4 bits, so only a p below 2^12 can be proved from it and rebuilt
    scan, rebuild = lift.next_proved_prime_in_ap, lift.build_proved_chain
    monkeypatch.setattr(
        lift, "next_proved_prime_in_ap", lambda *args: (scan(*args)[0], PROBABILISTIC_TAG)
    )
    calls = []
    monkeypatch.setattr(lift, "build_proved_chain", lambda *args: calls.append(args) or rebuild(*args))
    cert = approximate(TARGET, Fraction(1, 5), min_p=min_p)
    assert len(calls) == rebuilds
    # a rebuilt p that still falls back is not kept: the first chain stays
    assert cert.chain == CHAIN
    assert cert.prime_proof == PROBABILISTIC_TAG


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

    tampered = dataclasses.replace(cert, chain=Chain((1, 2, 4, 5)))
    assert check_certificate(tampered) == "chain-invalid"

    # the class of p follows the chain: a valid chain of another class
    # leaves p=29 outside it
    tampered = dataclasses.replace(cert, chain=Chain((1, 2, 3, 7)))
    assert tampered.congruence == CongruenceClass(41, 42)
    assert check_certificate(tampered) == "p-not-in-class"

    # the errors follow the witness, so the lift at the next prime of the
    # class is a certificate in its own right
    moved = dataclasses.replace(cert, witness=WitnessPoint(59, (32, 40, 36)))
    assert moved.errors == (Fraction(5, 118), Fraction(2, 177), Fraction(3, 295))
    assert moved.max_error == Fraction(5, 118)
    assert check_certificate(moved) is None

    # the prime floor is no claim; a tighter eps fails the exact errors
    tampered = dataclasses.replace(cert, eps=Fraction(1, 100))
    assert tampered.prime_floor > cert.witness.p
    assert check_certificate(tampered) == "max-error-exceeds-eps"


def test_verify_checks_primality_tag():
    # the tag is derived from p and stored nowhere: a primality line fails to
    # parse, and a composite p in the class that passes every other check
    # fails the proof the checker runs last
    cert = approximate(TARGET, Fraction(1, 5))
    assert cert.prime_proof == "miller-rabin-deterministic"
    document = serialize_certificate(cert)
    with pytest.raises(CertificateFormatError, match="unexpected fields.*primality"):
        parse_document(document + "primality: miller-rabin-deterministic\n")
    composite = dataclasses.replace(cert, witness=lift_chain(cert.chain, 7 * 17))
    assert composite.prime_proof is None
    assert check_certificate(composite) == "p-not-prime"


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
