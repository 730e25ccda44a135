import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitprod import poly
from unitprod.chain import Chain, TargetPoint
from unitprod.poly import (
    MonicPolynomial,
    approximate_polynomial,
    check_poly_certificate,
    poly_eval,
    rational_root,
    verify_poly_certificate,
)

HALVES = TargetPoint((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))


# ---------------------------------------------------------------- poly_eval

def test_poly_eval_examples():
    assert poly_eval(MonicPolynomial(2, (0, 0)), 17) == 289
    assert poly_eval(MonicPolynomial(2, (1, -3)), 0) == 1
    assert poly_eval(MonicPolynomial(3, (5, 2, 0)), 10) == 1025


def test_poly_height():
    assert MonicPolynomial(2, (1, 0)).height == 1
    assert MonicPolynomial(1, (0,)).height == 1
    assert MonicPolynomial(3, (-7, 2, 4)).height == 7


def test_monic_polynomial_validation():
    with pytest.raises(ValueError):
        MonicPolynomial(0, ())
    with pytest.raises(ValueError):
        MonicPolynomial(2, (1,))


# ---------------------------------------------------------------- roots

def root_in_interval(t, alpha, d, precision):
    """Exact check of |t - alpha^(1/d)| < precision via d-th powers."""
    if t < 0 or t > 1:
        return False
    upper = (t + precision) ** d > alpha
    lower = t <= precision or (t - precision) ** d < alpha
    return upper and lower


def test_rational_root_examples():
    assert rational_root(Fraction(1, 4), 2, Fraction(1, 1000)) == Fraction(1, 2)
    t = rational_root(1, 5, Fraction(1, 1000))
    assert t == 1
    t = rational_root(Fraction(1, 2), 2, Fraction(1, 1024))
    assert Fraction(7064, 10000) < t < Fraction(7079, 10000)
    assert root_in_interval(t, Fraction(1, 2), 2, Fraction(1, 1024))


def test_rational_root_degree_one_is_exact():
    assert rational_root(Fraction(1, 3), 1, Fraction(1, 10**6)) == Fraction(1, 3)


def test_rational_root_boundaries():
    assert rational_root(0, 3, Fraction(1, 100)) == 0
    assert rational_root(1, 2, Fraction(1, 100)) == 1


def test_rational_root_random():
    rng = random.Random(5001)
    for _ in range(200):
        d = rng.randint(1, 4)
        den = rng.randint(1, 1000)
        alpha = Fraction(rng.randint(0, den), den)
        precision = Fraction(1, rng.randint(2, 10**5))
        t = rational_root(alpha, d, precision)
        assert root_in_interval(t, alpha, d, precision)


# ---------------------------------------------------------------- pipeline

def test_identity_polynomial_collapses():
    f = MonicPolynomial(1, (0,))
    alphas = TargetPoint((Fraction(1, 3), Fraction(2, 7), Fraction(5, 9)))
    cert = approximate_polynomial(f, alphas, Fraction(1, 10))
    assert cert.inner.target == alphas
    assert cert.values == cert.inner.witness.point
    assert cert.errors == cert.inner.errors
    assert verify_poly_certificate(cert)


def test_square_plus_one_example():
    f = MonicPolynomial(2, (1, 0))
    cert = approximate_polynomial(f, HALVES, Fraction(1, 10))
    p = cert.inner.witness.p
    assert p > 40  # 2 * d * height / eps
    assert all(err < Fraction(1, 10) for err in cert.errors)
    for value, x in zip(cert.values, cert.inner.witness.x):
        assert value == Fraction(x * x + 1, p * p)
    assert verify_poly_certificate(cert)


def test_square_with_exact_roots():
    f = MonicPolynomial(2, (0, 0))
    alphas = TargetPoint((Fraction(1, 4), Fraction(4, 9), Fraction(9, 25)))
    cert = approximate_polynomial(f, alphas, Fraction(1, 5))
    assert all(err < Fraction(1, 5) for err in cert.errors)
    assert verify_poly_certificate(cert)


def test_poly_random_trials():
    rng = random.Random(5002)
    for _ in range(10):
        d = rng.randint(1, 3)
        f = MonicPolynomial(d, tuple(rng.randint(-5, 5) for _ in range(d)))
        coords = []
        for _ in range(3):
            den = rng.randint(1, 100)
            coords.append(Fraction(rng.randint(0, den), den))
        cert = approximate_polynomial(f, TargetPoint(tuple(coords)), Fraction(1, 10))
        assert verify_poly_certificate(cert)
        assert cert.inner.witness.p * cert.eps > 2 * d * f.height


@pytest.mark.parametrize(
    "degree, alphas, eps",
    [
        # a middle alpha of 0 at a high degree pushes the chain's prime floor
        # past 3 * 2^40: its root target 0 needs a1/a2 below eps/(4d)
        (256, TargetPoint((Fraction(1, 2), 0, Fraction(1, 2))), Fraction(1, 1000)),
        (512, TargetPoint((Fraction(1, 3), 0, Fraction(3, 4))), Fraction(1, 1000)),
    ],
)
def test_poly_needs_a_large_floor(degree, alphas, eps):
    rng = random.Random(degree)
    f = MonicPolynomial(degree, tuple(rng.randint(-5, 5) for _ in range(degree)))
    cert = approximate_polynomial(f, alphas, eps)
    assert check_poly_certificate(cert) is None
    assert cert.inner.chain.a[2] > 3 * 2**40


ALPHAS = st.one_of(
    st.sampled_from((Fraction(0), Fraction(1))),
    st.integers(0, 1000).map(lambda k: Fraction(k, 1000)),
)
POLYS = st.integers(1, 64).flatmap(
    lambda d: st.lists(st.integers(-5, 5), min_size=d, max_size=d)
).map(lambda coeffs: MonicPolynomial(len(coeffs), tuple(coeffs)))


@settings(max_examples=100, deadline=None)
@given(
    f=POLYS,
    alphas=st.lists(ALPHAS, min_size=2, max_size=3),
    eps=st.sampled_from((Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))),
)
def test_lipschitz_budget_holds(f, alphas, eps):
    # the eps/(4d) + eps/(4d) root budget and the prime floor keep every
    # value within eps, also at the ends 0 and 1 of [0, 1]
    cert = approximate_polynomial(f, TargetPoint(tuple(alphas)), eps)
    assert cert.root_precision == cert.inner.eps == eps / (4 * f.degree)
    assert check_poly_certificate(cert) is None
    assert max(cert.errors) < eps


def test_poly_verify_detects_tampering():
    f = MonicPolynomial(2, (1, 0))
    cert = approximate_polynomial(f, HALVES, Fraction(1, 10))
    assert check_poly_certificate(cert) is None

    # the values follow f: x^2 + 2 moves them by 1/p^2, so the same witness
    # certifies it too, while a height that needs a larger prime does not
    tampered = dataclasses.replace(cert, f=MonicPolynomial(2, (2, 0)))
    assert check_poly_certificate(tampered) is None
    tampered = dataclasses.replace(cert, f=MonicPolynomial(2, (10**9, 0)))
    assert check_poly_certificate(tampered) == "prime-floor-too-low"

    # the inner certificate is rebuilt from the chain and witness: a chain
    # one term short fails the dimension check, and another valid chain of
    # the right length misses the class of p
    tampered = dataclasses.replace(cert, chain=Chain(cert.chain.a[:-1]))
    assert check_poly_certificate(tampered) == "dimension-mismatch"
    a = cert.chain.a
    tampered = dataclasses.replace(cert, chain=Chain(a[:-1] + (a[-1] * a[-2] + 1,)))
    assert tampered.inner.chain == tampered.chain
    assert check_poly_certificate(tampered) == "inner-p-not-in-class"

    # the values follow the witness; an edited residue fails its relift
    x = cert.witness.x
    witness = dataclasses.replace(cert.witness, x=(x[0] + 1,) + x[1:])
    tampered = dataclasses.replace(cert, witness=witness)
    assert tampered.values[1:] == cert.values[1:] and tampered.values[0] != cert.values[0]
    assert check_poly_certificate(tampered) == "inner-witness-mismatch"


def test_poly_guard_survives_without_asserts(monkeypatch):
    # a root budget of 1 leaves the values far from the targets
    monkeypatch.setattr(poly, "_root_budget", lambda eps, d: Fraction(1))
    with pytest.raises(RuntimeError):
        approximate_polynomial(MonicPolynomial(2, (1, 0)), HALVES, Fraction(1, 10))


def test_poly_validation():
    with pytest.raises(ValueError):
        approximate_polynomial(MonicPolynomial(1, (0,)), HALVES, 2)
