"""Certificates for coordinates transformed by a monic polynomial.

To land f(x_i)/p^d near alpha_i it is enough to land x_i/p near the d-th
root of alpha_i and take p large. The leading term obeys a Lipschitz bound:
for s, t in [0, 1], |s^d - t^d| = |s - t| * (s^(d-1) + ... + t^(d-1)) <=
d*|s - t|. So |x^d/p^d - alpha| < eps/2 once |x/p - alpha^(1/d)| < eps/(2d),
a budget split evenly: the rational root is within eps/(4d) of
alpha^(1/d), and the witness within eps/(4d) of that root. The lower order
terms contribute at most d*height/p < eps/2 once p > 2*d*height/eps. The
final errors are still checked exactly, independent of those bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import check_eps
from .chain import DEFAULT_CONFIG, BuilderConfig, Chain, TargetPoint
from .lift import Certificate, WitnessPoint, approximate, check_certificate


@dataclass(frozen=True)
class MonicPolynomial:
    """x^degree + coeffs[d-1]*x^(d-1) + ... + coeffs[0], coefficients listed
    low to high without the leading 1."""

    degree: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        coeffs = tuple(int(c) for c in self.coeffs)
        if len(coeffs) != self.degree:
            raise ValueError("need exactly one coefficient per power below the top")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def height(self) -> int:
        """Largest absolute coefficient; the implicit leading 1 counts."""
        return max(1, max(abs(c) for c in self.coeffs))


@dataclass(frozen=True)
class PolyCertificate:
    """The claim that the witness's values f(x_i)/p^d lie within eps of the
    alphas, with the chain that lifts to the witness.

    The root precision, the inner point certificate at the d-th-root targets,
    the values and their errors are derived, each computed at most once per
    certificate.
    """

    f: MonicPolynomial
    alphas: TargetPoint
    eps: Fraction
    mode: str
    chain: Chain
    witness: WitnessPoint

    @cached_property
    def root_precision(self) -> Fraction:
        return _root_budget(self.eps, self.f.degree)

    @cached_property
    def inner(self) -> Certificate:
        """The point certificate the chain and witness make at the d-th roots
        of the alphas, with eps the other half of the root budget."""
        half = self.root_precision
        roots = _root_targets(self.alphas, self.f.degree, half)
        return Certificate(roots, half, self.chain, self.witness, self.mode)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The exact values f(x_i)/p^d at the witness."""
        p_power = self.witness.p**self.f.degree
        return tuple(Fraction(poly_eval(self.f, x), p_power) for x in self.witness.x)

    @cached_property
    def errors(self) -> tuple[Fraction, ...]:
        """Distance |f(x_i)/p^d - alpha_i| in each coordinate."""
        return tuple(abs(v - a) for v, a in zip(self.values, self.alphas.coords))


def poly_eval(f: MonicPolynomial, x: int) -> int:
    """Exact Horner evaluation of f at an integer."""
    acc = 1
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def rational_root(
    alpha: Fraction | int | str, d: int, precision: Fraction | int | str
) -> Fraction:
    """Rational t in [0, 1] with |t - alpha^(1/d)| < precision.

    For d = 1 the root is alpha itself and is returned unchanged. Otherwise
    binary search for the largest numerator u with (u/2^k)^d <= alpha at a
    power-of-two scale 2^k fine enough for the requested precision; exact
    dyadic roots come out exactly.
    """
    alpha, precision = Fraction(alpha), Fraction(precision)
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    if precision <= 0:
        raise ValueError("precision must be positive")
    if d < 1:
        raise ValueError("d must be at least 1")
    if d == 1:
        return alpha
    # least k with 1/2^k <= precision, i.e. 2^k >= ceil(1/precision)
    scale = 2 ** ((precision.denominator - 1) // precision.numerator).bit_length()
    rhs = alpha.numerator * scale**d
    lo, hi = 0, scale
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**d * alpha.denominator <= rhs:
            lo = mid
        else:
            hi = mid - 1
    return Fraction(lo, scale)


def _root_budget(eps: Fraction, d: int) -> Fraction:
    # each half of the root budget eps/(2d): the rational root's distance to
    # alpha^(1/d) (the root precision), and the witness's distance to the
    # rational root (the inner eps)
    return eps / (4 * d)


def _root_targets(alphas: TargetPoint, d: int, precision: Fraction) -> TargetPoint:
    return TargetPoint(tuple(rational_root(a, d, precision) for a in alphas.coords))


def _prime_floor(f: MonicPolynomial, eps: Fraction) -> int:
    """Least p with p*eps > 2*d*height, so that the lower order terms move
    f(x)/p^d by less than eps/2."""
    return math.floor(2 * f.degree * f.height / eps) + 1


def approximate_polynomial(
    f: MonicPolynomial,
    alphas: TargetPoint,
    eps: Fraction | int | str,
    config: BuilderConfig = DEFAULT_CONFIG,
) -> PolyCertificate:
    """Witness with |f(x_i)/p^d - alpha_i| < eps in every coordinate, built
    by running the point pipeline at the d-th-root targets with a prime
    floor above 2*d*height/eps."""
    eps = check_eps(eps)
    half = _root_budget(eps, f.degree)
    roots = _root_targets(alphas, f.degree, half)
    inner = approximate(roots, half, config, min_p=_prime_floor(f, eps))
    cert = PolyCertificate(f, alphas, eps, inner.mode, inner.chain, inner.witness)
    if max(cert.errors) >= eps:  # excluded by the budget split and prime floor
        raise RuntimeError(
            f"witness at p={inner.witness.p} misses eps: max error {max(cert.errors)}"
        )
    return cert


def check_poly_certificate(cert: PolyCertificate) -> str | None:
    """Recompute the whole reduction; None when everything holds, else a
    short reason code."""
    n = cert.alphas.n
    if cert.chain.n != n or len(cert.witness.x) != n:
        return "dimension-mismatch"
    if not 0 < cert.eps <= 1:
        return "eps-out-of-range"
    if cert.witness.p < _prime_floor(cert.f, cert.eps):
        return "prime-floor-too-low"
    if max(cert.errors) >= cert.eps:
        return "error-exceeds-eps"
    reason = check_certificate(cert.inner)  # rebuilt at the d-th roots; proves p last
    return None if reason is None else f"inner-{reason}"


def verify_poly_certificate(cert: PolyCertificate) -> bool:
    """True iff every claim in the polynomial certificate re-verifies."""
    return check_poly_certificate(cert) is None
