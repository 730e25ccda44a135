"""Certificates for coordinates transformed by a monic polynomial.

To land f(x_i)/p^d near alpha_i it is enough to land x_i/p near the d-th
root of alpha_i and take p large: the binomial expansion bounds
|x^d/p^d - alpha| once |x/p - alpha^(1/d)| < eps/2^(d+1), and the lower
order terms contribute at most d*height/p < eps/2 once p > 2*d*height/eps.
The final errors are still checked exactly, independent of those bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .chain import DEFAULT_CONFIG, BuilderConfig, TargetPoint
from .lift import Certificate, approximate, check_certificate


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
    """A point certificate plus the exact polynomial values it induces."""

    f: MonicPolynomial
    alphas: TargetPoint
    eps: Fraction
    root_targets: TargetPoint
    root_precision: Fraction
    inner: Certificate
    values: tuple[Fraction, ...]
    errors: tuple[Fraction, ...]


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
    k = 0
    while Fraction(1, 2**k) > precision:
        k += 1
    scale = 2**k
    rhs = alpha.numerator * scale**d
    lo, hi = 0, scale
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**d * alpha.denominator <= rhs:
            lo = mid
        else:
            hi = mid - 1
    return Fraction(lo, scale)


def _root_precision(eps: Fraction, d: int) -> Fraction:
    return eps / 2 ** (d + 2)


def _inner_eps(eps: Fraction, d: int) -> Fraction:
    # the root budget eps/2^(d+1) is split evenly between approximating the
    # root rationally and approximating that rational by a witness
    return eps / 2 ** (d + 1) - _root_precision(eps, d)


def approximate_polynomial(
    f: MonicPolynomial,
    alphas: TargetPoint,
    eps: Fraction | int | str,
    config: BuilderConfig = DEFAULT_CONFIG,
) -> PolyCertificate:
    """Witness with |f(x_i)/p^d - alpha_i| < eps in every coordinate, built
    by running the point pipeline at the d-th-root targets with a prime
    floor above 2*d*height/eps."""
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    d = f.degree
    precision = _root_precision(eps, d)
    roots = TargetPoint(tuple(rational_root(a, d, precision) for a in alphas.coords))
    min_p = math.floor(2 * d * f.height / eps) + 1
    inner = approximate(roots, _inner_eps(eps, d), config, min_p=min_p)
    p = inner.witness.p
    p_power = p**d
    values = tuple(Fraction(poly_eval(f, x), p_power) for x in inner.witness.x)
    errors = tuple(abs(v - a) for v, a in zip(values, alphas.coords))
    if max(errors) >= eps:  # excluded by the budget split and prime floor
        raise RuntimeError(f"witness at p={p} misses eps: max error {max(errors)}")
    return PolyCertificate(
        f=f,
        alphas=alphas,
        eps=eps,
        root_targets=roots,
        root_precision=precision,
        inner=inner,
        values=values,
        errors=errors,
    )


def check_poly_certificate(cert: PolyCertificate) -> str | None:
    """Recompute the whole reduction; None when everything holds, else a
    short reason code."""
    d = cert.f.degree
    n = cert.alphas.n
    if cert.root_targets.n != n or len(cert.values) != n or len(cert.errors) != n:
        return "dimension-mismatch"
    if not 0 < cert.eps <= 1:
        return "eps-out-of-range"
    if cert.root_precision != _root_precision(cert.eps, d):
        return "root-precision-mismatch"
    expected_roots = tuple(
        rational_root(a, d, cert.root_precision) for a in cert.alphas.coords
    )
    if cert.root_targets.coords != expected_roots:
        return "root-targets-mismatch"
    if cert.inner.target != cert.root_targets:
        return "inner-target-mismatch"
    if cert.inner.eps != _inner_eps(cert.eps, d):
        return "inner-eps-mismatch"
    reason = check_certificate(cert.inner)
    if reason is not None:
        return f"inner-{reason}"
    p = cert.inner.witness.p
    if p * cert.eps <= 2 * d * cert.f.height:
        return "prime-floor-too-low"
    p_power = p**d
    values = tuple(Fraction(poly_eval(cert.f, x), p_power) for x in cert.inner.witness.x)
    if values != cert.values:
        return "values-mismatch"
    errors = tuple(abs(v - a) for v, a in zip(values, cert.alphas.coords))
    if errors != cert.errors:
        return "errors-mismatch"
    if max(errors) >= cert.eps:
        return "error-exceeds-eps"
    return None


def verify_poly_certificate(cert: PolyCertificate) -> bool:
    """True iff every claim in the polynomial certificate re-verifies."""
    return check_poly_certificate(cert) is None
