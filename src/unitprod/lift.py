"""Lifts a chain to an explicit point on the product-one hypersurface modulo
a prime from the right residue class, and assembles self-contained,
independently re-checkable approximation certificates.

The lift sends a chain (a0, ..., an) and a prime p to residues
    x1 = (a0*p + an) / a1,      xi = a[i-1]*(p+1) / a[i]   (i >= 2),
both divisions exact precisely when p sits in the class combining
-inverse(a0)*an mod a1 with -1 mod a2*...*an. Multiplying out shows
x1*...*xn = 1 (mod p), and the normalized point (x1/p, ..., xn/p) differs
from the chain's point by exactly an/(a1*p) in the first coordinate and
a[i-1]/(a[i]*p) in the others, so the gap shrinks like 1/p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    CongruenceClass,
    crt,
    is_prime,
    mod_inverse,
    next_prime_in_ap,
    primality_method,
)
from .chain import (
    DEFAULT_CONFIG,
    MODES,
    BuilderConfig,
    Chain,
    TargetPoint,
    build_chain,
    chain_is_valid,
)
from .errors import CongruenceViolated

CERTIFICATE_VERSION = 1


@dataclass(frozen=True)
class WitnessPoint:
    """Prime p and residues x with 1 <= x[i] < p and product 1 mod p."""

    p: int
    x: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(int(v) for v in self.x))

    @property
    def point(self) -> tuple[Fraction, ...]:
        """The normalized point (x1/p, ..., xn/p)."""
        return tuple(Fraction(v, self.p) for v in self.x)


def witness_is_valid(witness: WitnessPoint) -> bool:
    """Recheck both witness invariants: residue range and unit product."""
    if any(not 1 <= v < witness.p for v in witness.x):
        return False
    product = 1
    for v in witness.x:
        product = product * v % witness.p
    return product == 1


@dataclass(frozen=True)
class Certificate:
    """Everything needed to re-verify one approximation from scratch."""

    target: TargetPoint
    eps: Fraction
    chain: Chain
    congruence: CongruenceClass
    prime_floor: int
    witness: WitnessPoint
    errors: tuple[Fraction, ...]
    max_error: Fraction
    primality_method: str
    mode: str
    version: int = CERTIFICATE_VERSION


def dirichlet_residue(chain: Chain) -> CongruenceClass:
    """The residue class (mod a1*(a2*...*an)) every lifting prime must lie in."""
    a = chain.a
    tail = math.prod(a[2:])
    first = CongruenceClass(-mod_inverse(a[0], a[1]) * a[chain.n], a[1])
    second = CongruenceClass(-1, tail)
    return crt([first, second])


def min_prime_for_error(chain: Chain, delta: Fraction | int | str) -> int:
    """Least L such that every prime p >= L in the chain's class keeps all
    lifted residues inside [1, p) and every coordinate gap below delta.

    Each condition is a strict lower bound on p: the gaps are an/(a1*p) and
    a[i-1]/(a[i]*p), and the residues stay below p once p exceeds
    an/(a1-a0) and each a[i-1]/(a[i]-a[i-1]).
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not chain_is_valid(chain.a):
        raise ValueError("chain is not valid")
    a = chain.a
    n = chain.n
    bounds = [Fraction(a[n], a[1]) / delta, Fraction(a[n], a[1] - a[0])]
    for i in range(2, n + 1):
        bounds.append(Fraction(a[i - 1], a[i]) / delta)
        bounds.append(Fraction(a[i - 1], a[i] - a[i - 1]))
    return math.floor(max(bounds)) + 1


def lift_chain(chain: Chain, p: int) -> WitnessPoint:
    """Lift the chain at prime p; p must lie in dirichlet_residue's class and
    be large enough that every residue lands in [1, p)."""
    a = chain.a
    n = chain.n
    numerator = a[0] * p + a[n]
    if numerator % a[1]:
        raise CongruenceViolated(f"a1={a[1]} does not divide a0*p + an at p={p}")
    xs = [numerator // a[1]]
    for i in range(2, n + 1):
        numerator = a[i - 1] * (p + 1)
        if numerator % a[i]:
            raise CongruenceViolated(
                f"a{i}={a[i]} does not divide a{i - 1}*(p + 1) at p={p}"
            )
        xs.append(numerator // a[i])
    witness = WitnessPoint(p, tuple(xs))
    if not witness_is_valid(witness):
        raise CongruenceViolated(f"lift at p={p} leaves a residue outside [1, p)")
    return witness


def approximate(
    target: TargetPoint,
    eps: Fraction | int | str,
    config: BuilderConfig = DEFAULT_CONFIG,
    *,
    min_p: int = 2,
) -> Certificate:
    """Full pipeline: chain within eps/2, prime large enough that the lift
    moves each coordinate by less than eps/2, exact final errors.

    min_p raises the prime search floor beyond the error-driven one (used by
    the polynomial pipeline, harmless otherwise).
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    chain = build_chain(target, eps / 2, config)
    floor = max(min_prime_for_error(chain, eps / 2), min_p)
    congruence = dirichlet_residue(chain)
    p = next_prime_in_ap(congruence, floor)
    witness = lift_chain(chain, p)
    errors = tuple(
        abs(t - Fraction(x, p)) for t, x in zip(target.coords, witness.x)
    )
    max_error = max(errors)
    if max_error >= eps:  # excluded by the eps/2 + eps/2 split
        raise RuntimeError(f"lift at p={p} misses eps: max error {max_error}")
    return Certificate(
        target=target,
        eps=eps,
        chain=chain,
        congruence=congruence,
        prime_floor=floor,
        witness=witness,
        errors=errors,
        max_error=max_error,
        primality_method=primality_method(p),
        mode=config.mode,
        version=CERTIFICATE_VERSION,
    )


def check_certificate(cert: Certificate) -> str | None:
    """Recompute every claim from (target, eps, chain, p) alone; None when
    all hold, else a short reason code for the first failure."""
    if cert.version != CERTIFICATE_VERSION:
        return "version-unknown"
    if cert.mode not in MODES:
        return "mode-unknown"
    n = cert.target.n
    if cert.chain.n != n or len(cert.witness.x) != n or len(cert.errors) != n:
        return "dimension-mismatch"
    if not 0 < cert.eps <= 1:
        return "eps-out-of-range"
    if not chain_is_valid(cert.chain.a):
        return "chain-invalid"
    if dirichlet_residue(cert.chain) != cert.congruence:
        return "congruence-mismatch"
    if cert.prime_floor < min_prime_for_error(cert.chain, cert.eps / 2):
        return "prime-floor-below-error-bound"
    p = cert.witness.p
    if p < cert.prime_floor:
        return "prime-below-floor"
    if not is_prime(p):
        return "p-not-prime"
    if cert.primality_method != primality_method(p):
        return "primality-method-mismatch"
    if not cert.congruence.contains(p):
        return "p-not-in-class"
    try:
        relifted = lift_chain(cert.chain, p)
    except CongruenceViolated:
        return "lift-fails"
    if relifted.x != cert.witness.x:
        return "witness-mismatch"
    if not witness_is_valid(cert.witness):
        return "witness-invalid"
    errors = tuple(
        abs(t - Fraction(x, p)) for t, x in zip(cert.target.coords, cert.witness.x)
    )
    if errors != cert.errors:
        return "errors-mismatch"
    if max(errors) != cert.max_error:
        return "max-error-mismatch"
    if cert.max_error >= cert.eps:
        return "max-error-exceeds-eps"
    return None


def verify_certificate(cert: Certificate) -> bool:
    """True iff every claim in the certificate re-verifies exactly."""
    return check_certificate(cert) is None
