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
from functools import cached_property

from .arith import (
    PROBABILISTIC_TAG,
    CongruenceClass,
    check_eps,
    crt,
    mod_inverse,
    next_proved_prime_in_ap,
    prove_prime,
)
from .chain import (
    DEFAULT_CONFIG,
    MODES,
    BuilderConfig,
    Chain,
    TargetPoint,
    build_chain,
    build_proved_chain,
    chain_is_valid,
)
from .errors import CongruenceViolated, EscalationExhausted, SearchExhausted


@dataclass(frozen=True)
class WitnessPoint:
    """Prime p and residues x with 1 <= x[i] < p and product 1 mod p; p < 2
    is rejected here, so the normalized point is always defined."""

    p: int
    x: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError("p must be at least 2")
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
    """Everything needed to re-verify one approximation from scratch.

    The class of p, the errors, their maximum and the primality proof are
    derived from the target, the chain and the witness, each computed at
    most once per certificate.
    """

    target: TargetPoint
    eps: Fraction
    chain: Chain
    witness: WitnessPoint
    mode: str

    @cached_property
    def congruence(self) -> CongruenceClass:
        return dirichlet_residue(self.chain)

    @property
    def prime_floor(self) -> int:
        """The error-driven floor of the construction; no claim to check."""
        return min_prime_for_error(self.chain, self.eps / 2)

    @cached_property
    def errors(self) -> tuple[Fraction, ...]:
        """Exact distance |t_i - x_i/p| in each coordinate."""
        return tuple(abs(t - v) for t, v in zip(self.target.coords, self.witness.point))

    @cached_property
    def max_error(self) -> Fraction:
        return max(self.errors)

    @cached_property
    def prime_proof(self) -> str | None:
        """The tag of the test that shows p prime, None if p is composite.

        Above DETERMINISTIC_PRIMALITY_BOUND, the N+1 proof draws its factors
        of p+1 from the primes below 2^16 of p+1 and from the tail a2..an of
        the chain (p = -1 mod a2*...*an), whose terms divide p+1.
        """
        return prove_prime(self.witness.p, self.chain.a[2:])


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


def _least_prime(chain: Chain, eps: Fraction, min_p: int) -> tuple[int, str]:
    """The least proved prime of the chain's class at or above its error
    floor and min_p, with its proof tag."""
    floor = max(min_prime_for_error(chain, eps / 2), min_p)
    return next_proved_prime_in_ap(dirichlet_residue(chain), floor, chain.a[2:])


def approximate(
    target: TargetPoint,
    eps: Fraction | int | str,
    config: BuilderConfig = DEFAULT_CONFIG,
    *,
    min_p: int = 2,
) -> Certificate:
    """Full pipeline: chain within eps/2, prime large enough that the lift
    moves each coordinate by less than eps/2, exact final errors.

    Where no proof of p applies (PROBABILISTIC_TAG), the chain is rebuilt
    once with a tail of proved primes (build_proved_chain), which p's N+1
    proof can use as factors of p + 1, and kept only if its p is proved.
    That proof needs its factors to exceed p^(1/3), so the rebuild runs only
    when 3 * bits(a[n-1] * a[n]) > bits(p): a chain with fewer tail bits
    has no chance.

    min_p raises the prime search floor beyond the error-driven one (used by
    the polynomial pipeline, harmless otherwise).
    """
    eps = check_eps(eps)
    chain = build_chain(target, eps / 2, config)
    p, proof = _least_prime(chain, eps, min_p)
    tail_bits = (chain.a[-2] * chain.a[-1]).bit_length()
    if proof == PROBABILISTIC_TAG and 3 * tail_bits > p.bit_length():
        try:
            rebuilt = build_proved_chain(target, eps / 2, config)
            q, q_proof = _least_prime(rebuilt, eps, min_p)
        except (EscalationExhausted, SearchExhausted):
            pass  # no proved tail: keep the first chain
        else:
            if q_proof != PROBABILISTIC_TAG:
                chain, p, proof = rebuilt, q, q_proof
    cert = Certificate(target, eps, chain, lift_chain(chain, p), config.mode)
    vars(cert)["prime_proof"] = proof  # the scan has just proved p
    if cert.max_error >= eps:  # excluded by the eps/2 + eps/2 split
        raise RuntimeError(f"lift at p={p} misses eps: max error {cert.max_error}")
    return cert


def check_certificate(cert: Certificate) -> str | None:
    """Recompute every claim from (target, eps, chain, p) alone; None when
    all hold, else a short reason code for the first failure. Proving p is
    the costliest check, so it runs last."""
    if cert.mode not in MODES:
        return "mode-unknown"
    n = cert.target.n
    if cert.chain.n != n or len(cert.witness.x) != n:
        return "dimension-mismatch"
    if not 0 < cert.eps <= 1:
        return "eps-out-of-range"
    if not chain_is_valid(cert.chain.a):
        return "chain-invalid"
    p = cert.witness.p
    if not cert.congruence.contains(p):
        return "p-not-in-class"
    try:
        relifted = lift_chain(cert.chain, p)
    except CongruenceViolated:
        return "lift-fails"
    if relifted.x != cert.witness.x:
        return "witness-mismatch"
    if cert.max_error >= cert.eps:
        return "max-error-exceeds-eps"
    if cert.prime_proof is None:
        return "p-not-prime"
    return None


def verify_certificate(cert: Certificate) -> bool:
    """True iff every claim in the certificate re-verifies exactly."""
    return check_certificate(cert) is None
