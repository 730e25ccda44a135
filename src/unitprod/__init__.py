"""Dense rational approximation by points on the product-one hypersurface.

Given a target point in [0,1]^n and a tolerance, the pipeline produces an
explicit prime p and residues (x1, ..., xn) with x1*...*xn = 1 (mod p) whose
normalization approximates the target, packaged as a certificate with exact
per-coordinate errors that anyone can re-check. A small lab enumerates all
such points for one prime and measures how evenly they fill the cube.
"""

from .arith import (
    CongruenceClass,
    Factorization,
    crt,
    factorize,
    is_prime,
    jacobsthal,
    mod_inverse,
    next_prime_in_ap,
)
from .chain import (
    BuilderConfig,
    Chain,
    TargetPoint,
    build_chain,
    chain_is_valid,
    faithful_floor,
    faithful_parameters,
)
from .certio import (
    parse_certificate,
    parse_document,
    serialize_certificate,
    serialize_poly_certificate,
    serialize_report,
)
from .errors import (
    BudgetExceeded,
    CertificateFormatError,
    CongruenceViolated,
    EscalationExhausted,
    InputTooLarge,
    ModuliNotCoprime,
    NoCandidate,
    NotCoprime,
    SearchExhausted,
    UnitprodError,
)
from .lab import (
    DiscrepancyReport,
    box_discrepancy,
    enumerate_points,
    nearest_point_distance,
)
from .lift import (
    Certificate,
    WitnessPoint,
    approximate,
    check_certificate,
    dirichlet_residue,
    lift_chain,
    min_prime_for_error,
    verify_certificate,
)
from .poly import (
    MonicPolynomial,
    PolyCertificate,
    approximate_polynomial,
    check_poly_certificate,
    poly_eval,
    rational_root,
    verify_poly_certificate,
)
from .search import find_coprime_numerator, find_denominator_for_prime

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "BuilderConfig",
    "Certificate",
    "CertificateFormatError",
    "Chain",
    "CongruenceClass",
    "CongruenceViolated",
    "DiscrepancyReport",
    "EscalationExhausted",
    "Factorization",
    "InputTooLarge",
    "ModuliNotCoprime",
    "MonicPolynomial",
    "NoCandidate",
    "NotCoprime",
    "PolyCertificate",
    "SearchExhausted",
    "TargetPoint",
    "UnitprodError",
    "WitnessPoint",
    "approximate",
    "approximate_polynomial",
    "box_discrepancy",
    "build_chain",
    "chain_is_valid",
    "check_certificate",
    "check_poly_certificate",
    "crt",
    "dirichlet_residue",
    "enumerate_points",
    "factorize",
    "faithful_floor",
    "faithful_parameters",
    "find_coprime_numerator",
    "find_denominator_for_prime",
    "is_prime",
    "jacobsthal",
    "lift_chain",
    "min_prime_for_error",
    "mod_inverse",
    "nearest_point_distance",
    "next_prime_in_ap",
    "parse_certificate",
    "parse_document",
    "poly_eval",
    "rational_root",
    "serialize_certificate",
    "serialize_poly_certificate",
    "serialize_report",
    "verify_certificate",
    "verify_poly_certificate",
]
