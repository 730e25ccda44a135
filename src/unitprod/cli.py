"""Command line front end: one subcommand per pipeline stage.

Fractions are parsed exactly ("1/100" or a decimal literal like "0.01");
output bytes are deterministic for identical arguments. Exit codes: 0 on
success or a valid certificate, 1 for an invalid certificate, 2 for usage
errors, 3 for domain errors (exhausted searches, budgets, bad inputs).
"""

from __future__ import annotations

import argparse
import csv
import sys
from fractions import Fraction

from . import certio
from .arith import is_prime, jacobsthal, next_prime_in_ap
from .chain import MODES, BuilderConfig, Chain, TargetPoint, build_chain, chain_is_valid
from .errors import CertificateFormatError, UnitprodError
from .lab import box_discrepancy, enumerate_points
from .lift import (
    Certificate,
    approximate,
    check_certificate,
    dirichlet_residue,
    lift_chain,
    min_prime_for_error,
)
from .poly import MonicPolynomial, approximate_polynomial, check_poly_certificate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _eps(text: str) -> Fraction:
    value = _fraction(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError("eps must lie in (0, 1]")
    return value


def _target(text: str) -> TargetPoint:
    try:
        return TargetPoint(tuple(_fraction(part) for part in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return certio.INT_LIST.read(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from None


def _config(args: argparse.Namespace) -> BuilderConfig:
    return BuilderConfig(mode=args.mode, start_prime_floor=args.start_floor)


def _approx_hint(key: str, value: Fraction) -> str:
    return f"{key}-approx: {float(value):.3g}"


def _emit(document: str, hints: list[str], fmt: str) -> None:
    """Print the document; the text format follows it with hint lines, whose
    keys are never document keys."""
    sys.stdout.write(document)
    if fmt == "text":
        sys.stdout.write("".join(hint + "\n" for hint in hints))


def _write_out(document: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(document)


def _cmd_approx(args: argparse.Namespace) -> int:
    cert = approximate(args.target, args.eps, _config(args))
    document = certio.serialize_certificate(cert)
    hints = [f"point: {certio.FRAC_LIST.show(cert.witness.point)}"]
    if cert.target.n == 2:
        hints.append("note: dimension 2 sits outside the main density statement")
    hints.append(_approx_hint("max-error", cert.max_error))
    _emit(document, hints, args.format)
    _write_out(document, args.out)
    return EXIT_OK


def _cmd_chain(args: argparse.Namespace) -> int:
    chain = build_chain(args.target, args.eps, _config(args))
    fractions = chain.fractions
    errors = [abs(t - f) for t, f in zip(args.target.coords, fractions)]
    print(f"target: {certio.FRAC_LIST.show(args.target.coords)}")
    print(f"eps: {args.eps}")
    print(f"chain: {certio.INT_LIST.show(chain.a)}")
    print(f"point: {certio.FRAC_LIST.show(fractions)}")
    print(f"errors: {certio.FRAC_LIST.show(errors)}")
    print(f"max-error: {max(errors)}")
    return EXIT_OK


def _cmd_lift(args: argparse.Namespace) -> int:
    if not chain_is_valid(args.chain):
        raise UnitprodError(f"chain {certio.INT_LIST.show(args.chain)} is not valid")
    chain = Chain(args.chain)
    congruence = dirichlet_residue(chain)
    range_floor = min_prime_for_error(chain, 1)
    if args.p is not None:
        p = args.p
        if not is_prime(p):
            raise UnitprodError(f"{p} is not prime")
        if not congruence.contains(p):
            raise UnitprodError(f"{p} is not in the class {congruence}")
        if p < range_floor:
            raise UnitprodError(f"p must be at least {range_floor} for this chain")
    else:
        p = next_prime_in_ap(congruence, max(args.min_p, range_floor))
    witness = lift_chain(chain, p)
    gaps = [abs(f - v) for f, v in zip(chain.fractions, witness.point)]
    print(f"chain: {certio.INT_LIST.show(chain.a)}")
    print(f"congruence: p = {congruence}")
    print(f"p: {p}")
    print(f"witness: {certio.INT_LIST.show(witness.x)}")
    print(f"point: {certio.FRAC_LIST.show(witness.point)}")
    print(f"gaps-to-chain: {certio.FRAC_LIST.show(gaps)}")
    return EXIT_OK


def _cmd_poly(args: argparse.Namespace) -> int:
    if len(args.coeffs) != args.degree:
        raise UnitprodError("--coeffs must list exactly --degree values (low to high)")
    f = MonicPolynomial(args.degree, args.coeffs)
    cert = approximate_polynomial(f, args.target, args.eps, _config(args))
    document = certio.serialize_poly_certificate(cert)
    _emit(document, [_approx_hint("max-error", max(cert.errors))], args.format)
    _write_out(document, args.out)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    points = enumerate_points(args.p, args.n)  # validates before any output

    def emit(stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow([f"x{i}" for i in range(1, args.n + 1)])
        for witness in points:
            writer.writerow(witness.x)

    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            emit(handle)
    else:
        emit(sys.stdout)
    return EXIT_OK


def _cmd_discrepancy(args: argparse.Namespace) -> int:
    primes = list(args.p_list) if args.p_list else [args.p]
    if not primes or primes == [None]:
        raise UnitprodError("provide --p or --p-list")
    for i, p in enumerate(primes):
        report = box_discrepancy(p, args.n, args.k)
        if i:
            print()
        hints = [
            _approx_hint("sup-deviation", report.sup_deviation),
            _approx_hint("mean-abs-deviation", report.mean_abs_deviation),
        ]
        _emit(certio.serialize_report(report), hints, args.format)
    return EXIT_OK


def _cmd_jacobsthal(args: argparse.Namespace) -> int:
    print(jacobsthal(args.b))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.cert, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"cannot read certificate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        document = certio.parse_certificate(text)
    except CertificateFormatError as exc:
        print(f"invalid certificate: {exc}")
        return EXIT_INVALID
    if isinstance(document, Certificate):
        reason = check_certificate(document)
    else:
        reason = check_poly_certificate(document)
    if reason is None:
        print("valid")
        return EXIT_OK
    print(f"invalid certificate: {reason}")
    return EXIT_INVALID


def _add_builder_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode", choices=MODES, default="search",
        help="construction mode (default: search)",
    )
    parser.add_argument(
        "--start-floor", type=int, default=3, metavar="N",
        help="initial prime floor for the chain (default: 3)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitprod",
        description=(
            "Approximate points of the unit cube by normalized residue tuples "
            "whose product is 1 modulo a prime, with exact error certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    approx = sub.add_parser("approx", help="full pipeline: target -> certificate")
    approx.add_argument("--target", type=_target, required=True, metavar="X1,X2,...")
    approx.add_argument("--eps", type=_eps, required=True, metavar="EPS")
    _add_builder_flags(approx)
    approx.add_argument("--out", metavar="FILE", help="write the certificate here")
    approx.add_argument("--format", choices=("text", "structured"), default="text")
    approx.set_defaults(func=_cmd_approx)

    chain = sub.add_parser("chain", help="chain construction only")
    chain.add_argument("--target", type=_target, required=True, metavar="X1,X2,...")
    chain.add_argument("--eps", type=_eps, required=True, metavar="EPS")
    _add_builder_flags(chain)
    chain.set_defaults(func=_cmd_chain)

    lift = sub.add_parser("lift", help="lift a chain at a prime from its class")
    lift.add_argument("--chain", type=_int_list, required=True, metavar="A0,A1,...")
    group = lift.add_mutually_exclusive_group()
    group.add_argument("--p", type=int, metavar="P", help="use this prime")
    group.add_argument(
        "--min-p", type=int, default=2, metavar="L", dest="min_p",
        help="search for the first admissible prime at or above L",
    )
    lift.set_defaults(func=_cmd_lift)

    poly = sub.add_parser("poly", help="certificate for monic polynomial values")
    poly.add_argument("--degree", type=int, required=True, metavar="D")
    poly.add_argument(
        "--coeffs", type=_int_list, required=True, metavar="C0,C1,...",
        help="coefficients low to high, excluding the leading 1",
    )
    poly.add_argument("--target", type=_target, required=True, metavar="A1,A2,...")
    poly.add_argument("--eps", type=_eps, required=True, metavar="EPS")
    _add_builder_flags(poly)
    poly.add_argument("--out", metavar="FILE", help="write the certificate here")
    poly.add_argument("--format", choices=("text", "structured"), default="text")
    poly.set_defaults(func=_cmd_poly)

    enum = sub.add_parser("enumerate", help="list all hypersurface points for p, n")
    enum.add_argument("--p", type=int, required=True)
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--csv", metavar="FILE", help="write CSV here instead of stdout")
    enum.set_defaults(func=_cmd_enumerate)

    disc = sub.add_parser("discrepancy", help="box-counting deviation statistics")
    disc.add_argument("--p", type=int)
    disc.add_argument("--p-list", type=_int_list, dest="p_list", metavar="P1,P2,...")
    disc.add_argument("--n", type=int, required=True)
    disc.add_argument("--k", type=int, required=True)
    disc.add_argument("--format", choices=("text", "structured"), default="text")
    disc.set_defaults(func=_cmd_discrepancy)

    jac = sub.add_parser("jacobsthal", help="largest gap between integers coprime to b")
    jac.add_argument("--b", type=int, required=True)
    jac.set_defaults(func=_cmd_jacobsthal)

    verify = sub.add_parser("verify", help="re-check a certificate file")
    verify.add_argument("--cert", required=True, metavar="FILE")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnitprodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
