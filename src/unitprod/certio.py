"""Line-oriented text format for certificates and reports.

Each document kind is one table of (key, codec, getter) rows plus a
constructor; one writer and one parser walk the tables. Every value is a
decimal integer or an exact num/den fraction, so parse(serialize(c)) == c
bit for bit. The parser accepts the fields in any order, rejects missing,
unknown or duplicate keys, and accepts only the canonical encoding: every
field must read exactly as the writer would write the parsed document, so
lines derived from other fields (errors, max-error, primality, a poly
certificate's values) are checked at parse time. Poly certificates embed
their inner point certificate as a two-space indented block after an
"inner:" line.

The primality line names the test that shows p prime, re-run by the
checker: "miller-rabin-deterministic" below DETERMINISTIC_PRIMALITY_BOUND;
above it "lucas-n-plus-1", an N+1 proof from the prime factors of p+1 that
the chain's tail supplies, or "miller-rabin-probabilistic-64" where that
proof does not apply. Version 2 added the "lucas-n-plus-1" tag.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from operator import attrgetter
from typing import Any

from .arith import CongruenceClass
from .chain import Chain, TargetPoint
from .errors import CertificateFormatError, InputTooLarge
from .lab import DiscrepancyReport
from .lift import Certificate, WitnessPoint
from .poly import MonicPolynomial, PolyCertificate

CERTIFICATE_VERSION = 2

# How one field's value is written (show) and read back (read).
Codec = namedtuple("Codec", "show read")


def _show_frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _read_frac(text: str) -> Fraction:
    num, sep, den = text.partition("/")
    if not sep:
        raise ValueError(f"expected num/den, got {text!r}")
    return Fraction(int(num), int(den))


INT = Codec(str, int)
TEXT = Codec(str, str)
FRAC = Codec(_show_frac, _read_frac)
INT_LIST = Codec(
    lambda values: ",".join(map(str, values)),
    lambda text: tuple(map(int, text.split(","))),
)
FRAC_LIST = Codec(
    lambda values: ",".join(map(_show_frac, values)),
    lambda text: tuple(map(_read_frac, text.split(","))),
)


# Rows (key, codec, getter) in writing order, and the constructor that builds
# the object from the decoded values keyed by field name. The constructor
# skips the rows the object derives; the canonical check compares those.
DocumentKind = namedtuple("DocumentKind", "name fields build")


POINT = DocumentKind(
    "point-certificate",
    (
        ("version", INT, lambda _: CERTIFICATE_VERSION),
        ("kind", TEXT, lambda _: POINT.name),
        ("mode", TEXT, attrgetter("mode")),
        ("primality", TEXT, attrgetter("primality_method")),
        ("target", FRAC_LIST, attrgetter("target.coords")),
        ("eps", FRAC, attrgetter("eps")),
        ("chain", INT_LIST, attrgetter("chain.a")),
        ("congruence-residue", INT, attrgetter("congruence.residue")),
        ("congruence-modulus", INT, attrgetter("congruence.modulus")),
        ("prime-floor", INT, attrgetter("prime_floor")),
        ("p", INT, attrgetter("witness.p")),
        ("witness", INT_LIST, attrgetter("witness.x")),
        ("errors", FRAC_LIST, attrgetter("errors")),
        ("max-error", FRAC, attrgetter("max_error")),
    ),
    lambda v: Certificate(
        TargetPoint(v["target"]), v["eps"], Chain(v["chain"]),
        CongruenceClass(v["congruence-residue"], v["congruence-modulus"]),
        v["prime-floor"], WitnessPoint(v["p"], v["witness"]), v["mode"],
    ),
)

# The inner point certificate is no row: it follows as the "inner:" block.
POLY = DocumentKind(
    "poly-certificate",
    (
        ("version", INT, lambda _: CERTIFICATE_VERSION),
        ("kind", TEXT, lambda _: POLY.name),
        ("degree", INT, attrgetter("f.degree")),
        ("coeffs", INT_LIST, attrgetter("f.coeffs")),
        ("alphas", FRAC_LIST, attrgetter("alphas.coords")),
        ("eps", FRAC, attrgetter("eps")),
        ("root-precision", FRAC, attrgetter("root_precision")),
        ("root-targets", FRAC_LIST, attrgetter("root_targets.coords")),
        ("values", FRAC_LIST, attrgetter("values")),
        ("errors", FRAC_LIST, attrgetter("errors")),
    ),
    lambda v: PolyCertificate(
        MonicPolynomial(v["degree"], v["coeffs"]), TargetPoint(v["alphas"]), v["eps"],
        TargetPoint(v["root-targets"]), v["inner"],
    ),
)

REPORT = DocumentKind(
    "discrepancy-report",
    (
        ("version", INT, lambda _: CERTIFICATE_VERSION),
        ("kind", TEXT, lambda _: REPORT.name),
        ("p", INT, attrgetter("p")),
        ("n", INT, attrgetter("n")),
        ("k", INT, attrgetter("k")),
        ("total", INT, attrgetter("total")),
        ("counts", INT_LIST, attrgetter("counts")),
        ("sup-deviation", FRAC, attrgetter("sup_deviation")),
        ("mean-abs-deviation", FRAC, attrgetter("mean_abs_deviation")),
    ),
    lambda v: DiscrepancyReport(
        v["p"], v["n"], v["k"], v["total"], v["counts"], v["sup-deviation"],
        v["mean-abs-deviation"],
    ),
)

_KINDS = {kind.name: kind for kind in (POINT, POLY, REPORT)}


def _write(kind: DocumentKind, obj, indent: str = "") -> str:
    lines = []
    for key, codec, get in kind.fields:
        try:
            lines.append(f"{indent}{key}: {codec.show(get(obj))}\n")
        except ValueError:  # str() of an integer past CPython's digit limit
            where = f" at degree {obj.f.degree}" if kind is POLY else ""
            raise InputTooLarge(
                f"{kind.name} field {key}{where} holds an integer beyond the "
                f"{sys.get_int_max_str_digits()}-digit int/str conversion limit"
            ) from None
    return "".join(lines)


def serialize_certificate(cert: Certificate) -> str:
    return _write(POINT, cert)


def serialize_poly_certificate(cert: PolyCertificate) -> str:
    return _write(POLY, cert) + "inner:\n" + _write(POINT, cert.inner, "  ")


def serialize_report(report: DiscrepancyReport) -> str:
    return _write(REPORT, report)


def _split_block(lines: list) -> tuple[dict, list | None]:
    fields: dict[str, str] = {}
    inner: list | None = None
    i = 0
    while i < len(lines):
        line = lines[i]
        if line == "inner:":
            if inner is not None:
                raise CertificateFormatError("duplicate inner block")
            inner = []
            i += 1
            while i < len(lines) and lines[i].startswith("  "):
                inner.append(lines[i][2:])
                i += 1
            continue
        key, sep, value = line.partition(": ")
        if not sep or not key:
            raise CertificateFormatError(f"malformed line: {line!r}")
        if key in fields:
            raise CertificateFormatError(f"duplicate field: {key}")
        fields[key] = value
        i += 1
    return fields, inner


# Proving p is the costliest derivation, so parse_document compares the
# primality lines after every other line, the inner block's included: a
# document that disagrees anywhere else is rejected without proving p.
_PROVED_LAST = "primality"


def _check(key: str, codec: Codec, decoded: Any, derived: Any, raw: str) -> None:
    # compare values first, so a disagreeing derived line is rejected without
    # writing out the derived value (past CPython's int/str digit limit on a
    # hostile degree)
    if decoded != derived or codec.show(decoded) != raw:
        shown = raw if len(raw) <= 40 else raw[:37] + "..."
        raise CertificateFormatError(
            f"field {key}: {shown!r} is not canonical or disagrees with the other fields"
        )


def _read(kind: DocumentKind, fields: dict, deferred: list, inner: Certificate | None = None) -> Any:
    """Decode every row of `kind` from the raw fields, build the object, and
    require each raw field to read exactly as the object writes it, which
    rejects both a non-canonical encoding and a derived line that disagrees
    with the rest of the document. The primality row's check is appended to
    `deferred` instead."""
    values: dict[str, Any] = {"inner": inner}
    unknown = fields.keys() - {key for key, _, _ in kind.fields}
    if unknown:
        raise CertificateFormatError(
            f"unexpected fields in {kind.name}: {', '.join(sorted(unknown))}"
        )
    for key, codec, _ in kind.fields:
        if key not in fields:
            raise CertificateFormatError(f"missing field: {key}")
        try:
            values[key] = codec.read(fields[key])
        except (ValueError, ZeroDivisionError):
            raise CertificateFormatError(f"field {key}: bad value {fields[key]!r}") from None
    if values["version"] != CERTIFICATE_VERSION:
        raise CertificateFormatError(f"unsupported version: {fields['version']}")
    try:
        obj = kind.build(values)
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from None
    for key, codec, get in kind.fields:
        decoded = values.pop(key)  # each decoded copy is dropped once checked
        if key == _PROVED_LAST:
            deferred.append((key, codec, decoded, get, obj, fields[key]))
        else:
            _check(key, codec, decoded, get(obj), fields[key])
    return obj


def parse_document(text: str):
    """Parse a serialized document; returns a Certificate, PolyCertificate or
    DiscrepancyReport depending on its kind field."""
    if not text.strip():
        raise CertificateFormatError("empty document")
    # no reference to the line list outlives the split (keeps the peak heap low)
    fields, inner_lines = _split_block([line for line in text.splitlines() if line.strip()])
    kind = _KINDS.get(fields.get("kind"))
    if kind is None:
        raise CertificateFormatError(f"missing or unknown kind: {fields.get('kind')!r}")
    deferred: list = []
    inner = None
    if kind is POLY:
        if inner_lines is None:
            raise CertificateFormatError("poly certificate lacks the inner block")
        inner_fields, nested = _split_block(inner_lines)
        if nested is not None:
            raise CertificateFormatError("unexpected nested inner block")
        if inner_fields.get("kind") != POINT.name:
            raise CertificateFormatError("inner block is not a point certificate")
        inner = _read(POINT, inner_fields, deferred)
    elif inner_lines is not None:
        raise CertificateFormatError(f"{kind.name} with an inner block")
    document = _read(kind, fields, deferred, inner)
    for key, codec, decoded, get, obj, raw in deferred:
        _check(key, codec, decoded, get(obj), raw)
    return document


def parse_certificate(text: str):
    """Parse a certificate document (point or poly); rejects reports."""
    result = parse_document(text)
    if isinstance(result, DiscrepancyReport):
        raise CertificateFormatError("document is a report, not a certificate")
    return result
