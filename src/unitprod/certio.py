"""Line-oriented text format for certificates and reports.

Each document kind is one table of (key, codec, getter) rows plus a
constructor; one writer and one parser walk the tables. Every value is a
decimal integer or an exact num/den fraction, so parse(serialize(c)) == c
bit for bit. The parser accepts the fields in any order, rejects missing,
unknown or duplicate keys, and accepts only the canonical encoding: every
field must read exactly as the writer would write the parsed document, so
the two lines derived from other fields (max-error, a poly certificate's
root-precision) are checked at parse time. Every document is one flat
block of "key: value" lines.

Up to version 5 a document also stored its errors, a poly certificate its
values and their errors, and a point certificate a primality line naming
the test that shows p prime: "miller-rabin-deterministic" below
DETERMINISTIC_PRIMALITY_BOUND; above it "lucas-n-plus-1", an N+1 proof from
prime factors of p+1, or "miller-rabin-probabilistic-64" where no such
proof applies. Version 2 added the "lucas-n-plus-1" tag. Version 3
widened the proof, so some documents that derived
"miller-rabin-probabilistic-64" now derive "lucas-n-plus-1". Version 4
widened a poly certificate's root precision and inner eps from eps/2^(d+2)
to eps/(4d) (poly.py's Lipschitz budget), so its root-precision line and
its witness changed. Version 5 collects the proof's factors in one
procedure, which offers each tail term's own cofactor beside its share of
p+1; F can now combine factors that the two stages of version 4 found
apart, so some documents that derived "miller-rabin-probabilistic-64" now
derive "lucas-n-plus-1". Version 6 drops the errors, values and
primality lines: the checker recomputes all three, and proves p after every
other claim holds. Version 7 drops a point certificate's congruence-residue,
congruence-modulus and prime-floor lines and a poly certificate's
root-targets line: the class of p follows from the chain, the prime floor
is no claim (the errors are checked exactly), and the root targets are the
inner block's target. Version 8 makes a poly certificate one flat block:
its mode, chain, p and witness are its own lines, and the nested inner
point certificate is gone with the lines it repeated or derived (version,
kind, target, eps and max-error); the checker rebuilds that certificate at
the d-th-root targets. Version 9 keeps the layout but builds other chains:
faithful mode tries the target's own, lower prime floor first
(chain.faithful_floor), so p is smaller, and in any mode a chain whose p
has no proof is rebuilt, where its tail could carry one, with proved primes
as its last two terms, so most documents that derived
"miller-rabin-probabilistic-64" now derive "lucas-n-plus-1". The parser
rejects versions 1 to 8.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from operator import attrgetter
from typing import Any

from .chain import Chain, TargetPoint
from .errors import CertificateFormatError, InputTooLarge
from .lab import DiscrepancyReport
from .lift import Certificate, WitnessPoint
from .poly import MonicPolynomial, PolyCertificate

CERTIFICATE_VERSION = 9

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


# The claim rows both certificate kinds share: the mode, then the chain, p
# and witness.
_MODE = ("mode", TEXT, attrgetter("mode"))
_LIFT = (
    ("chain", INT_LIST, attrgetter("chain.a")),
    ("p", INT, attrgetter("witness.p")),
    ("witness", INT_LIST, attrgetter("witness.x")),
)

POINT = DocumentKind(
    "point-certificate",
    (
        ("version", INT, lambda _: CERTIFICATE_VERSION),
        ("kind", TEXT, lambda _: POINT.name),
        _MODE,
        ("target", FRAC_LIST, attrgetter("target.coords")),
        ("eps", FRAC, attrgetter("eps")),
        *_LIFT,
        ("max-error", FRAC, attrgetter("max_error")),
    ),
    lambda v: Certificate(
        TargetPoint(v["target"]), v["eps"], Chain(v["chain"]), WitnessPoint(v["p"], v["witness"]),
        v["mode"],
    ),
)

POLY = DocumentKind(
    "poly-certificate",
    (
        ("version", INT, lambda _: CERTIFICATE_VERSION),
        ("kind", TEXT, lambda _: POLY.name),
        _MODE,
        ("degree", INT, attrgetter("f.degree")),
        ("coeffs", INT_LIST, attrgetter("f.coeffs")),
        ("alphas", FRAC_LIST, attrgetter("alphas.coords")),
        ("eps", FRAC, attrgetter("eps")),
        ("root-precision", FRAC, attrgetter("root_precision")),
        *_LIFT,
    ),
    lambda v: PolyCertificate(
        MonicPolynomial(v["degree"], v["coeffs"]), TargetPoint(v["alphas"]), v["eps"], v["mode"],
        Chain(v["chain"]), WitnessPoint(v["p"], v["witness"]),
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


def _write(kind: DocumentKind, obj) -> str:
    lines = []
    for key, codec, get in kind.fields:
        try:
            lines.append(f"{key}: {codec.show(get(obj))}\n")
        except ValueError:  # str() of an integer past CPython's digit limit
            raise InputTooLarge(
                f"{kind.name} field {key} holds an integer beyond the "
                f"{sys.get_int_max_str_digits()}-digit int/str conversion limit"
            ) from None
    return "".join(lines)


def serialize_certificate(cert: Certificate) -> str:
    return _write(POINT, cert)


def serialize_poly_certificate(cert: PolyCertificate) -> str:
    return _write(POLY, cert)


def serialize_report(report: DiscrepancyReport) -> str:
    return _write(REPORT, report)


def _read(kind: DocumentKind, fields: dict) -> Any:
    """Decode every row of `kind` from the raw fields, build the object, and
    require each raw field to read exactly as the object writes it, which
    rejects both a non-canonical encoding and a derived line that disagrees
    with the rest of the document."""
    if fields.get("version") != str(CERTIFICATE_VERSION):
        raise CertificateFormatError(f"unsupported version: {fields.get('version')}")
    values: dict[str, Any] = {}
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
    try:
        obj = kind.build(values)
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from None
    for key, codec, get in kind.fields:
        # each decoded copy is dropped once checked
        decoded, raw = values.pop(key), fields[key]
        if decoded != get(obj) or codec.show(decoded) != raw:
            shown = raw if len(raw) <= 40 else raw[:37] + "..."
            raise CertificateFormatError(
                f"field {key}: {shown!r} is not canonical or disagrees with the other fields"
            )
    return obj


def parse_document(text: str):
    """Parse a serialized document; returns a Certificate, PolyCertificate or
    DiscrepancyReport depending on its kind field."""
    if not text.strip():
        raise CertificateFormatError("empty document")
    fields: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition(": ")
        if not sep or not key:
            raise CertificateFormatError(f"malformed line: {line!r}")
        if key in fields:
            raise CertificateFormatError(f"duplicate field: {key}")
        fields[key] = value
    kind = _KINDS.get(fields.get("kind"))
    if kind is None:
        raise CertificateFormatError(f"missing or unknown kind: {fields.get('kind')!r}")
    return _read(kind, fields)


def parse_certificate(text: str):
    """Parse a certificate document (point or poly); rejects reports."""
    result = parse_document(text)
    if isinstance(result, DiscrepancyReport):
        raise CertificateFormatError("document is a report, not a certificate")
    return result
