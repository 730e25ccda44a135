import dataclasses
import sys
from fractions import Fraction

import pytest

from unitprod.certio import (
    CERTIFICATE_VERSION,
    parse_certificate,
    parse_document,
    serialize_certificate,
    serialize_poly_certificate,
    serialize_report,
)
from unitprod.chain import TargetPoint
from unitprod.errors import CertificateFormatError, InputTooLarge
from unitprod import lift
from unitprod.lab import box_discrepancy
from unitprod.lift import WitnessPoint, approximate, check_certificate, verify_certificate
from unitprod.poly import (
    MonicPolynomial,
    PolyCertificate,
    approximate_polynomial,
    verify_poly_certificate,
)

TARGET = TargetPoint((Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)))


@pytest.fixture(scope="module")
def point_cert():
    return approximate(TARGET, Fraction(1, 5))


@pytest.fixture(scope="module")
def poly_cert():
    f = MonicPolynomial(2, (1, 0))
    return approximate_polynomial(f, TargetPoint((Fraction(1, 2),) * 3), Fraction(1, 10))


def test_point_round_trip(point_cert):
    document = serialize_certificate(point_cert)
    parsed = parse_document(document)
    assert parsed == point_cert
    assert serialize_certificate(parsed) == document
    assert verify_certificate(parsed)


def test_point_round_trip_boundary_targets():
    cert = approximate(TargetPoint((0, 1, Fraction(1, 2))), Fraction(1, 10))
    document = serialize_certificate(cert)
    assert parse_document(document) == cert


def test_poly_round_trip(poly_cert):
    document = serialize_poly_certificate(poly_cert)
    parsed = parse_document(document)
    assert parsed == poly_cert
    assert serialize_poly_certificate(parsed) == document
    assert verify_poly_certificate(parsed)


def test_report_round_trip():
    report = box_discrepancy(13, 2, 3)
    document = serialize_report(report)
    parsed = parse_document(document)
    assert parsed == report
    assert serialize_report(parsed) == document


def test_parse_certificate_rejects_report():
    document = serialize_report(box_discrepancy(5, 2, 2))
    with pytest.raises(CertificateFormatError):
        parse_certificate(document)


def test_parse_rejects_malformed(point_cert):
    document = serialize_certificate(point_cert)

    with pytest.raises(CertificateFormatError):
        parse_document("")
    with pytest.raises(CertificateFormatError):
        parse_document(document.replace("kind: point-certificate\n", ""))
    with pytest.raises(CertificateFormatError):
        parse_document(document.replace("point-certificate", "mystery"))
    with pytest.raises(CertificateFormatError):
        parse_document(document.replace(f"version: {CERTIFICATE_VERSION}", "version: 99"))
    with pytest.raises(CertificateFormatError, match="unsupported version"):
        parse_document(document.replace(f"version: {CERTIFICATE_VERSION}", "version: 1"))
    with pytest.raises(CertificateFormatError):
        parse_document(document + "extra: 1\n")
    with pytest.raises(CertificateFormatError):
        parse_document(document + "p: 29\n")  # duplicate
    with pytest.raises(CertificateFormatError):
        parse_document(document.replace("p: 29", "p: twenty-nine"))
    with pytest.raises(CertificateFormatError):
        parse_document(document.replace("eps: 1/5", "eps: 0.2"))
    # a target outside [0, 1] cannot even be parsed
    with pytest.raises(CertificateFormatError):
        parse_document(document.replace("target: 1/2", "target: 3/2"))


def test_parsed_tampering_is_caught(point_cert):
    # the errors line no longer matches the witness
    document = serialize_certificate(point_cert)
    with pytest.raises(CertificateFormatError, match="field errors"):
        parse_document(document.replace("witness: 17,20,18", "witness: 17,21,18"))


def test_disagreeing_lines_are_rejected_before_p_is_proved(point_cert, poly_cert, monkeypatch):
    # the primality line is compared last, so a document that disagrees
    # anywhere else, inner block included, never pays for proving p
    point = serialize_certificate(point_cert)
    poly = serialize_poly_certificate(poly_cert)
    assert "\ncoeffs: 1,0\n" in poly

    def refuse(*args):
        raise AssertionError("p was proved before the document was rejected")

    monkeypatch.setattr(lift, "prove_prime", refuse)
    with pytest.raises(CertificateFormatError, match="field errors"):
        parse_document(point.replace("witness: 17,20,18", "witness: 17,21,18"))
    with pytest.raises(CertificateFormatError, match="field errors"):
        parse_document(point.replace("p: 29", "p: 31"))
    with pytest.raises(CertificateFormatError, match="field values"):
        parse_document(poly.replace("\ncoeffs: 1,0\n", "\ncoeffs: 2,0\n"))
    with pytest.raises(AssertionError):
        parse_document(point)


def test_consistent_witness_edit_fails_the_relift(point_cert):
    # witness and errors edited together parse; the checker's relift at p
    # then exposes the witness
    edited = dataclasses.replace(point_cert, witness=WitnessPoint(29, (17, 21, 18)))
    document = serialize_certificate(edited)
    original = serialize_certificate(point_cert).splitlines()
    changed = [line.partition(":")[0] for line, old in zip(document.splitlines(), original)
               if line != old]
    assert changed == ["witness", "errors"]
    assert check_certificate(parse_document(document)) == "witness-mismatch"


def test_poly_requires_inner_block(poly_cert):
    document = serialize_poly_certificate(poly_cert)
    headless = "\n".join(
        line for line in document.splitlines() if not line.startswith(("inner:", "  "))
    )
    with pytest.raises(CertificateFormatError):
        parse_document(headless + "\n")


@pytest.mark.parametrize(
    "canonical, variant",
    [
        ("p: 29", "p: 2_9"),
        ("eps: 1/5", "eps: -1/-5"),
        ("eps: 1/5", "eps: 2/10"),
        ("congruence-residue: 29", "congruence-residue: 59"),
        ("witness: 17,20,18", "witness: +17, 20,018"),
    ],
)
def test_parse_rejects_non_canonical_encodings(point_cert, canonical, variant):
    document = serialize_certificate(point_cert)
    assert canonical + "\n" in document
    with pytest.raises(CertificateFormatError):
        parse_document(document.replace(canonical + "\n", variant + "\n"))


def test_poly_values_past_the_digit_limit_raise_input_too_large(point_cert):
    # f(x)/p^90 at a 200-bit p has denominators of ~5400 decimal digits
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 90 * 200 * 0.30103
    inner = dataclasses.replace(point_cert, witness=WitnessPoint(2**200 + 1, (1, 1, 1)))
    cert = PolyCertificate(
        MonicPolynomial(90, (0,) * 90), TARGET, Fraction(1, 10), TARGET, inner
    )
    with pytest.raises(InputTooLarge) as caught:
        serialize_poly_certificate(cert)
    message = str(caught.value)
    assert "field values" in message
    assert "degree 90" in message
    assert f"{limit}-digit" in message
    assert sys.get_int_max_str_digits() == limit  # the interpreter-wide limit is untouched
