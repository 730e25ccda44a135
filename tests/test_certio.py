import contextlib
import dataclasses
import io
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from unitprod.certio import (
    CERTIFICATE_VERSION,
    parse_certificate,
    parse_document,
    serialize_certificate,
    serialize_poly_certificate,
    serialize_report,
)
from unitprod.arith import PROBABILISTIC_TAG
from unitprod.chain import Chain, TargetPoint
from unitprod.errors import CertificateFormatError, InputTooLarge
from unitprod import cli, lift
from unitprod.lab import box_discrepancy
from unitprod.lift import WitnessPoint, approximate, check_certificate, verify_certificate
from unitprod.poly import (
    MonicPolynomial,
    PolyCertificate,
    approximate_polynomial,
    check_poly_certificate,
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
    # 3 and 5 changed the primality tag some documents derive, 4 the poly
    # budget, 6 dropped the errors, values and primality lines, 7 the
    # congruence, prime-floor and root-targets lines, 8 the poly inner block
    for older in range(1, CERTIFICATE_VERSION):
        with pytest.raises(CertificateFormatError, match="unsupported version"):
            parse_document(document.replace(f"version: {CERTIFICATE_VERSION}", f"version: {older}"))
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
    # the max-error line no longer matches the witness
    document = serialize_certificate(point_cert)
    with pytest.raises(CertificateFormatError, match="field max-error"):
        parse_document(document.replace("witness: 17,20,18", "witness: 18,20,18"))


def _verdict(document: str) -> str | None:
    """The parser's message or the checker's reason code; None when valid."""
    try:
        parsed = parse_document(document)
    except CertificateFormatError as exc:
        return str(exc)
    if isinstance(parsed, lift.Certificate):
        return check_certificate(parsed)
    return check_poly_certificate(parsed)


def test_disagreeing_lines_are_rejected_before_p_is_proved(point_cert, poly_cert, monkeypatch):
    # the checker proves p last, so a document that fails any other check,
    # at the parser or in the checker, the rebuilt inner certificate
    # included, never pays for proving p
    point = serialize_certificate(point_cert)
    poly = serialize_poly_certificate(poly_cert)

    def refuse(*args):
        raise AssertionError("p was proved before the document was rejected")

    monkeypatch.setattr(lift, "prove_prime", refuse)
    edits = [
        (point, "witness: 17,20,18", "witness: 17,21,18", "witness-mismatch"),
        (point, "p: 29", "p: 31", "field max-error"),
        (point, "eps: 1/5", "eps: 1/100", "max-error-exceeds-eps"),
        (point, "chain: 1,2,3,5", "chain: 1,2,3,7", "p-not-in-class"),
        # coefficients up to 41538 keep this witness a valid certificate
        (poly, "\ncoeffs: 1,0\n", "\ncoeffs: 100000,0\n", "prime-floor-too-low"),
        (poly, "\neps: 1/10\n", "\neps: 1/20\n", "field root-precision"),
        (poly, "\nchain: 26,37,53,75\n", "\nchain: 26,37,53,77\n", "inner-p-not-in-class"),
    ]
    for document, old, new, rejection in edits:
        assert old in document
        assert _verdict(document.replace(old, new)).startswith(rejection), new
    for document in (point, poly):
        with pytest.raises(AssertionError, match="p was proved"):
            _verdict(document)


# lines that version 6 wrote and version 7 derives, after the line they follow
_VERSION_6_LINES = (
    ("chain: 1,2,3,5\n", "congruence-residue: 29\n"),
    ("chain: 1,2,3,5\n", "congruence-modulus: 30\n"),
    ("chain: 1,2,3,5\n", "prime-floor: 26\n"),
    ("root-precision: 1/80\n", "root-targets: 45/64,45/64,45/64\n"),
)


def test_version_6_documents_are_rejected_on_their_version(point_cert, poly_cert):
    point = serialize_certificate(point_cert)
    poly = serialize_poly_certificate(poly_cert)
    for document in (point, poly):
        old = document.replace(f"version: {CERTIFICATE_VERSION}\n", "version: 6\n")
        for anchor, line in _VERSION_6_LINES:
            old = old.replace(anchor, anchor + line, 1)
        with pytest.raises(CertificateFormatError, match="unsupported version: 6"):
            parse_document(old)


@pytest.mark.parametrize("anchor, line", _VERSION_6_LINES)
def test_dropped_lines_are_unexpected_fields(point_cert, poly_cert, anchor, line):
    documents = (serialize_certificate(point_cert), serialize_poly_certificate(poly_cert))
    document = next(document for document in documents if anchor in document)
    key = line.partition(":")[0]
    with pytest.raises(CertificateFormatError, match=f"unexpected fields.*{key}"):
        parse_document(document.replace(anchor, anchor + line, 1))


def test_consistent_witness_edit_fails_the_relift(point_cert):
    # a witness edit that keeps the largest error parses; the checker's
    # relift at p then exposes the witness
    edited = dataclasses.replace(point_cert, witness=WitnessPoint(29, (17, 21, 18)))
    document = serialize_certificate(edited)
    original = serialize_certificate(point_cert).splitlines()
    changed = [line.partition(":")[0] for line, old in zip(document.splitlines(), original)
               if line != old]
    assert changed == ["witness"]
    assert check_certificate(parse_document(document)) == "witness-mismatch"


def test_poly_at_degree_64_round_trips():
    # the values f(x)/p^64 stay within CPython's int/str digit limit: under
    # the eps/2^(d+2) budget p had 237 bits here and serializing raised
    # InputTooLarge
    rng = random.Random(64)
    f = MonicPolynomial(64, tuple(rng.randint(-5, 5) for _ in range(64)))
    cert = approximate_polynomial(f, TARGET, Fraction(1, 1000))
    document = serialize_poly_certificate(cert)
    parsed = parse_document(document)
    assert parsed == cert
    assert serialize_poly_certificate(parsed) == document
    assert verify_poly_certificate(parsed)


def test_poly_with_the_version_3_root_precision_is_rejected(poly_cert):
    document = serialize_poly_certificate(poly_cert)
    d, eps = poly_cert.f.degree, poly_cert.eps
    current, old = eps / (4 * d), eps / 2 ** (d + 2)
    line = "\nroot-precision: {}/{}\n"
    assert line.format(current.numerator, current.denominator) in document
    with pytest.raises(CertificateFormatError, match="field root-precision"):
        parse_document(document.replace(
            line.format(current.numerator, current.denominator),
            line.format(old.numerator, old.denominator),
        ))


@pytest.mark.parametrize("key", ["mode", "chain", "p", "witness"])
def test_poly_requires_each_claim(poly_cert, key):
    document = serialize_poly_certificate(poly_cert)
    lines = [line for line in document.splitlines() if not line.startswith(key + ": ")]
    assert len(lines) == len(document.splitlines()) - 1
    with pytest.raises(CertificateFormatError, match=f"missing field: {key}$"):
        parse_document("".join(line + "\n" for line in lines))


def test_poly_rejects_the_version_7_inner_block(poly_cert):
    # version 7 nested the point certificate as an indented "inner:" block;
    # at version 8 that block, and any indented line, is no field
    document = serialize_poly_certificate(poly_cert)
    block = "".join(f"  {line}\n" for line in serialize_certificate(poly_cert.inner).splitlines())
    with pytest.raises(CertificateFormatError, match="malformed line: 'inner:'"):
        parse_document(document + "inner:\n" + block)
    with pytest.raises(CertificateFormatError, match="unexpected fields"):
        parse_document(document + block)
    lines = document.splitlines()
    for i in range(len(lines)):
        indented = lines[:i] + ["  " + lines[i]] + lines[i + 1:]
        with pytest.raises(CertificateFormatError):
            parse_document("".join(line + "\n" for line in indented))


@pytest.mark.parametrize(
    "canonical, variant",
    [
        ("p: 29", "p: 2_9"),
        ("eps: 1/5", "eps: -1/-5"),
        ("eps: 1/5", "eps: 2/10"),
        ("max-error: 5/58", "max-error: 10/116"),
        ("witness: 17,20,18", "witness: +17, 20,018"),
    ],
)
def test_parse_rejects_non_canonical_encodings(point_cert, canonical, variant):
    document = serialize_certificate(point_cert)
    assert canonical + "\n" in document
    with pytest.raises(CertificateFormatError):
        parse_document(document.replace(canonical + "\n", variant + "\n"))


def test_poly_values_past_the_digit_limit_raise_input_too_large(point_cert):
    # a library caller may build a certificate whose stored integers have
    # more decimal digits than CPython converts to text
    limit = sys.get_int_max_str_digits()
    huge = 10**limit + 1
    assert limit > 0
    poly = PolyCertificate(
        MonicPolynomial(2, (huge, 0)), TARGET, Fraction(1, 10), point_cert.mode,
        point_cert.chain, point_cert.witness,
    )
    point = dataclasses.replace(point_cert, witness=WitnessPoint(huge, (1, 1, 1)))
    for serialize, cert, field in (
        (serialize_poly_certificate, poly, "poly-certificate field coeffs"),
        (serialize_certificate, point, "point-certificate field p"),
    ):
        with pytest.raises(InputTooLarge) as caught:
            serialize(cert)
        message = str(caught.value)
        assert field in message
        assert f"{limit}-digit" in message
    assert sys.get_int_max_str_digits() == limit  # the interpreter-wide limit is untouched


# verification of a hostile document must end within this many seconds
HOSTILE_BUDGET_S = 1.0


def test_hostile_tail_is_decided_within_the_budget():
    # a 540-bit p whose tail terms are products of two ~60-bit primes: the
    # proof searches p+1 for primes below 2^16 and fails every composite
    # cofactor (p+1 keeps under 180 bits outside the tail, below the cube
    # root of p), so p ends with the 64 seeded rounds
    rng = random.Random(1201)
    tail = sorted(
        sympy.randprime(2**59, 2**60) * sympy.randprime(2**60, 2**61) for _ in range(3)
    )
    chain = Chain((1, 3, *tail))
    target = TargetPoint(tuple(Fraction(a, b) for a, b in zip(chain.a, chain.a[1:])))
    congruence = lift.dirichlet_residue(chain)
    start = 2**539 + rng.getrandbits(500)
    p = next(
        p for p in range(start + (congruence.residue - start) % congruence.modulus,
                         start + 10**4 * congruence.modulus, congruence.modulus)
        if sympy.isprime(p)
    )
    cert = lift.Certificate(target, Fraction(1), chain, lift.lift_chain(chain, p), "search")
    document = serialize_certificate(cert)
    assert f"version: {CERTIFICATE_VERSION}\n" in document
    started = time.perf_counter()
    parsed = parse_document(document)
    assert check_certificate(parsed) is None
    assert time.perf_counter() - started < HOSTILE_BUDGET_S
    assert parsed.prime_proof == PROBABILISTIC_TAG


GOLDEN = {
    path.name: path.read_text(encoding="utf-8")
    for path in sorted((Path(__file__).parent / "data" / "golden").glob("*.cert"))
}

# bounded values of each kind a line holds: integers, fractions, integer
# lists and short printable text
_TOKENS = st.one_of(
    st.integers(-(10**40), 10**40).map(str),
    st.tuples(st.integers(-(10**12), 10**12), st.integers(-(10**12), 10**12)).map(
        lambda pair: f"{pair[0]}/{pair[1]}"
    ),
    st.lists(st.integers(-5, 10**12), min_size=1, max_size=9).map(
        lambda values: ",".join(map(str, values))
    ),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=24),
)


@st.composite
def _mutants(draw) -> str:
    """A golden document with one line's value replaced by a token, or one
    line dropped or duplicated."""
    lines = GOLDEN[draw(st.sampled_from(sorted(GOLDEN)))].splitlines()
    i = draw(st.sampled_from(range(len(lines))))
    action = draw(st.sampled_from(("replace", "drop", "duplicate")))
    if action == "replace":
        lines[i] = f"{lines[i].partition(': ')[0]}: {draw(_TOKENS)}"
    elif action == "drop":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "".join(line + "\n" for line in lines)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(document=_mutants())
def test_golden_mutants_get_a_verdict_within_the_budget(tmp_path_factory, document):
    path = tmp_path_factory.getbasetemp() / "mutant.cert"
    path.write_text(document, encoding="utf-8")
    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", "--cert", str(path)])
    assert time.perf_counter() - started < HOSTILE_BUDGET_S
    assert (code, out.getvalue()) == (0, "valid\n") or (
        code == 1 and out.getvalue().startswith("invalid certificate: ")
    ), (code, out.getvalue())
