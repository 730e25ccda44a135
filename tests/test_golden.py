"""Golden corpus: stored documents and the inputs that generate them.

Every document under data/golden must be reproduced byte for byte from its
entry in data/golden/inputs.json, and must come back unchanged from
parse -> serialize. A deliberate format change (with a CERTIFICATE_VERSION
bump) rewrites the corpus with

    PYTHONPATH=src python tests/test_golden.py --write

which refuses, writing nothing, while any stored document already at the
current version would change: new bytes at an unchanged version mean an
unannounced format change.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from unitprod import arith
from unitprod.certio import (
    CERTIFICATE_VERSION,
    parse_document,
    serialize_certificate,
    serialize_poly_certificate,
    serialize_report,
)
from unitprod import lift
from unitprod.chain import BuilderConfig, TargetPoint, build_chain
from unitprod.lab import DiscrepancyReport, box_discrepancy
from unitprod.lift import Certificate, approximate
from unitprod.poly import MonicPolynomial, PolyCertificate, approximate_polynomial

GOLDEN = Path(__file__).parent / "data" / "golden"
INPUTS = json.loads((GOLDEN / "inputs.json").read_text(encoding="utf-8"))
SERIALIZERS = {
    Certificate: serialize_certificate,
    PolyCertificate: serialize_poly_certificate,
    DiscrepancyReport: serialize_report,
}


def generate(inputs: dict) -> str:
    if inputs["kind"] == "report":
        return serialize_report(box_discrepancy(inputs["p"], inputs["n"], inputs["k"]))
    target = TargetPoint(tuple(Fraction(t) for t in inputs["target"]))
    eps = Fraction(inputs["eps"])
    config = BuilderConfig(mode=inputs["mode"])
    if inputs["kind"] == "point":
        return serialize_certificate(approximate(target, eps, config))
    f = MonicPolynomial(len(inputs["coeffs"]), inputs["coeffs"])
    return serialize_poly_certificate(approximate_polynomial(f, target, eps, config))


def test_corpus_matches_inputs():
    assert sorted(path.name for path in GOLDEN.glob("*.cert")) == sorted(INPUTS)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_regenerates_byte_for_byte(name):
    assert generate(INPUTS[name]).encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_parse_serialize_round_trip(name):
    text = (GOLDEN / name).read_bytes().decode()
    document = parse_document(text)
    assert SERIALIZERS[type(document)](document) == text


@pytest.mark.parametrize("name, form", [
    ("point-faithful-n4-cube.cert", "cube"),
    ("point-faithful-n5-nested.cert", "nested"),
    ("point-faithful-n5-rebuilt.cert", "rebuilt"),
])
def test_corpus_covers_each_proof_form(name, form, monkeypatch):
    # one entry proved in the cube-root form, one through a nested proof of
    # a cofactor, and one whose first chain left p to the 64 seeded rounds,
    # so that its chain was rebuilt with a proved-prime tail that proves p
    seen = []
    splits, nested = arith._splits, arith._nested_proof
    monkeypatch.setattr(arith, "_splits", lambda *args: seen.append("cube") or splits(*args))
    monkeypatch.setattr(
        arith, "_nested_proof", lambda *args: nested(*args) and not seen.append("nested")
    )
    document = parse_document((GOLDEN / name).read_text(encoding="utf-8"))
    assert document.prime_proof == arith.LUCAS_TAG
    first = build_chain(document.target, document.eps / 2, BuilderConfig(document.mode))
    rebuilt = first != document.chain
    assert (form == "rebuilt") == rebuilt
    if rebuilt:
        assert all(arith.is_proved_prime(a) for a in document.chain.a[-2:])
        assert lift._least_prime(first, document.eps, 2)[1] == arith.PROBABILISTIC_TAG
    else:
        assert form in seen


def stored_version(data: bytes) -> int | None:
    first = data.split(b"\n", 1)[0]
    return int(first[9:]) if first.startswith(b"version: ") else None


def write_corpus(golden: Path = GOLDEN) -> list[str]:
    """Regenerate every document under `golden`; return the names of stored
    documents at CERTIFICATE_VERSION whose bytes would change, and write
    nothing when there are any."""
    documents = {name: generate(inputs).encode() for name, inputs in INPUTS.items()}
    refused = []
    for name, data in documents.items():
        path = golden / name
        if path.exists():
            stored = path.read_bytes()
            if stored != data and stored_version(stored) == CERTIFICATE_VERSION:
                refused.append(name)
    if not refused:
        for name, data in documents.items():
            (golden / name).write_bytes(data)
    return refused


def test_write_refuses_a_change_at_the_current_version(tmp_path):
    for path in GOLDEN.glob("*.cert"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    assert write_corpus(tmp_path) == []  # unchanged bytes are rewritten as they are
    edited = tmp_path / "point-search-n2.cert"
    current = edited.read_bytes()
    edited.write_bytes(current.replace(b"kind:", b"kind:  "))
    older = tmp_path / "point-search-n3.cert"
    older.write_bytes(current.replace(
        f"version: {CERTIFICATE_VERSION}".encode(), f"version: {CERTIFICATE_VERSION - 1}".encode()
    ))
    assert write_corpus(tmp_path) == ["point-search-n2.cert"]
    assert older.read_bytes() != (GOLDEN / older.name).read_bytes()  # nothing written
    edited.write_bytes(current)
    assert write_corpus(tmp_path) == []  # an older version is overwritten
    assert older.read_bytes() == (GOLDEN / older.name).read_bytes()


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    refused = write_corpus()
    if refused:
        sys.exit(
            f"refusing to write: {', '.join(refused)} would change at version "
            f"{CERTIFICATE_VERSION}; bump CERTIFICATE_VERSION for a format change"
        )
