"""Golden corpus: stored documents and the inputs that generate them.

Every document under data/golden must be reproduced byte for byte from its
entry in data/golden/inputs.json, and must come back unchanged from
parse -> serialize. A deliberate format change (with a CERTIFICATE_VERSION
bump) rewrites the corpus with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from unitprod.certio import (
    parse_document,
    serialize_certificate,
    serialize_poly_certificate,
    serialize_report,
)
from unitprod.chain import BuilderConfig, TargetPoint
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


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    for name, inputs in INPUTS.items():
        (GOLDEN / name).write_bytes(generate(inputs).encode())
