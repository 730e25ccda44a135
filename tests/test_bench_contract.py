"""The benchmark's contract with the package: bench/spans.py wraps functions
by name and reads certificate attributes, and bench/workloads.py reads
document attributes in its oracles. Running the first ops of each workload
under the tracer catches a renamed function or a dropped attribute here
rather than in a full benchmark run, and running the whole verify corpus
catches a document layout the bench's oracles or tampers no longer fit.
The bench files are only imported."""

import importlib.util
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
FIRST_OPS = 5  # certify's fifth op is its first poly target


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


def _workload(name: str, workdir: Path):
    if name == "verify":
        return workloads.Verify(workdir)
    return {"certify": workloads.Certify, "lab": workloads.Lab}[name]()


@pytest.mark.parametrize("name", ["certify", "verify", "lab"])
def test_first_ops_pass_their_check_under_the_tracer(tmp_path, name):
    workload = _workload(name, tmp_path)
    workload.setup(1)
    tracer = spans.Tracer()
    tracer.install()  # raises AttributeError for a traced name the package lacks
    try:
        for op in islice(workload.ops(), FIRST_OPS):
            tracer.active = True
            try:
                out = workload.run(op)
            finally:
                tracer.active = False
            workload.check(op, out)
            workload.note(op, out)
    finally:
        tracer.uninstall()
    assert tracer.stats, "no span was recorded"
    # one reading of the checked certificate per check_certificate span
    checks = tracer.calls("lift.check_certificate")
    assert len(tracer.modulus_bits) == len(tracer.p_over_floor_bits) == checks
    if name == "certify":
        assert checks == FIRST_OPS


def test_verify_corpus_fits_the_bench_oracles_and_tampers(tmp_path):
    workload = workloads.Verify(tmp_path)
    workload.setup(1)
    # the bench's own point and poly oracles and its byte round trip, on
    # every valid document
    workload.check_corpus()
    # every tamper found a unique line to rewrite, and each tampered
    # document exits 1 with a reason
    tampered = [i for i, (_, _, _, valid) in enumerate(workload.corpus) if not valid]
    assert len(tampered) == len(workload.TAMPERS) + 1
    for i in tampered:
        op = workloads.Op("verify", (i,))
        workload.check(op, workload.run(op))
