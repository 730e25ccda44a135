import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import unitprod
from unitprod.cli import build_parser, main
from test_certio import HOSTILE_BUDGET_S


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- lift

def test_lift_worked_example(capsys):
    code, out, _ = run(capsys, "lift", "--chain", "1,2,3,5", "--min-p", "2")
    assert code == 0
    assert out == (
        "chain: 1,2,3,5\n"
        "congruence: p = 29 mod 30\n"
        "p: 29\n"
        "witness: 17,20,18\n"
        "point: 17/29,20/29,18/29\n"
        "gaps-to-chain: 5/58,2/87,3/145\n"
    )


def test_lift_explicit_prime(capsys):
    code, out, _ = run(capsys, "lift", "--chain", "1,2,3,5", "--p", "59")
    assert code == 0
    assert out == (
        "chain: 1,2,3,5\n"
        "congruence: p = 29 mod 30\n"
        "p: 59\n"
        "witness: 32,40,36\n"
        "point: 32/59,40/59,36/59\n"
        "gaps-to-chain: 5/118,2/177,3/295\n"
    )


def test_lift_rejects_bad_inputs(capsys):
    code, _, err = run(capsys, "lift", "--chain", "1,2,4,6")
    assert code == 3 and "not valid" in err
    code, _, err = run(capsys, "lift", "--chain", "1,2,3,5", "--p", "31")
    assert code == 3 and "class" in err
    code, _, err = run(capsys, "lift", "--chain", "1,2,3,5", "--p", "30")
    assert code == 3


# ---------------------------------------------------------------- approx / verify

def test_approx_verify_round_trip(tmp_path, capsys):
    cert_path = tmp_path / "point.cert"
    code, out, _ = run(
        capsys, "approx", "--target", "1/2,2/3,3/5", "--eps", "1/5",
        "--out", str(cert_path),
    )
    assert code == 0
    assert "p: 29" in out
    code, out, _ = run(capsys, "verify", "--cert", str(cert_path))
    assert code == 0
    assert out.strip() == "valid"


def test_verify_rejects_tampered_file(tmp_path, capsys):
    cert_path = tmp_path / "point.cert"
    run(capsys, "approx", "--target", "1/2,2/3,3/5", "--eps", "1/5", "--out", str(cert_path))
    text = cert_path.read_text()
    cert_path.write_text(text.replace("witness: 17,20,18", "witness: 17,21,18"))
    code, out, _ = run(capsys, "verify", "--cert", str(cert_path))
    assert code == 1
    assert "invalid" in out


def test_verify_rejects_garbage(tmp_path, capsys):
    cert_path = tmp_path / "garbage.cert"
    cert_path.write_text("not a certificate\n")
    code, out, _ = run(capsys, "verify", "--cert", str(cert_path))
    assert code == 1


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "--cert", "/nonexistent/file.cert")
    assert code == 2


def test_approx_decimal_eps_matches_fraction(capsys):
    code, out_decimal, _ = run(capsys, "approx", "--target", "0.5,2/3,0.6", "--eps", "0.2")
    assert code == 0
    code, out_fraction, _ = run(capsys, "approx", "--target", "1/2,2/3,3/5", "--eps", "1/5")
    assert code == 0
    assert out_decimal == out_fraction


def test_approx_deterministic_bytes(capsys):
    argv = ("approx", "--target", "3/7,1/9,9/11", "--eps", "1/100", "--format", "structured")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert first == second


def test_approx_dimension_two_notes(capsys):
    code, out, _ = run(capsys, "approx", "--target", "1/3,2/5", "--eps", "1/10")
    assert code == 0
    assert "dimension 2" in out


# ---------------------------------------------------------------- chain

def test_chain_subcommand(capsys):
    code, out, _ = run(capsys, "chain", "--target", "1/2,2/3,3/5", "--eps", "1/10")
    assert code == 0
    assert out == (
        "target: 1/2,2/3,3/5\n"
        "eps: 1/10\n"
        "chain: 1,2,3,5\n"
        "point: 1/2,2/3,3/5\n"
        "errors: 0/1,0/1,0/1\n"
        "max-error: 0/1\n"
    )


# ---------------------------------------------------------------- poly

def test_poly_round_trip(tmp_path, capsys):
    cert_path = tmp_path / "poly.cert"
    code, out, _ = run(
        capsys, "poly", "--degree", "2", "--coeffs", "1,0",
        "--target", "1/2,1/2,1/2", "--eps", "1/10", "--out", str(cert_path),
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", "--cert", str(cert_path))
    assert code == 0 and out.strip() == "valid"


def test_poly_coeffs_length_mismatch(capsys):
    code, _, err = run(
        capsys, "poly", "--degree", "3", "--coeffs", "1,0",
        "--target", "1/2,1/2", "--eps", "1/10",
    )
    assert code == 3 and "coefficient" in err


# ---------------------------------------------------------------- enumerate / discrepancy / jacobsthal

def test_enumerate_stdout(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "5", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["x1,x2", "1,1", "2,3", "3,2", "4,4"]


def test_enumerate_csv_file(tmp_path, capsys):
    path = tmp_path / "points.csv"
    code, _, _ = run(capsys, "enumerate", "--p", "5", "--n", "2", "--csv", str(path))
    assert code == 0
    assert path.read_text().splitlines() == ["x1,x2", "1,1", "2,3", "3,2", "4,4"]


def test_enumerate_not_prime(capsys):
    code, _, err = run(capsys, "enumerate", "--p", "4", "--n", "2")
    assert code == 3


def test_discrepancy_text(capsys):
    code, out, _ = run(capsys, "discrepancy", "--p", "5", "--n", "2", "--k", "2")
    assert code == 0
    assert "sup-deviation: 0" in out


def test_discrepancy_p_list_structured(capsys):
    code, out, _ = run(
        capsys, "discrepancy", "--p-list", "5,7", "--n", "2", "--k", "2",
        "--format", "structured",
    )
    assert code == 0
    assert out.count("kind: discrepancy-report") == 2


def test_discrepancy_requires_p(capsys):
    with pytest.raises(SystemExit) as info:
        main(["discrepancy", "--n", "2", "--k", "2"])
    assert info.value.code == 2


def test_discrepancy_p_and_p_list_exclusive(capsys):
    with pytest.raises(SystemExit) as info:
        main(["discrepancy", "--p", "7", "--p-list", "11", "--n", "2", "--k", "2"])
    assert info.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_jacobsthal_subcommand(capsys):
    code, out, _ = run(capsys, "jacobsthal", "--b", "30")
    assert code == 0
    assert out.strip() == "6"
    code, _, err = run(capsys, "jacobsthal", "--b", "10000001")
    assert code == 3


# ---------------------------------------------------------------- usage errors

def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["approx", "--eps", "1/5"])  # missing --target
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["approx", "--target", "1/2,2/3", "--eps", "2"])  # eps out of range
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["approx", "--target", "1/2,nope", "--eps", "1/5"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["approx", "--target", "1/2,3/2", "--eps", "1/5"])  # outside cube
    assert info.value.code == 2


@pytest.mark.parametrize(
    "canonical, variant",
    [
        ("p: 29", "p: 2_9"),
        ("eps: 1/5", "eps: -1/-5"),
        ("eps: 1/5", "eps: 2/10"),
        ("chain: 1,2,3,5", "chain: 1,2,3,7"),  # a valid chain whose class misses p
        ("witness: 17,20,18", "witness: +17, 20,018"),
        ("mode: search", "primality: miller-rabin-deterministic"),  # a version-5 line
        ("mode: search", "mode: anything goes"),
        ("max-error: 5/58", "max-error: 1/1000"),
        ("witness: 17,20,18", "witness: 17,21,18"),  # same max-error, fails the relift
        ("p: 29", "p: 0"),
        ("p: 29", "p: -29"),
        ("witness: 17,20,18", "witness: 17,20"),
    ],
)
def test_verify_rejects_edited_fields(tmp_path, capsys, canonical, variant):
    cert_path = tmp_path / "point.cert"
    run(capsys, "approx", "--target", "1/2,2/3,3/5", "--eps", "1/5", "--out", str(cert_path))
    text = cert_path.read_text()
    assert canonical + "\n" in text
    cert_path.write_text(text.replace(canonical + "\n", variant + "\n"))
    code, out, _ = run(capsys, "verify", "--cert", str(cert_path))
    assert code == 1
    assert out.startswith("invalid certificate: ")


@pytest.mark.parametrize(
    "key, value",
    [
        ("coeffs", "100000,0"),  # p falls below the poly's prime floor
        ("root-precision", "1/100"),
        ("witness", "1,1,1"),  # a unit product whose values miss the alphas
    ],
)
def test_verify_rejects_edited_poly_fields(tmp_path, capsys, key, value):
    cert_path = tmp_path / "poly.cert"
    run(
        capsys, "poly", "--degree", "2", "--coeffs", "1,0",
        "--target", "1/2,1/2,1/2", "--eps", "1/10", "--out", str(cert_path),
    )
    lines = cert_path.read_text().splitlines()
    [i] = [i for i, line in enumerate(lines) if line.startswith(key + ": ")]
    lines[i] = f"{key}: {value}"
    cert_path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", "--cert", str(cert_path))
    assert code == 1
    assert out.startswith("invalid certificate: ")


def test_text_format_is_document_plus_hints(capsys):
    argv = ("approx", "--target", "1/3,2/5", "--eps", "1/10")
    code, document, _ = run(capsys, *argv, "--format", "structured")
    assert code == 0
    code, text, _ = run(capsys, *argv)
    assert code == 0
    assert text.startswith(document)
    document_keys = {line.partition(": ")[0] for line in document.splitlines()}
    hint_keys = [line.partition(": ")[0] for line in text[len(document):].splitlines()]
    assert hint_keys == ["point", "note", "max-error-approx", "primality"]
    assert not document_keys & set(hint_keys)
    assert text.endswith("primality: miller-rabin-deterministic\n")


# ---------------------------------------------------------------- one process, many calls

def fresh_process(*argv, flags=()):
    """Exit code and stdout of the same command in a new interpreter."""
    src = os.path.dirname(os.path.dirname(unitprod.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, *flags, "-m", "unitprod", *argv],
        capture_output=True, text=True, env=env, check=False,
    )
    return done.returncode, done.stdout


def test_successive_calls_match_fresh_processes(tmp_path, capsys):
    good = tmp_path / "good.cert"
    bad = tmp_path / "bad.cert"
    run(capsys, "approx", "--target", "1/2,2/3,3/5", "--eps", "1/5", "--out", str(good))
    bad.write_text(good.read_text().replace("witness: 17,20,18", "witness: 17,20,19"))
    sequences = [
        [
            ("approx", "--target", "1/3,2/5,3/7", "--eps", "1/10", "--mode", "faithful"),
            ("approx", "--target", "1/3,2/5,3/7", "--eps", "1/10"),
        ],
        [("verify", "--cert", str(bad)), ("verify", "--cert", str(good))],
    ]
    outcomes = [[run(capsys, *argv)[:2] for argv in sequence] for sequence in sequences]
    assert outcomes == [[fresh_process(*argv) for argv in sequence] for sequence in sequences]
    (faithful, search), (rejected, accepted) = outcomes
    assert "mode: faithful" in faithful[1] and "mode: search" in search[1]
    assert (rejected[0], accepted) == (1, (0, "valid\n"))
    assert build_parser() is not build_parser()


def test_approx_needs_a_large_floor_in_fresh_process(tmp_path):
    # the chain needs a prime floor past 3 * 2^40
    cert = tmp_path / "edge.cert"
    argv = ("approx", "--target", "1/2,0,0,0,1/2", "--eps", "1/1000", "--out", str(cert))
    assert fresh_process(*argv)[0] == 0
    assert fresh_process("verify", "--cert", str(cert)) == (0, "valid\n")


def test_verify_verdicts_hold_without_asserts(tmp_path):
    golden = Path(__file__).parent / "data" / "golden" / "point-search-n3.cert"
    tampered = tmp_path / "tampered.cert"
    witness = "witness: 15227750,24880830,59015190\n"
    assert witness in golden.read_text()
    tampered.write_text(golden.read_text().replace(witness, witness.replace("190", "191")))
    # -O strips assert statements, so neither verdict may rest on one
    assert fresh_process("verify", "--cert", str(golden), flags=("-O",)) == (0, "valid\n")
    code, out = fresh_process("verify", "--cert", str(tampered), flags=("-O",))
    assert code == 1 and out.startswith("invalid certificate: ")
    # a prime below 2 ends at the parser, a witness shorter than the target
    # (same largest error) at the checker's dimension check
    for line in ("p: 0\n", "p: -7\n", "witness: 15227750,24880830\n"):
        key = line.partition(":")[0]
        edited = [line if old.startswith(key + ": ") else old
                  for old in golden.read_text().splitlines(keepends=True)]
        tampered.write_text("".join(edited))
        code, out = fresh_process("verify", "--cert", str(tampered), flags=("-O",))
        assert code == 1 and out.startswith("invalid certificate: "), line


def test_verify_rejects_a_claimed_degree_past_the_digit_limit(tmp_path, capsys):
    # at degree 2000 the values f(x)/p^d are too long to write as decimals;
    # the checker never writes them, and rejects the degree-1 witness on its
    # errors without ending in exit 3
    golden = Path(__file__).parent / "data" / "golden" / "poly-d1.cert"
    degree = 2000
    precision = Fraction(1, 10) / (4 * degree)  # agrees, so the document parses
    replace = {
        "degree": str(degree),
        "coeffs": ",".join(["3"] + ["0"] * (degree - 1)),
        "root-precision": f"{precision.numerator}/{precision.denominator}",
    }
    lines = golden.read_text().splitlines()
    assert {line.partition(": ")[0] for line in lines} >= replace.keys()
    hostile = tmp_path / "hostile.cert"
    hostile.write_text("".join(
        f"{key}: {replace[key]}\n" if key in replace else line + "\n"
        for line in lines for key in [line.partition(": ")[0]]
    ))
    expected = (1, "invalid certificate: error-exceeds-eps\n")
    started = time.perf_counter()
    assert run(capsys, "verify", "--cert", str(hostile))[:2] == expected
    assert time.perf_counter() - started < HOSTILE_BUDGET_S
    started = time.perf_counter()
    assert fresh_process("verify", "--cert", str(hostile), flags=("-O",)) == expected
    assert time.perf_counter() - started < HOSTILE_BUDGET_S
