import pytest

from unitprod.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- lift

def test_lift_worked_example(capsys):
    code, out, _ = run(capsys, "lift", "--chain", "1,2,3,5", "--min-p", "2")
    assert code == 0
    assert "p: 29" in out
    assert "witness: 17,20,18" in out


def test_lift_explicit_prime(capsys):
    code, out, _ = run(capsys, "lift", "--chain", "1,2,3,5", "--p", "59")
    assert code == 0
    assert "witness: 32,40,36" in out


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
    assert "chain: 1,2,3,5" in out


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
    assert code == 3


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
    code, _, err = run(capsys, "discrepancy", "--n", "2", "--k", "2")
    assert code == 3


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
        ("congruence-residue: 29", "congruence-residue: 59"),
        ("witness: 17,20,18", "witness: +17, 20,018"),
        ("primality: miller-rabin-deterministic", "primality: pratt-proof"),
        ("mode: search", "mode: anything goes"),
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


def test_text_format_is_document_plus_hints(capsys):
    argv = ("approx", "--target", "1/3,2/5", "--eps", "1/10")
    code, document, _ = run(capsys, *argv, "--format", "structured")
    assert code == 0
    code, text, _ = run(capsys, *argv)
    assert code == 0
    assert text.startswith(document)
    document_keys = {line.partition(": ")[0] for line in document.splitlines()}
    hint_keys = [line.partition(": ")[0] for line in text[len(document):].splitlines()]
    assert hint_keys == ["point", "note", "max-error-approx"]
    assert not document_keys & set(hint_keys)
