import json

import pytest

from ews import witness
from ews.cli import main
from ews.linalg import read_operator


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_then_report(tmp_path, capsys):
    w_path = str(tmp_path / "w.json")
    code, _, _ = run(
        ["family", "--a", "0", "--b", "1", "--c", "0", "--d", "0",
         "--m", "2", "--n", "2", "--out", w_path],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["report", "--input", w_path], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["lambda_min"] + 0.5) < 1e-12
    assert payload["is_ew"] and payload["all_pass"]


def test_report_csv_has_scalar_rows(tmp_path, capsys):
    w_path = str(tmp_path / "w.json")
    run(
        ["family", "--a", "0.5", "--b", "0.5", "--c", "0", "--d", "0",
         "--m", "3", "--n", "3", "--out", w_path],
        capsys,
    )
    code, out, _ = run(["report", "--input", w_path, "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("name,measured")
    names = {line.split(",")[0] for line in lines[1:]}
    assert {"lambda1", "lambda_min", "negativity", "fro_sq"} <= names


def test_state_emission(tmp_path, capsys):
    path = str(tmp_path / "gamma.json")
    code, _, _ = run(["state", "--name", "gamma", "--out", path], capsys)
    assert code == 0
    op = read_operator(path)
    assert op.m == op.n == 3
    assert op.trace() == 1.0


def test_state_with_params(tmp_path, capsys):
    path = str(tmp_path / "rb.json")
    code, _, _ = run(
        ["state", "--name", "rho_b", "--param", "b=0.5", "--out", path], capsys
    )
    assert code == 0
    assert abs(read_operator(path).trace() - 1.0) < 1e-12


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["report", "--input", str(bad)], capsys)
    assert code == 2
    assert "error" in err


def test_nonfinite_input_exits_2(tmp_path, capsys):
    path = tmp_path / "w.json"
    run(
        ["family", "--a", "0", "--b", "1", "--c", "0", "--d", "0",
         "--m", "2", "--n", "2", "--out", str(path)],
        capsys,
    )
    obj = json.loads(path.read_text())
    obj["entries"][0] = [float("nan"), 0.0]
    path.write_text(json.dumps(obj))
    code, out, err = run(["report", "--input", str(path)], capsys)
    assert code == 2
    assert out == "" and "error" in err


def test_nan_in_output_exits_2(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "w.json")
    run(
        ["family", "--a", "0", "--b", "1", "--c", "0", "--d", "0",
         "--m", "2", "--n", "2", "--out", path],
        capsys,
    )
    real = witness.spectral_report

    def nan_report(op):
        rep = real(op)
        rep.lambda_min = float("nan")
        return rep

    monkeypatch.setattr(witness, "spectral_report", nan_report)
    code, out, err = run(["report", "--input", path], capsys)
    assert code == 2
    assert out == "" and "error" in err


def test_missing_file_exits_2(capsys):
    code, _, _ = run(["report", "--input", "/nonexistent/w.json"], capsys)
    assert code == 2


def test_blockpos_modes(tmp_path, capsys):
    path = str(tmp_path / "w.json")
    run(
        ["family", "--a", "1", "--b", "0", "--c", "0", "--d", "0",
         "--m", "2", "--n", "2", "--out", path],
        capsys,
    )
    code, out, _ = run(
        ["blockpos", "--input", path, "--mode", "min", "--restarts", "8",
         "--seed", "3"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] >= -1e-12
    code, out, _ = run(
        ["blockpos", "--input", path, "--mode", "verdict", "--restarts", "8",
         "--seed", "3"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["status"].startswith("yes")


def test_mirror_command(tmp_path, capsys):
    path = str(tmp_path / "w.json")
    run(
        ["family", "--a", "0", "--b", "1", "--c", "0", "--d", "0",
         "--m", "2", "--n", "2", "--out", path],
        capsys,
    )
    code, out, _ = run(
        ["mirror", "--input", path, "--restarts", "32", "--seed", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["mu"] - 0.5) < 1e-8
    assert payload["verdict"] == "mirror-PSD"


def test_ndew_and_detect_commands(tmp_path, capsys):
    sigma_path = str(tmp_path / "sigma.json")
    run(["state", "--name", "gamma_prime", "--out", sigma_path], capsys)
    code, out, _ = run(
        ["ndew", "--input", sigma_path, "--restarts", "64", "--seed", "5"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "NDEW-certified"
    assert payload["provenance"]["expectation"] < -1e-9

    # an embedded Bell state as matrix JSON, then the detection pipeline
    rho_path = str(tmp_path / "rho.json")
    from ews.linalg import write_operator
    from ews.states import pure_from_schmidt

    write_operator(rho_path, pure_from_schmidt([2**-0.5] * 2, 3, 3).projector())
    code, out, _ = run(
        ["detect", "--input", rho_path, "--restarts", "64", "--seed", "5"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["expectation"] < -1e-9
    pipeline = payload["pipeline"]
    assert pipeline["base"] == "gamma1"
    assert pipeline["base_epsilon_estimate"] > 0
    assert pipeline["base_epsilon_spread"] >= 0
    assert pipeline["base_restarts_converged"] == 64


def test_verify_exit_codes_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code, _, err = run(
            ["verify", "--suite", "dew_bounds", "--m", "2", "--n", "2",
             "--samples", "100", "--seed", "7", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "passed" in err
    assert out1.read_bytes() == out2.read_bytes()


def test_input_files_never_mutated(tmp_path, capsys):
    path = tmp_path / "w.json"
    run(
        ["family", "--a", "0", "--b", "1", "--c", "0", "--d", "0",
         "--m", "2", "--n", "2", "--out", str(path)],
        capsys,
    )
    before = path.read_bytes()
    run(["report", "--input", str(path)], capsys)
    run(["mirror", "--input", str(path), "--restarts", "8", "--seed", "1"], capsys)
    run(["blockpos", "--input", str(path), "--mode", "min", "--restarts", "4",
         "--seed", "1"], capsys)
    assert path.read_bytes() == before


def test_verify_unknown_suite_exits_2(capsys):
    code, _, _ = run(["verify", "--suite", "bogus"], capsys)
    assert code == 2


def test_verify_zero_samples_exits_2(capsys):
    code, out, _ = run(
        ["verify", "--suite", "dew_bounds", "--m", "2", "--n", "2",
         "--samples", "0"],
        capsys,
    )
    assert code == 2
    assert out == ""


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "--a", "1"])  # missing required weights
    assert exc.value.code == 2
