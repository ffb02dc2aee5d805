import csv
import io
import json
import os
import subprocess
import sys

import pytest

import ews
from ews import blockpos, verify, witness
from ews.cli import build_parser, main
from ews.errors import BadParamError
from ews.linalg import BipartiteOperator, read_operator, write_operator
from ews.states import pure_from_schmidt


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


def test_report_csv_numbers_are_plain_floats(tmp_path, capsys):
    w_path = str(tmp_path / "w.json")
    run(
        ["family", "--a", "0.3", "--b", "0.7", "--c", "0", "--d", "0",
         "--m", "2", "--n", "3", "--out", w_path],
        capsys,
    )
    code, out, _ = run(["report", "--input", w_path, "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert any(row["name"] == "tail_from_3" for row in rows)
    for row in rows:
        for key in ("measured", "lower", "upper"):
            if row[key]:
                assert "np." not in row[key]
                float(row[key])


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


@pytest.mark.parametrize(
    "change",
    [
        {"entries": list(range(1, 17))},
        {"entries": 5},
        {"entries": [["a", "b"]] * 16},
        {"entries": [None] * 16},
        {"entries": [[True, 0.0]] * 16},
        {"m": 2.7},
        {"m": "2"},
    ],
)
def test_malformed_matrix_json_exits_2(tmp_path, capsys, change):
    path = tmp_path / "bad.json"
    obj = {"m": 2, "n": 2, "entries": [[0.25, 0.0]] * 16}
    path.write_text(json.dumps({**obj, **change}))
    code, out, err = run(["report", "--input", str(path)], capsys)
    assert code == 2
    assert out == "" and "error" in err


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


def test_mirror_rejects_a_negative_trace(tmp_path, capsys):
    # -W for the transposed Bell projector W: normalizing would mirror W
    w = witness.pure_pt_witness(pure_from_schmidt([2**-0.5] * 2, 2, 2))
    path = str(tmp_path / "neg_w.json")
    write_operator(path, BipartiteOperator(2, 2, -w.op.mat))
    code, out, err = run(["mirror", "--input", path], capsys)
    assert (code, out) == (2, "")
    assert "non-positive trace" in err


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
    assert pipeline["base_restarts_tried"] == 64
    assert pipeline["base_restarts_converged"] == 64
    assert pipeline["base_restarts_agreeing"] >= blockpos.AGREE_MIN


def _keys(payload):
    """Every key of a JSON object, those of nested objects included."""
    if not isinstance(payload, dict):
        return []
    return [k for key, value in payload.items() for k in (key, *_keys(value))]


@pytest.mark.parametrize("command", [
    ["mirror"],
    ["blockpos", "--mode", "min"],
    ["blockpos", "--mode", "max"],
    ["blockpos", "--mode", "verdict"],
    ["ndew"],
    ["detect"],
])
def test_seesaw_outputs_print_the_evidence_of_their_search(
    command, tmp_path, capsys, searches
):
    sigma = str(tmp_path / "gamma.json")
    nd = str(tmp_path / "ndew.json")
    rho = str(tmp_path / "bell.json")
    run(["state", "--name", "gamma", "--out", sigma], capsys)
    run(["ndew", "--input", sigma, "--out", nd], capsys)
    write_operator(rho, pure_from_schmidt([2**-0.5] * 2, 3, 3).projector())
    source = {"ndew": sigma, "detect": rho}.get(command[0], nd)
    searches.clear()
    witness._base_witness.cache_clear()  # detect runs its base search here
    code, out, _ = run(
        [*command, "--input", source, "--restarts", "40", "--seed", "5"], capsys
    )
    assert code == 0 and searches
    payload = json.loads(out)
    held = {"ndew": "provenance", "detect": "pipeline"}
    evidence = payload[held[command[0]]] if command[0] in held else payload
    prefix = "base_" if command[0] == "detect" else ""
    assert [k for k in evidence if k.startswith(prefix + "restarts_")] == [
        prefix + key for key in blockpos.EVIDENCE
    ]
    assert {key: evidence[prefix + key] for key in blockpos.EVIDENCE} == (
        blockpos.evidence(searches[-1])
    )
    assert evidence[prefix + "restarts_tried"] == 40
    assert not [key for key in _keys(payload) if "spread" in key]


def test_ndew_on_gamma_prints_its_agreeing_restarts(tmp_path, capsys):
    sigma = str(tmp_path / "gamma.json")
    run(["state", "--name", "gamma", "--out", sigma], capsys)
    code, out, _ = run(["ndew", "--input", sigma], capsys)
    assert code == 0
    provenance = json.loads(out)["provenance"]
    assert provenance["restarts_agreeing"] >= blockpos.AGREE_MIN
    assert provenance["restarts_tried"] == blockpos.DEFAULT_RESTARTS


def test_ndew_and_detect_output_feed_other_commands(tmp_path, capsys):
    sigma_path = str(tmp_path / "sigma.json")
    nd_path = str(tmp_path / "ndew.json")
    for name in ("gamma", "gamma_prime"):
        run(["state", "--name", name, "--out", sigma_path], capsys)
        code, _, _ = run(["ndew", "--input", sigma_path, "--out", nd_path], capsys)
        assert code == 0
        code, out, _ = run(["report", "--input", nd_path], capsys)
        assert code == 0 and json.loads(out)["is_ew"]
        code, out, _ = run(
            ["blockpos", "--mode", "verdict", "--input", nd_path], capsys
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["status"] == "yes-heuristic"
        assert verdict["restarts_agreeing"] >= 4

    rho_path = str(tmp_path / "rho.json")
    det_path = str(tmp_path / "detect.json")
    write_operator(rho_path, pure_from_schmidt([2**-0.5] * 2, 3, 3).projector())
    code, _, _ = run(["detect", "--input", rho_path, "--out", det_path], capsys)
    assert code == 0
    code, out, _ = run(["report", "--input", det_path], capsys)
    assert code == 0 and json.loads(out)["is_ew"]


def test_verify_exit_codes_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        # each run draws its sample stream afresh, not from the first run's cache
        verify._sampled_stream.cache_clear()
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


def test_verify_npt_detection_without_base_witness_exits_2(capsys):
    code, out, _ = run(
        ["verify", "--suite", "npt_detection", "--m", "2", "--n", "2"], capsys
    )
    assert code == 2
    assert out == ""


def test_verify_npt_detection_at_3x2_names_the_missing_witness(capsys):
    code, out, err = run(
        ["verify", "--suite", "npt_detection", "--m", "3", "--n", "2"], capsys
    )
    assert (code, out) == (2, "")
    assert "admit no nondecomposable witness" in err
    assert "transpose" not in err


@pytest.mark.parametrize("m,n", [(4, 5), (2, 4), (3, 4)])
def test_verify_ndew_constructions_off_its_size_exits_2(m, n, capsys):
    # both suites of fixed states, ndew_constructions and mirror_conditions
    for suite in ("ndew_constructions", "mirror_conditions"):
        code, out, err = run(
            ["verify", "--suite", suite, "--m", str(m), "--n", str(n)], capsys
        )
        assert code == 2 and out == ""
        assert f"{suite} runs at its default size (3, 3) only, got ({m}, {n})" in err


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


def _write_matrix(path, m, n, diag):
    entries = [[0.0, 0.0]] * (m * n) ** 2
    for i, x in enumerate(diag):
        entries[i * (m * n) + i] = [x, 0.0]
    path.write_text(json.dumps({"m": m, "n": n, "entries": entries}))
    return str(path)


def test_process_exit_codes(tmp_path):
    # the way the `ews` script and `python -m ews.cli` run: sys.exit(main())
    src = os.path.dirname(os.path.dirname(ews.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # <00|H|00> = -1/2, so H is not block positive
    neg = _write_matrix(tmp_path / "neg.json", 2, 2, [-0.5, 0.5, 0.5, 0.5])
    for argv, code in (
        (["state", "--name", "gamma"], 0),
        (["blockpos", "--mode", "verdict", "--input", neg, "--restarts", "4"], 1),
        (["verify", "--suite", "bogus"], 2),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "ews.cli", *argv],
            env=env, capture_output=True, cwd=tmp_path,
        )
        assert proc.returncode == code, proc.stderr


@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_seesaw_commands_reject_fewer_than_one_restart(tmp_path, capsys, restarts):
    # <00|H|00> = -1/2 and H is its own partial transpose, so the
    # block-positivity verdict cannot answer without the see-saw
    neg = _write_matrix(tmp_path / "neg.json", 2, 2, [-0.5, 0.5, 0.5, 0.5])
    gamma = str(tmp_path / "gamma.json")
    run(["state", "--name", "gamma", "--out", gamma], capsys)
    bell = str(tmp_path / "bell.json")
    write_operator(bell, pure_from_schmidt([2**-0.5] * 2, 3, 3).projector())
    for argv in (
        *(["blockpos", "--mode", mode, "--input", neg]
          for mode in ("min", "max", "verdict")),
        ["mirror", "--input", neg],
        ["ndew", "--input", gamma],
        ["detect", "--input", bell],
    ):
        code, out, err = run([*argv, "--restarts", restarts], capsys)
        assert (code, out) == (2, ""), argv
        assert f"restarts must be an integer of at least 1, got {restarts}" in err, argv


@pytest.mark.parametrize("restarts", ["1", "2", "3"])
def test_ndew_below_agree_min_restarts_exits_2(tmp_path, capsys, restarts):
    gamma = str(tmp_path / "gamma.json")
    run(["state", "--name", "gamma", "--out", gamma], capsys)
    code, out, err = run(["ndew", "--input", gamma, "--restarts", restarts], capsys)
    assert (code, out) == (2, "")
    assert "margin estimate not reproducible" in err


def test_negative_seed_exits_2(tmp_path, capsys):
    neg = _write_matrix(tmp_path / "neg.json", 2, 2, [-0.5, 0.5, 0.5, 0.5])
    bell = str(tmp_path / "bell.json")
    write_operator(bell, pure_from_schmidt([2**-0.5] * 2, 3, 3).projector())
    for argv in (
        ["verify", "--suite", "absolute_ppt", "--m", "2", "--n", "2"],
        ["blockpos", "--mode", "min", "--input", neg],
        ["mirror", "--input", neg],
        ["detect", "--input", bell],
    ):
        code, out, err = run([*argv, "--seed", "-1"], capsys)
        assert (code, out) == (2, ""), argv
        assert "seed must be an integer of at least 0, got -1" in err, argv


def test_out_receives_the_stdout_bytes(tmp_path, capsysbinary):
    w = str(tmp_path / "w.json")
    assert main(["family", "--a", "0.5", "--b", "0.5", "--c", "0", "--d", "0",
                 "--m", "2", "--n", "3", "--out", w]) == 0
    bell = str(tmp_path / "bell.json")
    write_operator(bell, pure_from_schmidt([2**-0.5] * 2, 3, 3).projector())
    gp = str(tmp_path / "gp.json")
    assert main(["state", "--name", "gamma_prime", "--out", gp]) == 0
    see_saw = ["--restarts", "8", "--seed", "3"]
    commands = [
        ["state", "--name", "rho_b", "--param", "b=0.7"],
        ["family", "--a", "0", "--b", "1", "--c", "0", "--d", "0"],
        ["report", "--input", w],
        ["report", "--input", w, "--format", "csv"],
        ["mirror", "--input", w, *see_saw],
        ["blockpos", "--mode", "min", "--input", w, *see_saw],
        ["blockpos", "--mode", "verdict", "--input", w, *see_saw],
        ["ndew", "--input", gp, "--seed", "5"],
        ["detect", "--input", bell],
        ["verify", "--suite", "dew_attainability", "--m", "2", "--n", "2"],
        ["verify", "--suite", "dew_attainability", "--format", "csv"],
    ]
    assert {argv[0] for argv in commands} == set(
        build_parser()._subparsers._group_actions[0].choices
    )
    capsysbinary.readouterr()
    for i, argv in enumerate(commands):
        code = main(argv)
        stdout = capsysbinary.readouterr().out
        out = tmp_path / f"out-{i}"
        assert main([*argv, "--out", str(out)]) == code
        assert capsysbinary.readouterr().out == b""
        assert stdout and out.read_bytes() == stdout, argv


def test_trivial_factor_report_exits_2(tmp_path, capsys):
    path = _write_matrix(tmp_path / "w21.json", 2, 1, [1.5, -0.5])
    code, out, err = run(["report", "--input", path], capsys)
    assert code == 2
    assert out == "" and "n must be an integer of at least 2, got 1" in err


def test_negative_family_sizes_exit_2(capsys):
    code, out, _ = run(
        ["family", "--a", "1", "--b", "0", "--c", "0", "--d", "0",
         "--m", "-3", "--n", "-2"],
        capsys,
    )
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--name", "rho_b", "--param", "B=0.5"],
        ["--name", "gamma", "--param", "bogus=3"],
        ["--name", "gamma", "--m", "3"],
        ["--name", "rho1", "--param", "normalized=no"],
        ["--name", "zeta2", "--param", "m=2.5", "--param", "n=3.9"],
        ["--name", "max_ball_center", "--param", "m=3.5"],
        ["--name", "zeta1", "--param", "l=1.5"],
    ],
)
def test_state_rejects_params_it_does_not_take(argv, capsys):
    code, out, err = run(["state", *argv], capsys)
    assert code == 2 and out == "" and "error" in err


@pytest.mark.parametrize("name, param", [
    ("zeta2", "m=1e309"), ("zeta1", "l=1e309"), ("zeta2", "m=nan"), ("rho1", "n=-inf"),
])
def test_state_non_finite_sizes_exit_2_naming_the_key(name, param, capsys):
    code, out, err = run(["state", "--name", name, "--param", param], capsys)
    key = param.split("=")[0]
    assert (code, out) == (2, "")
    assert f"{key} must be an integer of at least " in err


@pytest.mark.parametrize("option", ["--z", "--delta"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_ndew_non_finite_params_exit_2_before_the_search(
    tmp_path, capsys, monkeypatch, option, value
):
    rho_b = str(tmp_path / "rho_b.json")
    run(["state", "--name", "rho_b", "--out", rho_b], capsys)
    searches = []
    monkeypatch.setattr(
        witness.blockpos, "product_expectation_min",
        lambda *args, **kwargs: searches.append(args),
    )
    code, out, err = run(["ndew", "--input", rho_b, option, value], capsys)
    assert (code, out) == (2, "")
    name = option[2:]
    assert err == f"ews: error: {name} must be a real number in (0, inf), got {value}\n"
    assert searches == []


def test_state_integer_valued_float_sizes_are_accepted(capsys):
    code, out, _ = run(["state", "--name", "zeta2", "--param", "m=3.0"], capsys)
    code_int, out_int, _ = run(["state", "--name", "zeta2", "--param", "m=3"], capsys)
    assert code == code_int == 0
    assert out == out_int and json.loads(out)["m"] == 3


@pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (0, 3)])
@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_every_suite_rejects_trivial_factors(suite, m, n, capsys):
    message = f"m must be an integer of at least 2, got {m}"
    with pytest.raises(BadParamError, match=message):
        verify.run_suite(suite, m=m, n=n, samples=3, seed=1)
    code, out, err = run(
        ["verify", "--suite", suite, "--m", str(m), "--n", str(n), "--samples", "3"],
        capsys,
    )
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("value", ["false", "False", "FALSE", "0"])
def test_state_normalized_false_gives_the_raw_diagonal(value, capsys):
    code, out, _ = run(
        ["state", "--name", "rho2", "--m", "2", "--n", "2",
         "--param", f"normalized={value}"],
        capsys,
    )
    assert code == 0
    entries = json.loads(out)["entries"]
    assert [entries[5 * i][0] for i in range(4)] == [2.0, 2.0, 2.0, 1.0]


def test_mirror_outlasting_the_seesaw_cap_exits_0(capsys):
    fixture = os.path.join(os.path.dirname(__file__), "stall_mirror_3x3.json")
    code, out, _ = run(
        ["mirror", "--input", fixture, "--restarts", "4", "--seed", "55"], capsys
    )
    assert code == 0 and json.loads(out)["verdict"] == "inconclusive"


@pytest.mark.parametrize("option", [["--restarts", "0"], ["--restarts", "-3"],
                                    ["--seed", "-1"]])
def test_blockpos_verdict_checks_its_search_before_the_psd_path(tmp_path, capsys, option):
    # gamma is PSD, so the verdict would answer yes-psd without a search
    gamma = str(tmp_path / "gamma.json")
    run(["state", "--name", "gamma", "--out", gamma], capsys)
    code, out, err = run(["blockpos", "--mode", "verdict", "--input", gamma, *option],
                         capsys)
    assert (code, out) == (2, "")
    assert f"{option[0][2:]} must be an integer of at least " in err


def test_state_rejects_a_boolean_size(capsys):
    code, out, err = run(["state", "--name", "zeta1", "--param", "l=true"], capsys)
    assert (code, out) == (2, "")
    assert "l must be an integer of at least 1, got True" in err


def test_param_without_an_equals_sign_exits_2(capsys):
    code, out, err = run(["state", "--name", "zeta1", "--param", "l"], capsys)
    assert (code, out) == (2, "")
    assert "--param expects key=value, got 'l'" in err
