import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oqho
from oqho import cli, jsonio, realizability
from oqho.cli import main
from oqho.errors import StructureError
from oqho.forms import PmParams, build_pm_realization, pm_to_ac
from oqho.sampling import random_pm_params
from oqho.skewfactor import cholesky_like
from oqho.statespace import StateSpace
from oqho.structured import j_matrix
from oqho.worked_example import (
    example_ac_params,
    example_pm_params,
    example_rational_entries,
    example_state_space,
)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(jsonio.dumps(payload))
    return str(path)


@pytest.fixture
def system_file(tmp_path):
    return write(tmp_path, "sys.json", jsonio.encode_state_space(example_state_space()))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_example_command(capsys):
    code, out, err = run(capsys, "example")
    assert code == 0
    assert "verdict: PR" in out
    assert "spectrally generic: no" in out


def test_example_writes_payload(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "example", "--output", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert set(payload) == {
        "check", "spectrum", "synthesis", "pm_params", "ac_params", "deviations"
    }
    assert payload["check"]["verdict"] == "PR"
    assert max(payload["deviations"].values()) < 1e-7


def test_check_state_space_input(system_file, capsys):
    code, out, _ = run(capsys, "check", "--input", system_file)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "PR"
    assert report["jj_unitarity_max_residual"] < 1e-9
    assert len(report["sample_points"]) == 20


def test_check_rational_input(tmp_path, capsys):
    path = write(tmp_path, "rat.json",
                 jsonio.encode_rational_entries(example_rational_entries()))
    code, out, _ = run(capsys, "check", "--input", path)
    assert code == 0
    assert json.loads(out)["verdict"] == "PR"


def test_check_rejects_non_orthogonal_static(tmp_path, capsys):
    path = write(
        tmp_path, "bad.json",
        jsonio.encode_state_space(StateSpace.static(np.diag([2.0, 0.5, 1.0, 1.0]))),
    )
    code, out, err = run(capsys, "check", "--input", path)
    assert code == 1
    assert json.loads(out)["verdict"] == "not-PR"
    assert "d_orthogonality residual 3.092e+00" in err


def test_check_time_domain_with_canonical_theta(tmp_path, capsys):
    built = build_pm_realization(example_pm_params())
    path = write(tmp_path, "built.json", jsonio.encode_state_space(built))
    code, out, _ = run(capsys, "check", "--input", path, "--theta", "J")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "PR"
    assert max(report["condition_residuals"].values()) < 1e-10
    assert report["jj_unitarity_max_residual"] is None


def test_check_time_domain_with_theta_file(tmp_path, capsys):
    built = build_pm_realization(example_pm_params())
    sys_path = write(tmp_path, "built.json", jsonio.encode_state_space(built))
    theta_path = write(tmp_path, "theta.json", jsonio.encode_real_matrix(j_matrix(4)))
    code, out, _ = run(capsys, "check", "--input", sys_path, "--theta", theta_path)
    assert code == 0
    assert json.loads(out)["verdict"] == "PR"


def test_check_sample_budget(system_file, capsys):
    code, _, err = run(capsys, "check", "--input", system_file, "--samples", "3")
    assert code == 2
    assert "at least 5" in err


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", "--input", str(path))
    assert code == 2
    assert "error:" in err


def test_ambiguous_payload_is_usage_error(tmp_path, capsys):
    payload = jsonio.encode_state_space(example_state_space())
    payload.update(jsonio.encode_pm_params(example_pm_params()))
    path = write(tmp_path, "amb.json", payload)
    code, _, err = run(capsys, "check", "--input", str(path))
    assert code == 2
    assert "ambiguous" in err


def test_synthesize_writes_result(system_file, tmp_path, capsys):
    out_path = tmp_path / "syn.json"
    code, _, _ = run(capsys, "synthesize", "--input", system_file,
                     "--output", str(out_path))
    assert code == 0
    result = jsonio.decode_synthesis_result(json.loads(out_path.read_text()))
    assert np.array_equal(result.params.D, np.eye(4))
    assert result.equation_residuals["rebuild_max_relative_deviation"] < 1e-7


def test_synthesize_rejects_unrealizable(tmp_path, capsys):
    ss = StateSpace(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.diag([2.0, 1.0]))
    path = write(tmp_path, "bad.json", jsonio.encode_state_space(ss))
    code, out, err = run(capsys, "synthesize", "--input", path)
    assert code == 1
    assert "not physically realizable" in err
    assert json.loads(out)["verdict"] == "not-PR"


def test_numerical_failure_is_inconclusive(system_file, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # every decomposition of A, the check's among them, goes through eig;
    # spectrum's zeros come from eigvals
    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, fail)
    code, _, err = run(capsys, "check", "--input", system_file)
    assert code == 3
    assert "numerical failure: Eigenvalues did not converge" in err


@pytest.mark.parametrize("command", ["check", "synthesize"])
def test_overflowing_defect_is_inconclusive(command, tmp_path, capsys):
    """With B and C scaled by 1e100 the sampled (J,J) defect overflows: exit 3,
    a reason that names the frequency check, no warning, and a report that
    loads."""
    ss = example_state_space()
    path = write(tmp_path, "huge.json", jsonio.encode_state_space(
        StateSpace(ss.A, 1e100 * ss.B, 1e100 * ss.C, ss.D)))
    out_path = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, command, "--input", path, "--output", str(out_path))
    assert code == 3
    assert "frequency-domain check inconclusive" in err
    report = jsonio.decode_pr_report(jsonio.load_path(str(out_path)))
    assert report.verdict == "inconclusive"
    assert report.jj_unitarity_max_residual is None


def test_convert_roundtrip_files_are_identical(tmp_path, capsys):
    pm_path = write(tmp_path, "pm.json", jsonio.encode_pm_params(example_pm_params()))
    ac_path = tmp_path / "ac.json"
    back_path = tmp_path / "pm_back.json"
    code, _, _ = run(capsys, "convert", "--input", pm_path,
                     "--direction", "pm2ac", "--output", str(ac_path))
    assert code == 0
    code, _, _ = run(capsys, "convert", "--input", str(ac_path),
                     "--direction", "ac2pm", "--output", str(back_path))
    assert code == 0
    assert back_path.read_text() == (tmp_path / "pm.json").read_text()


def test_convert_direction_payload_mismatch(tmp_path, capsys):
    ac_path = write(tmp_path, "ac.json", jsonio.encode_ac_params(example_ac_params()))
    code, _, err = run(capsys, "convert", "--input", ac_path, "--direction", "pm2ac")
    assert code == 2
    assert "pm_params" in err


def test_spectrum_report(system_file, capsys):
    code, out, _ = run(capsys, "spectrum", "--input", system_file)
    assert code == 0
    report = json.loads(out)
    assert report["mirror_symmetric"] is True
    assert report["spectrally_generic"] is False
    pole_reals = sorted(p["re"] for p in report["poles"])
    assert np.allclose(pole_reals, [-1.0, -1.0, 0.0, 1.0], atol=1e-9)


def test_spectrum_rejects_singular_feedthrough(tmp_path, capsys):
    ss = StateSpace(np.diag([-1.0]), np.ones((1, 1)), np.ones((1, 1)), np.zeros((1, 1)))
    path = write(tmp_path, "sing.json", jsonio.encode_state_space(ss))
    code, _, err = run(capsys, "spectrum", "--input", path)
    assert code == 2
    assert "singular" in err


def test_factor_command(tmp_path, capsys):
    path = write(tmp_path, "J4.json", jsonio.encode_real_matrix(j_matrix(4)))
    code, out, err = run(capsys, "factor", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert np.allclose(payload["deltas"], [1.0, 1.0])
    assert "reconstruction residual" in err


def test_factor_rejects_non_skew(tmp_path, capsys):
    path = write(tmp_path, "eye.json", jsonio.encode_real_matrix(np.eye(4)))
    code, _, err = run(capsys, "factor", "--input", path)
    assert code == 2
    assert "skew" in err


def scaled_theta(scale, asymmetry):
    """scale * J with one entry moved so that |Theta + Theta^T| / |Theta| is
    ``asymmetry``."""
    theta = scale * j_matrix(4)
    theta[0, 1] = np.sqrt(2.0) * asymmetry * scale
    return theta


# the commutation matrices of the golden corpus that every command refuses
REFUSED_THETAS = {
    "non_skew": np.arange(16.0).reshape(4, 4),
    "rank2": np.pad(j_matrix(2), (0, 2)),
    "small_theta": scaled_theta(1e-3, 1e-7),  # asymmetric beyond its scale-aware bound
}


@pytest.mark.parametrize("name", list(REFUSED_THETAS))
def test_every_command_refuses_a_theta_in_one_line(tmp_path, capsys, system_file, name):
    """factor, check --theta, synthesize --theta and, as the Theta of a
    parameter set, convert refuse one bad commutation matrix alike: exit 2
    and the same one error line, which names it."""
    theta = REFUSED_THETAS[name]
    theta_path = write(tmp_path, "theta.json", jsonio.encode_real_matrix(theta))
    pm_path = write(tmp_path, "pm.json", jsonio.encode_pm_params(
        PmParams(np.eye(2), 0.5 * np.ones((2, 4)), np.eye(4), theta)))
    errors = []
    for argv in (["factor", "--input", theta_path],
                 ["check", "--input", system_file, "--theta", theta_path],
                 ["synthesize", "--input", system_file, "--theta", theta_path],
                 ["convert", "--direction", "pm2ac", "--input", pm_path]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        errors.append(err)
    assert errors == [errors[0]] * 4
    assert errors[0].count("\n") == 1
    assert errors[0].startswith(("error: invalid commutation matrix Theta: ",
                                 "error: commutation matrix Theta is singular "))


@pytest.mark.parametrize("scale, asymmetry, want", [(1e-3, 1e-7, 2), (1e3, 1e-9, 0)])
def test_factor_and_convert_decide_like_the_library(tmp_path, capsys, scale,
                                                    asymmetry, want):
    """The asymmetry is measured against the same scale-aware bound as in
    cholesky_like and pm_to_ac: refused for a small Theta, accepted for a
    large one."""
    theta = scaled_theta(scale, asymmetry)
    params = PmParams(np.eye(2), 0.5 * np.ones((2, 4)), np.eye(4), theta)
    for library_call in (lambda: cholesky_like(theta), lambda: pm_to_ac(params)):
        if want:
            with pytest.raises(StructureError):
                library_call()
        else:
            library_call()
    theta_path = write(tmp_path, "theta.json", jsonio.encode_real_matrix(theta))
    pm_path = write(tmp_path, "pm.json", jsonio.encode_pm_params(params))
    code, _, _ = run(capsys, "factor", "--input", theta_path)
    assert code == want
    code, _, err = run(capsys, "convert", "--direction", "pm2ac", "--input", pm_path)
    assert code == want
    assert ("skew_symmetry residual" in err) == bool(want)


@pytest.mark.parametrize("argv", [
    ["factor"],
    ["convert", "--direction", "pm2ac"],
    ["spectrum"],
])
def test_tol_is_a_usage_error_where_it_gates_no_verdict(tmp_path, capsys, argv):
    path = write(tmp_path, "j.json", jsonio.encode_real_matrix(j_matrix(4)))
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", path, "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, tol, want", [
    (["check", "--input", "SYSTEM"], "1e-8", 0),
    (["check", "--input", "SYSTEM", "--theta", "J"], "1e-8", 1),
    (["check", "--input", "SYSTEM", "--theta", "J"], "4.0", 0),
    (["synthesize", "--input", "SYSTEM"], "1e-8", 0),
    (["example"], "1e-8", 0),
])
def test_tol_gates_the_verdict_commands(system_file, capsys, argv, tol, want):
    """The reference model's time-domain residuals against J are at most
    sqrt(10), so --tol 4 passes them."""
    argv = [system_file if a == "SYSTEM" else a for a in argv]
    code, _, _ = run(capsys, *argv, "--tol", tol)
    assert code == want


@pytest.mark.parametrize("command", [
    ["check", "--input", "SYSTEM"],
    ["check", "--input", "SYSTEM", "--theta", "J"],
    ["synthesize", "--input", "SYSTEM"],
    ["example"],
])
@pytest.mark.parametrize("flag, value", [
    ("--tol", "inf"), ("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"), ("--tol", "x"),
    ("--seed", "-1"), ("--seed", "1.5"),
])
def test_bad_tol_or_seed_is_a_usage_error_naming_the_flag(system_file, capsys, command,
                                                          flag, value):
    """--tol must be a finite number above 0 and --seed an integer of at least
    0: an infinite --tol would pass every system, a NaN or negative one would
    list zero residuals as violations."""
    argv = [system_file if a == "SYSTEM" else a for a in command]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert f"error: argument {flag}: expected " in capsys.readouterr().err


def test_reports_are_byte_identical_across_runs(system_file, capsys):
    _, first, _ = run(capsys, "check", "--input", system_file, "--seed", "7")
    _, second, _ = run(capsys, "check", "--input", system_file, "--seed", "7")
    assert first == second
    _, third, _ = run(capsys, "check", "--input", system_file, "--seed", "8")
    assert first != third


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "oqho", "example"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(oqho.__file__).parent.parent)),
    )
    assert proc.returncode == 0
    assert "verdict: PR" in proc.stdout


def test_synthesize_with_theta_file(system_file, tmp_path, capsys):
    theta = 2.0 * j_matrix(4)
    theta_path = write(tmp_path, "theta.json", jsonio.encode_real_matrix(theta))
    code, out, _ = run(capsys, "synthesize", "--input", system_file, "--theta", theta_path)
    assert code == 0
    assert np.array_equal(jsonio.decode_real_matrix(json.loads(out)["params"]["Theta"]), theta)


def test_synthesize_onto_a_scaled_theta_file(tmp_path, capsys):
    """A 16-state synthesis onto Theta = 1e8 J succeeds: the rebuilt system is
    verified by its similarity alone, not by absolute time-domain residuals."""
    ss = build_pm_realization(random_pm_params(8, 1, np.random.default_rng(1)))
    path = write(tmp_path, "sys.json", jsonio.encode_state_space(ss))
    theta = 1e8 * j_matrix(16)
    theta_path = write(tmp_path, "theta.json", jsonio.encode_real_matrix(theta))
    code, out, err = run(capsys, "synthesize", "--input", path, "--theta", theta_path)
    assert (code, err) == (0, "")
    assert np.array_equal(jsonio.decode_real_matrix(json.loads(out)["params"]["Theta"]), theta)


def test_check_theta_accepts_a_synthesis_onto_a_scaled_theta(tmp_path, capsys):
    """The 16-state synthesis onto Theta = 1e8 J, rebuilt, is PR against that
    Theta: every time-domain residual is relative."""
    ss = build_pm_realization(random_pm_params(8, 1, np.random.default_rng(1)))
    path = write(tmp_path, "sys.json", jsonio.encode_state_space(ss))
    theta_path = write(tmp_path, "theta.json", jsonio.encode_real_matrix(1e8 * j_matrix(16)))
    code, out, _ = run(capsys, "synthesize", "--input", path, "--theta", theta_path)
    assert code == 0
    params = jsonio.decode_synthesis_result(json.loads(out)).params
    built = write(tmp_path, "built.json",
                  jsonio.encode_state_space(build_pm_realization(params)))
    code, out, err = run(capsys, "check", "--input", built, "--theta", theta_path)
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "PR"


@pytest.mark.parametrize("flags, want, text", [
    (["--tol", "1e-20"], 1, "error: system is not physically realizable: frequency-domain"),
    (["--samples", "0"], 2, "error: --samples 0 is too small"),
    (["--samples", "3"], 2, "error: --samples 3 is too small: certification of a system "
                            "with 4 states needs at least 5 points"),
    (["--samples", "-5"], 2, "error: --samples -5 is too small"),
])
def test_example_refusal_is_an_error_and_an_exit_code(capsys, flags, want, text):
    """A refused synthesis in the example ends as in synthesize: a line on
    stderr and exit 1; a sample budget below the model's needs is a usage
    error, exit 2, as in check."""
    code, out, err = run(capsys, "example", *flags)
    assert (code, out) == (want, "")
    assert err.startswith(text) and err.count("\n") == 1


def test_synthesize_notes_a_reduced_input(tmp_path, capsys):
    ss = example_state_space()
    hidden = StateSpace(np.block([[ss.A, np.zeros((4, 2))], [np.zeros((2, 4)), -np.eye(2)]]),
                        np.vstack([ss.B, np.zeros((2, 4))]),
                        np.hstack([ss.C, np.ones((4, 2))]), ss.D)
    path = write(tmp_path, "padded.json", jsonio.encode_state_space(hidden))
    code, _, err = run(capsys, "synthesize", "--input", path)
    assert code == 0
    assert err == "note: input reduced from 6 to 4 states before synthesis\n"


def test_synthesize_draws_sample_points_once(system_file, tmp_path, capsys, monkeypatch):
    """The similarity certificate decides a synthesis, and the rebuild is
    verified through Sigma: an accepted input draws no sample point.  Only
    the frequency check that explains a refusal places them, once."""
    draws = []
    draw = realizability.draw_sample_points

    def counted(*args, **kwargs):
        draws.append(None)
        return draw(*args, **kwargs)

    monkeypatch.setattr(realizability, "draw_sample_points", counted)
    code, _, _ = run(capsys, "synthesize", "--input", system_file)
    assert (code, len(draws)) == (0, 0)
    ss = example_state_space()
    bump = np.random.default_rng(3).standard_normal(ss.A.shape)
    drifted = write(tmp_path, "drifted.json", jsonio.encode_state_space(
        StateSpace(ss.A + 0.3 * (bump + bump.T), ss.B, ss.C, ss.D)))
    code, out, _ = run(capsys, "synthesize", "--input", drifted)
    assert (code, len(draws)) == (1, 1)
    assert json.loads(out)["verdict"] == "not-PR"


@pytest.mark.parametrize("key, literal", [
    ("B", "NaN"), ("D", "NaN"), ("D", "Infinity"), ("A", "NaN"),
    ("C", "-Infinity"), ("A", "1e999"),
])
@pytest.mark.parametrize("argv", [["check"], ["check", "--theta", "J"], ["synthesize"]])
def test_non_finite_input_is_a_usage_error(tmp_path, capsys, key, literal, argv):
    payload = jsonio.encode_state_space(example_state_space())
    payload[key]["data"][0][0] = "ENTRY"
    path = tmp_path / "sys.json"
    path.write_text(jsonio.dumps(payload).replace('"ENTRY"', literal))
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path} is not valid JSON: non-finite number {literal}\n"


@pytest.mark.parametrize("literal", ["null", '"NaN"', "true"])
@pytest.mark.parametrize("argv", [["check"], ["check", "--theta", "J"], ["synthesize"]])
def test_non_number_entry_is_a_usage_error(tmp_path, capsys, literal, argv):
    payload = jsonio.encode_state_space(example_state_space())
    payload["A"]["data"][0][0] = "ENTRY"
    path = tmp_path / "sys.json"
    path.write_text(jsonio.dumps(payload).replace('"ENTRY"', literal))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--input", str(path))
    assert code == 2
    assert out == ""
    assert err == (f"error: {path}: field 'A.data' contains a non-numeric entry: "
                   "numbers must be finite JSON numbers\n")


def test_convert_refuses_a_null_entry(tmp_path, capsys):
    payload = jsonio.encode_pm_params(example_pm_params())
    payload["M"]["data"][0][0] = None
    path = write(tmp_path, "pm.json", payload)
    out_path = tmp_path / "ac.json"
    code, out, err = run(capsys, "convert", "--input", path, "--direction", "pm2ac",
                         "--output", str(out_path))
    assert code == 2
    assert out == "" and not out_path.exists()
    assert "'M.data' contains a non-numeric entry" in err


@pytest.mark.parametrize("argv, found, expected", [
    (["convert", "--direction", "pm2ac", "--input", "{ac}"], "ac_params", "pm_params"),
    (["convert", "--direction", "ac2pm", "--input", "{pm}"], "pm_params", "ac_params"),
    (["factor", "--input", "{pm}"], "pm_params", "real_matrix"),
    (["check", "--input", "{system}", "--theta", "{pm}"], "pm_params", "real_matrix"),
    (["spectrum", "--input", "{theta}"], "real_matrix",
     "state_space or rational_entries"),
])
def test_wrong_payload_kind_names_file_kind_and_expected_kinds(
        tmp_path, capsys, argv, found, expected):
    files = {
        "ac": write(tmp_path, "ac.json", jsonio.encode_ac_params(example_ac_params())),
        "pm": write(tmp_path, "pm.json", jsonio.encode_pm_params(example_pm_params())),
        "system": write(tmp_path, "sys.json",
                        jsonio.encode_state_space(example_state_space())),
        "theta": write(tmp_path, "theta.json", jsonio.encode_real_matrix(j_matrix(4))),
    }
    argv = [arg.format(**files) for arg in argv]
    code, out, err = run(capsys, *argv)
    path = files[{"ac_params": "ac", "pm_params": "pm", "real_matrix": "theta"}[found]]
    assert code == 2
    assert out == ""
    assert err == f"error: {path} holds {found}, expected {expected}\n"


@pytest.mark.parametrize("argv, bad, message", [
    (["check", "--input", "{bad_system}"], "bad_system", "field 'A.data' contains"),
    (["synthesize", "--input", "{bad_system}"], "bad_system", "field 'A.data' contains"),
    (["spectrum", "--input", "{bad_system}"], "bad_system", "field 'A.data' contains"),
    (["spectrum", "--input", "{mismatched}"], "mismatched", "D must be 4x4"),
    (["convert", "--direction", "pm2ac", "--input", "{bad_pm}"], "bad_pm",
     "field 'M.data' contains"),
    (["factor", "--input", "{bad_theta}"], "bad_theta", "field 'matrix.data' contains"),
    (["check", "--input", "{system}", "--theta", "{bad_theta}"], "bad_theta",
     "field 'theta.data' contains"),
    (["synthesize", "--input", "{system}", "--theta", "{bad_theta}"], "bad_theta",
     "field 'theta.data' contains"),
    (["check", "--input", "{system}", "--theta", "{unknown}"], "unknown",
     "unrecognized payload"),
])
def test_content_errors_name_the_bad_file_once(tmp_path, capsys, argv, bad, message):
    system = jsonio.encode_state_space(example_state_space())
    bad_system = jsonio.encode_state_space(example_state_space())
    bad_system["A"]["data"][0][0] = None
    mismatched = jsonio.encode_state_space(example_state_space())
    mismatched["D"] = jsonio.encode_real_matrix(np.eye(5, 4))
    bad_pm = jsonio.encode_pm_params(example_pm_params())
    bad_pm["M"]["data"][0][0] = None
    bad_theta = jsonio.encode_real_matrix(j_matrix(4))
    bad_theta["data"][0][0] = None
    files = {name: write(tmp_path, f"{name}.json", payload) for name, payload in (
        ("system", system), ("bad_system", bad_system), ("mismatched", mismatched),
        ("bad_pm", bad_pm), ("bad_theta", bad_theta), ("unknown", {"foo": 1}))}
    code, out, err = run(capsys, *[arg.format(**files) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {files[bad]}: {message}")
    assert err.count(str(tmp_path)) == 1


def test_zero_channel_system_is_a_usage_error(tmp_path, capsys):
    ss = StateSpace(np.diag([-1.0, 3.0]), np.zeros((2, 0)), np.zeros((0, 2)), np.zeros((0, 0)))
    path = write(tmp_path, "none.json", jsonio.encode_state_space(ss))
    for argv in (["check"], ["check", "--theta", "J"], ["synthesize"]):
        code, _, err = run(capsys, *argv, "--input", path)
        assert code == 2
        assert "at least one channel pair" in err


def test_non_quadrature_system_is_refused_alike_by_every_verdict_command(tmp_path, capsys):
    """check, check --theta J and synthesize hold a system to one contract: an
    odd state or non-square channels exit 2 with one message, and no report."""
    rng = np.random.default_rng(30)
    odd = StateSpace(-np.eye(3), rng.standard_normal((3, 2)), rng.standard_normal((2, 3)),
                     np.eye(2))
    wide = StateSpace(-np.eye(2), rng.standard_normal((2, 4)), rng.standard_normal((2, 2)),
                      rng.standard_normal((2, 4)))
    for name, ss, message in (
        ("odd", odd, "quadrature model needs even state and channel dimensions, "
                     "got state 3, channels 2"),
        ("wide", wide, "square system required, got 2x4"),
    ):
        path = write(tmp_path, f"{name}.json", jsonio.encode_state_space(ss))
        results = [run(capsys, *argv, "--input", path)
                   for argv in (["check"], ["check", "--theta", "J"], ["synthesize"])]
        assert results == [(2, "", f"error: {message}\n")] * 3, name


def test_factor_of_an_empty_matrix(tmp_path, capsys):
    path = write(tmp_path, "empty.json", jsonio.encode_real_matrix(np.zeros((0, 0))))
    code, out, err = run(capsys, "factor", "--input", path)
    assert code == 0
    assert json.loads(out)["deltas"] == []
    assert err == "reconstruction residual: 0.000e+00\n"


def test_second_call_reuses_the_parser(monkeypatch, capsys):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    run(capsys, "example")
    first = len(added)
    run(capsys, "example")
    assert first > 0
    assert len(added) == first


def test_no_state_leaks_between_calls(system_file, tmp_path, capsys):
    def check(name, *flags):
        path = tmp_path / name
        code, _, _ = run(capsys, "check", "--input", system_file, "--output", str(path),
                         *flags)
        assert code == 0
        return path.read_bytes()

    cli._build_parser.cache_clear()
    lone = check("lone.json")
    seeded = check("seeded.json", "--seed", "7", "--samples", "9")
    assert seeded != lone
    assert check("after.json") == lone


def test_calls_after_usage_errors_match_a_fresh_process(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--input", "x", "--tol", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "example", "--output", str(tmp_path / "in_process.json"))
    fresh = subprocess.run(
        [sys.executable, "-m", "oqho", "example", "--output", str(tmp_path / "fresh.json")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(oqho.__file__).parent.parent)),
    )
    assert (code, out) == (fresh.returncode, fresh.stdout)
    assert (tmp_path / "in_process.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
