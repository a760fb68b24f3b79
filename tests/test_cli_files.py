"""Every file the CLI writes loads with ``load_path``, decodes as its format
and re-encodes to the same bytes."""

import numpy as np
import pytest

from oqho import jsonio
from oqho.cli import main
from oqho.forms import build_pm_realization, pm_to_ac
from oqho.sampling import random_pm_params
from oqho.worked_example import example_pm_params

# CLI call (input files by name) -> payload kind of the file it writes
CALLS = {
    "check": (["check", "--input", "{system}"], "pr_report"),
    "check_theta": (["check", "--input", "{system}", "--theta", "{theta}"], "pr_report"),
    "synthesize": (["synthesize", "--input", "{system}"], "synthesis_result"),
    "synthesize_theta": (["synthesize", "--input", "{system}", "--theta", "{theta}"],
                         "synthesis_result"),
    "pm2ac": (["convert", "--direction", "pm2ac", "--input", "{pm}"], "ac_params"),
    "ac2pm": (["convert", "--direction", "ac2pm", "--input", "{ac}"], "pm_params"),
    "spectrum": (["spectrum", "--input", "{system}"], "spectrum_report"),
    "factor": (["factor", "--input", "{theta}"], "skew_factorization"),
}
MODELS = {
    "reference": example_pm_params,
    "seeded": lambda: random_pm_params(2, 2, np.random.default_rng(11)),
}


def reencoded(payload, kind) -> dict:
    decoded = getattr(jsonio, f"decode_{kind}")(payload)
    return getattr(jsonio, f"encode_{kind}")(decoded)


def write(path, payload) -> str:
    path.write_text(jsonio.dumps(payload))
    return str(path)


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("call", sorted(CALLS))
def test_output_file_round_trips(tmp_path, capsys, model, call):
    params = MODELS[model]()
    files = {
        "system": write(tmp_path / "system.json",
                        jsonio.encode_state_space(build_pm_realization(params))),
        "theta": write(tmp_path / "theta.json", jsonio.encode_real_matrix(params.Theta)),
        "pm": write(tmp_path / "pm.json", jsonio.encode_pm_params(params)),
        "ac": write(tmp_path / "ac.json", jsonio.encode_ac_params(pm_to_ac(params))),
    }
    argv, kind = CALLS[call]
    out = tmp_path / "out.json"
    assert main([arg.format(**files) for arg in argv] + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert jsonio.dumps(reencoded(jsonio.load_path(str(out)), kind)) == out.read_text()


def test_example_output_round_trips(tmp_path, capsys):
    out = tmp_path / "example.json"
    assert main(["example", "--output", str(out)]) == 0
    capsys.readouterr()
    payload = jsonio.load_path(str(out))
    sections = {"check": "pr_report", "spectrum": "spectrum_report",
                "synthesis": "synthesis_result", "pm_params": "pm_params",
                "ac_params": "ac_params"}
    assert set(payload) == set(sections) | {"deviations"}
    for key, kind in sections.items():
        payload[key] = reencoded(payload[key], kind)
    assert jsonio.dumps(payload) == out.read_text()
