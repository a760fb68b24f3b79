"""``scripts/cli_golden.py --compare`` tells moved numbers from changed text.

Each test writes two small recorded trees, in the layout the golden run
writes (``outputs/*.json`` and ``calls/*.txt``), and compares them."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parents[1] / "scripts" / "cli_golden.py"

CALL = "argv: check --input inputs/pr.json\nexit: {exit}\n--- stdout\n--- stderr\n{err}"


def load_golden():
    spec = importlib.util.spec_from_file_location("cli_golden", GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(root: Path, residual=1.5e-12, exit_code=0, reason=None,
           err="note: 4 states\n") -> Path:
    """A one-call tree: the report in outputs/, the call record in calls/."""
    (root / "outputs").mkdir(parents=True)
    (root / "calls").mkdir()
    report = {"verdict": "PR", "jj_unitarity_max_residual": residual,
              "sample_points": [{"re": 0.5, "im": -2.0}], "failure_reason": reason}
    (root / "outputs" / "pr.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    (root / "calls" / "pr.txt").write_text(CALL.format(exit=exit_code, err=err))
    return root


def compare(capsys, old: Path, new: Path):
    code = load_golden().main(["--compare", str(old), str(new)])
    return code, capsys.readouterr().out


def test_identical_trees_do_not_differ(tmp_path, capsys):
    code, out = compare(capsys, record(tmp_path / "a"), record(tmp_path / "b"))
    assert code == 0
    assert out == "2 files in both trees, 0 differ\n"


def test_a_moved_number_is_listed_under_its_field(tmp_path, capsys):
    code, out = compare(capsys, record(tmp_path / "a"),
                        record(tmp_path / "b", residual=1.6e-12, err="note: 5 states\n"))
    assert code == 0
    assert out.startswith("2 files in both trees, 2 differ\n")
    assert "  jj_unitarity_max_residual: 1e-13, 0.0667, 1 files" in out
    assert "  text: note:: 1, 0.25, 1 files" in out
    assert "DIFFERS" not in out


@pytest.mark.parametrize("change, listed", [
    ({"reason": "drift"}, "DIFFERS outputs/pr.json: failure_reason: None -> 'drift'"),
    ({"err": "error: 4 states\n"}, "DIFFERS calls/pr.txt: 'note: 4 states' -> 'error: 4 states'"),
    ({"exit_code": 1}, "DIFFERS calls/pr.txt: 'exit: 0' -> 'exit: 1'"),
])
def test_changed_text_or_exit_code_differs(tmp_path, capsys, change, listed):
    code, out = compare(capsys, record(tmp_path / "a"), record(tmp_path / "b", **change))
    assert code == 1
    assert listed in out.splitlines()


def test_a_file_in_one_tree_only_differs(tmp_path, capsys):
    old, new = record(tmp_path / "a"), record(tmp_path / "b")
    (new / "calls" / "extra.txt").write_text(CALL.format(exit=0, err=""))
    code, out = compare(capsys, old, new)
    assert code == 1
    assert f"DIFFERS only in {new}: {Path('calls', 'extra.txt')}" in out.splitlines()
