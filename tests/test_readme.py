"""The README agrees with the code: the quick-start block runs and prints
what its comments say, the "Numerical cutoffs" table names constants that
exist with the stated values, and the "File formats" table lists the fields
that ``jsonio`` recognizes each payload kind by, and the names it lists as
removed are gone."""

import importlib
import pkgutil
import re
from pathlib import Path

import oqho
from oqho import jsonio
from oqho.realizability import REBUILD_TOLERANCE

README = Path(__file__).resolve().parent.parent / "README.md"


def table_rows(heading):
    """The cells of each data row of the first table under ``heading``."""
    section = README.read_text(encoding="utf-8").split(heading + "\n", 1)[1]
    rows = []
    for line in section.split("\n## ", 1)[0].split("\n### ", 1)[0].splitlines():
        if not line.startswith("|"):
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if not cells[0].startswith("-"):
            rows.append(cells)
    return rows[1:]  # the header row


def cutoff_rows():
    """(names, module, values) of each data row of the cutoffs table; a row
    may list several constants and their values, separated by ' / '."""
    rows = []
    for cells in table_rows("### Numerical cutoffs"):
        names = re.findall(r"`(\w+)`", cells[0])
        values = [float(v) for v in re.findall(r"`([^`]+)`", cells[2])]
        rows.append((names, cells[1].strip("`"), values))
    return rows


def test_cutoffs_table_matches_the_constants():
    rows = cutoff_rows()
    assert len(rows) >= 8
    for names, module, values in rows:
        home = importlib.import_module(f"oqho.{module}")
        assert len(names) == len(values), names
        for name, value in zip(names, values):
            assert getattr(home, name) == value, (module, name)


def test_file_formats_table_matches_the_fingerprints():
    table = {}
    for cells in table_rows("### File formats"):
        (kind,) = re.findall(r"`(\w+)`", cells[0])
        table[kind] = set(re.findall(r"`(\w+)`", cells[1]))
    assert table == jsonio._FINGERPRINTS


def test_quick_start_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README quick start", "exec"), {})
    verdict, _, deviation = capsys.readouterr().out.splitlines()
    assert verdict == "PR"
    assert float(deviation) < REBUILD_TOLERANCE


def removed_names():
    """The names of README's list of removed public names: its backquoted
    names outside parentheses, which hold what to use instead."""
    text = README.read_text(encoding="utf-8")
    paragraph = text.split(" public names that ", 1)[1].split("\n\n", 1)[0]
    while (bare := re.sub(r"\([^()]*\)", "", paragraph)) != paragraph:
        paragraph = bare
    return re.findall(r"`(\w+)`", paragraph)


def test_removed_names_are_gone():
    names = removed_names()
    assert len(names) == 13 and {"murnaghan", "ito_matrix"} <= set(names)
    modules = [importlib.import_module(f"oqho.{info.name}")
               for info in pkgutil.iter_modules(oqho.__path__)]
    listed = {name for module in modules for name in getattr(module, "__all__", ())}
    for name in names:
        assert not hasattr(oqho, name), name
        assert name not in listed, name
