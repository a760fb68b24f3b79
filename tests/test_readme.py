"""The README's tables agree with the code: the "Numerical cutoffs" table
names constants that exist with the stated values, and the "File formats"
table lists the fields that ``jsonio`` recognizes each payload kind by."""

import importlib
import re
from pathlib import Path

from oqho import jsonio

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
