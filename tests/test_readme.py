"""The README's "Numerical cutoffs" table names constants that exist with the
stated values."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def cutoff_rows():
    """(names, module, values) of each data row of the cutoffs table; a row
    may list several constants and their values, separated by ' / '."""
    section = README.read_text(encoding="utf-8").split("### Numerical cutoffs", 1)[1]
    rows = []
    for line in section.split("\n## ", 1)[0].splitlines():
        if not line.startswith("|"):
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] == "constant" or cells[0].startswith("-"):
            continue
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
