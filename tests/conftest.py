"""Every test starts with every memo empty (the eigensystem, the skew form,
the parameter validation and the J templates), so that no test's results
depend on which tests ran before it."""

import pytest

from oqho import structured


@pytest.fixture(autouse=True)
def cold_memos():
    structured._clear_memos()
