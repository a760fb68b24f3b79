"""Every test starts with an empty eigensystem memo, so that no test's
decompositions depend on which tests ran before it."""

import pytest

from oqho import statespace


@pytest.fixture(autouse=True)
def cold_eigensystem_memo():
    statespace._decompose.cache_clear()
