"""Shared test fixtures."""

import pytest

from moikit import spectral


@pytest.fixture(autouse=True)
def empty_decomposition_cache():
    """Start every test with no cached decomposition, so a test that patches
    the eigensolver sees it called and no test reads another's results."""
    spectral._decompositions.clear()
    yield
    spectral._decompositions.clear()
