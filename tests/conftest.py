"""Fixtures shared across test modules."""

import pytest

from gapsieve.oracle import exact_Y


@pytest.fixture(scope="session")
def exact_Y_23():
    """exact_Y(23), the largest exhaustive search: computed once per run."""
    return exact_Y(23)
