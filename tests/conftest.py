"""Shared helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run and keep no example file
settings.register_profile("winflow", derandomize=True, database=None, deadline=None)
settings.load_profile("winflow")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
