import pytest
from hypothesis import settings

import mpoly

# Every property test draws the same examples on every run and machine: the
# seed comes from the test itself, and no example database is read or kept.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def default_tolerance():
    mpoly.reset_tolerance()
    yield
    mpoly.reset_tolerance()
