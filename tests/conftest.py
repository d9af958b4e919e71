import pytest

from fanetsim import analysis


@pytest.fixture(autouse=True)
def _cold_worst_case_cache():
    """Start and end every test with an empty worst-case progress cache, so
    no quadrature count depends on which tests ran before it."""
    analysis._worst_case_progress.cache_clear()
    yield
    analysis._worst_case_progress.cache_clear()
