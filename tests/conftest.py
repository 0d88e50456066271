import pytest

import netselect.inference as inference


@pytest.fixture(autouse=True)
def no_pool_across_tests():
    """Each test starts and ends without the process's worker pool: workers
    forked before a test's monkeypatch would run the unpatched module state,
    and a stand-in pool one test installed must not serve the next."""
    inference.shutdown_pool()
    yield
    inference.shutdown_pool()
