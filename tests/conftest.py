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


def adjacency_sets(g):
    """Neighbour sets per node, built from ``g.edges()``: the tests' set oracle."""
    sets = [set() for _ in range(g.node_count)]
    for u, v in g.edges():
        sets[u].add(v)
        sets[v].add(u)
    return sets
