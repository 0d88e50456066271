import pytest

import netselect.inference as inference
from netselect import build_graph, model_spec_to_json


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


def toggle_edge(g, u, v):
    """``g`` with the pair {u, v} flipped, rebuilt by ``build_graph`` from its
    edge set: the oracle of the change-statistic tests. A self-loop or an
    out-of-range id raises as ``build_graph`` does."""
    return build_graph(g.node_count, set(g.edges()) ^ {(min(u, v), max(u, v))})


def study_config_to_json(config):
    """The study-config JSON that ``parse_study_config`` reads ``config`` back from."""
    return {
        "n_samples": config.n_samples,
        "seed": config.master_seed,
        "candidates": [{"id": c.id, "spec": model_spec_to_json(c.spec)}
                       for c in config.candidates],
        "windows": [{"param": w.param, "lo": w.lo, "hi": w.hi} for w in config.windows],
        "rows": [
            {
                "data": {"id": r.data_id, "spec": model_spec_to_json(r.data_spec)},
                "features": [k.to_json() for k in r.features],
                "losses": [l.to_json() for l in r.losses],
            }
            for r in config.rows
        ],
    }
