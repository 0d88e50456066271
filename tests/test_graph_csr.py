"""Property tests of the CSR graph constructor against a set-based oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netselect.generators as generators
from netselect import (
    GridPrior,
    Sbm,
    build_graph,
    generate_from_degrees,
    induced_subgraph,
    read_edge_list,
    sample_graph,
    sample_parameter,
    toggle_edge,
    write_edge_list,
)
from netselect.generators import _sample_pair_graph, _snapshot


@st.composite
def edge_lists(draw, max_n=24):
    """(n, edges): duplicates, both orientations and isolated nodes allowed."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    return n, draw(st.lists(pair, max_size=3 * n))


def oracle_sets(n, edges):
    sets = [set() for _ in range(n)]
    for u, v in edges:
        sets[u].add(v)
        sets[v].add(u)
    return sets


def assert_matches_oracle(g, sets):
    n = len(sets)
    assert g.node_count == n
    assert len(g.indptr) == n + 1 and g.indptr[0] == 0
    for v in range(n):
        row = g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()
        assert row == sorted(sets[v])  # sorted, no repeats, the right set
        assert v not in row
        assert all(v in sets[w] for w in row)
    np.testing.assert_array_equal(g.degrees, np.bincount(g.indices, minlength=n))
    assert g.edge_count == sum(len(s) for s in sets) // 2
    edges = sorted((u, v) for u in range(n) for v in sets[u] if u < v)
    assert list(g.edges()) == edges
    text = "".join(f"{u}\t{v}\n" for u, v in edges)
    assert write_edge_list(g) == f"# n={n}\n" + text
    assert g.adjacency == tuple(frozenset(s) for s in sets)


@settings(max_examples=150, deadline=None)
@given(edge_lists())
def test_build_graph_matches_set_oracle(case):
    n, edges = case
    g = build_graph(n, edges)
    assert_matches_oracle(g, oracle_sets(n, edges))
    for a in (g.indptr, g.indices, g.degrees):
        assert not a.flags.writeable
    assert read_edge_list(write_edge_list(g)) == g


@settings(max_examples=100, deadline=None)
@given(edge_lists(), st.data())
def test_toggle_edge_round_trips(case, data):
    n, edges = case
    if n < 2:
        return
    g = build_graph(n, edges)
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1).filter(lambda x: x != u))
    sets = oracle_sets(n, edges)
    toggled = toggle_edge(g, u, v)
    sets[u] ^= {v}
    sets[v] ^= {u}
    assert_matches_oracle(toggled, sets)
    assert toggle_edge(toggled, v, u) == g


@settings(max_examples=100, deadline=None)
@given(edge_lists(), st.data())
def test_induced_subgraph_matches_set_oracle(case, data):
    n, edges = case
    g = build_graph(n, edges)
    nodes = data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    keep = sorted(nodes)
    relabel = {v: i for i, v in enumerate(keep)}
    sub_edges = [(relabel[u], relabel[v]) for u, v in edges
                 if u in relabel and v in relabel]
    assert_matches_oracle(induced_subgraph(g, nodes),
                          oracle_sets(len(keep), sub_edges))


@settings(max_examples=100, deadline=None)
@given(edge_lists())
def test_snapshot_of_neighbour_sets_matches_build_graph(case):
    n, edges = case
    assert _snapshot(oracle_sets(n, edges)) == build_graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_configuration_model_matches_set_oracle(n, seed):
    rng = np.random.default_rng(seed)
    degrees = rng.integers(0, n, size=n)
    if degrees.sum() % 2:
        degrees[np.argmin(degrees)] += 1
    degrees = np.minimum(degrees, n - 1)
    if degrees.sum() % 2:
        return
    g = generate_from_degrees(degrees, np.random.default_rng(seed))
    stubs = np.repeat(np.arange(n), degrees)
    np.random.default_rng(seed).shuffle(stubs)
    pairs = [(u, v) for u, v in zip(stubs[0::2].tolist(), stubs[1::2].tolist())
             if u != v]
    assert_matches_oracle(g, oracle_sets(n, pairs))


def test_equality_and_hash():
    a = build_graph(4, [(0, 1), (2, 3)])
    b = build_graph(4, [(3, 2), (1, 0), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != build_graph(4, [(0, 1), (1, 2)])
    assert a != build_graph(5, [(0, 1), (2, 3)])
    assert a != "graph"


@pytest.mark.parametrize("n", [2, 3, 40, 97])
def test_chunked_pair_sampling_matches_one_shot(monkeypatch, n):
    z = np.arange(n) % 3
    mat = np.array([[0.5, 0.1, 0.2], [0.1, 0.4, 0.05], [0.2, 0.05, 0.3]])
    for pair_probs in (lambda iu, ju: 0.3, lambda iu, ju: mat[z[iu], z[ju]]):
        one_shot = _sample_pair_graph(n, pair_probs, np.random.default_rng(n))
        for chunk in (1, 7, n):
            monkeypatch.setattr(generators, "_PAIR_CHUNK", chunk)
            chunked = _sample_pair_graph(n, pair_probs, np.random.default_rng(n))
            assert chunked == one_shot
        monkeypatch.undo()


def test_cached_block_probabilities_give_the_uncached_draws(monkeypatch):
    # a gridded k changes the pair probabilities from draw to draw
    spec = Sbm(60, GridPrior((2.0, 3.0, 5.0)), p_in=0.4, p_out=0.05)
    cached = [sample_graph(spec, np.random.default_rng(s)) for s in range(8)]
    monkeypatch.setattr(generators, "_PAIR_PROB_CACHE", {})
    fresh = []
    for s in range(8):
        rng = np.random.default_rng(s)
        k = int(sample_parameter(spec.k, rng))
        mat = np.full((k, k), 0.05)
        np.fill_diagonal(mat, 0.4)
        fresh.append(generators.generate_sbm(
            60, k, generators.equal_blocks(60, k), mat, rng))
    assert cached == fresh
    assert generators._PAIR_PROB_CACHE == {}  # no key, nothing cached

