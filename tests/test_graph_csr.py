"""Property tests of the graph constructor, of the padded neighbour tables
that ``features`` builds from a graph's edge arrays and of
``connected_components`` against set-based oracles."""

import pickle
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netselect.generators as generators
from netselect import (
    GridPrior,
    PointPrior,
    PowerLaw,
    Sbm,
    build_graph,
    connected_components,
    count_triangles,
    read_edge_list,
    sample_graph,
    sample_parameter,
    sample_powerlaw_degrees,
    write_edge_list,
)
from netselect.features import _neighbour_tables
from netselect.generators import _pair_stubs, _sample_pair_graph, _snapshot
from netselect.graph import Graph, _canonical_pairs
from netselect.inference import fix_grid_point
from conftest import toggle_edge


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


def generate_from_degrees(degrees, rng):
    """The erased configuration model spelled out: shuffle the stubs, pair
    them in order, and hand the pairs that are not self-loops to
    ``build_graph``. The oracle of the power-law generator's stub pairing."""
    stubs = np.repeat(np.arange(len(degrees)), degrees)
    rng.shuffle(stubs)
    return build_graph(len(degrees), [(u, v) for u, v in zip(stubs[0::2].tolist(),
                                                             stubs[1::2].tolist()) if u != v])


def table_columns(g):
    """Per node, the node ids its neighbour-table column holds, in table
    order (own id, neighbours, padding), or None for a node with no column;
    checks that the positions and the positional edges map back to the graph."""
    nodes, lo, hi, blocks = _neighbour_tables(g)
    np.testing.assert_array_equal(nodes[lo], g.lo)
    np.testing.assert_array_equal(nodes[hi], g.hi)
    columns = [None] * g.node_count
    for first, last, table in blocks:
        for i in range(last - first):
            assert columns[nodes[first + i]] is None  # one column per position
            columns[nodes[first + i]] = nodes[table[:, i]].tolist()
    return columns


def assert_columns_match(g, sets):
    """A node of degree 0 has no column; any other node v's column holds v,
    then each member of N(v) once, then v again up to the block's widest."""
    for v, column in enumerate(table_columns(g)):
        if not sets[v]:
            assert column is None
            continue
        deg = len(sets[v])
        assert column[0] == v and set(column[deg + 1:]) <= {v}
        assert sorted(column[1:deg + 1]) == sorted(sets[v])


def assert_matches_oracle(g, sets):
    n = len(sets)
    assert g.node_count == n
    assert_columns_match(g, sets)
    np.testing.assert_array_equal(g.degrees, [len(s) for s in sets])
    assert g.edge_count == sum(len(s) for s in sets) // 2
    edges = sorted((u, v) for u in range(n) for v in sets[u] if u < v)
    assert list(g.edges()) == edges
    text = "".join(f"{u}\t{v}\n" for u, v in edges)
    assert write_edge_list(g) == f"# n={n}\n" + text


@settings(max_examples=150, deadline=None)
@given(edge_lists())
def test_build_graph_matches_set_oracle(case):
    n, edges = case
    g = build_graph(n, edges)
    assert_matches_oracle(g, oracle_sets(n, edges))
    for a in (g.lo, g.hi, g.degrees):
        assert not a.flags.writeable
    assert read_edge_list(write_edge_list(g)) == g


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129])
def test_closed_and_open_rows_match_the_edge_list(n):
    """Table columns and ``has_edge`` on ids that cross 64-bit word
    boundaries; the top quarter of the ids and any node no pair touches stay
    isolated, so they get no column and the others' positions shift."""
    pairs = np.random.default_rng(n).integers(0, max(1, n - n // 4), size=(n, 2)).tolist()
    edges = [(u, v) for u, v in pairs if u != v]
    sets = oracle_sets(n, edges)
    g = build_graph(n, edges)
    assert any(not s for s in sets) or n == 0
    assert_columns_match(g, sets)
    for v in range(n):
        assert [g.has_edge(v, u) for u in range(n)] == [u in sets[v] for u in range(n)]


def union_find_components(n, edges):
    """Components by union-find: sorted node lists, ordered by smallest member."""
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        parent[root(u)] = root(v)
    groups = {}
    for v in range(n):
        groups.setdefault(root(v), []).append(v)
    return sorted(groups.values())


@settings(max_examples=150, deadline=None)
@given(edge_lists(max_n=40))
def test_connected_components_match_union_find(case):
    """Isolated nodes are components of their own; a graph of no nodes has none."""
    n, edges = case
    assert connected_components(build_graph(n, edges)) == union_find_components(n, edges)


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
@given(edge_lists(max_n=140))  # rows cross byte and 64-bit word boundaries
def test_snapshot_of_neighbour_sets_matches_build_graph(case):
    n, edges = case
    rows = [sum(1 << v for v in s) for s in oracle_sets(n, edges)]
    assert _snapshot(rows) == build_graph(n, edges)


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
    g = _pair_stubs(degrees, np.random.default_rng(seed))
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


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 80), st.sampled_from([1, 7, 64, generators._PAIR_CHUNK]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_pair_draws_equal_one_uniform_call_over_the_triangle(n, chunk, blocked, seed):
    """A pair draw in any blocking keeps exactly the pairs of
    ``np.triu_indices(n, 1)`` whose uniform, from one ``rng.random`` call,
    falls below their probability: a scalar p, or a random symmetric block
    matrix over random labels."""
    setup = np.random.default_rng(seed ^ 0x5EED)
    k = int(setup.integers(1, 5))
    upper = np.triu(setup.random((k, k)))
    mat = upper + np.triu(upper, 1).T
    z = setup.integers(k, size=n)
    p = float(setup.random())
    pair_probs = (lambda iu, ju: mat[z[iu], z[ju]]) if blocked else (lambda iu, ju: p)
    iu, ju = np.triu_indices(n, 1)
    reference = np.random.default_rng(seed)
    keep = reference.random(len(iu)) < pair_probs(iu, ju)
    rng = np.random.default_rng(seed)
    with mock.patch.object(generators, "_PAIR_CHUNK", chunk):
        g = _sample_pair_graph(n, pair_probs, rng)
        blocks = [len(rows) for rows, _ in generators._pair_blocks(n)]
    assert g == Graph(n, iu[keep], ju[keep])
    assert max(blocks) <= max(chunk, n - 1)  # whole rows, within the chunk
    assert rng.bit_generator.state == reference.bit_generator.state


def test_chunked_block_draws_match_one_shot_and_cache_nothing(monkeypatch):
    spec = Sbm(40, 3, p_in=0.4, p_out=0.05)
    one_shot = [sample_graph(spec, np.random.default_rng(s)) for s in range(3)]
    monkeypatch.setattr(generators, "_PAIR_CHUNK", 7)
    monkeypatch.setattr(generators, "_PAIR_PROB_CACHE", {})
    assert [sample_graph(spec, np.random.default_rng(s)) for s in range(3)] == one_shot
    assert generators._PAIR_PROB_CACHE == {}


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
        z = generators.equal_blocks(60, k)
        fresh.append(_sample_pair_graph(60, lambda iu, ju: mat[z[iu], z[ju]], rng))
    assert cached == fresh
    assert generators._PAIR_PROB_CACHE == {}  # no key, nothing cached



@st.composite
def fixed_block_specs(draw):
    """(spec, k, labels, k x k matrix): an SBM with a fixed membership, given
    as equal blocks, explicit labels or an explicit matrix."""
    n = draw(st.integers(2, 40))
    k = draw(st.integers(1, min(n, 5)))
    shape = draw(st.sampled_from(["equal", "labels", "matrix"]))
    p = st.floats(0.0, 1.0)
    if shape == "matrix":
        upper = {(a, b): draw(p) for a in range(k) for b in range(a, k)}
        mat = np.array([[upper[min(a, b), max(a, b)] for b in range(k)] for a in range(k)])
        return Sbm(n, k, edge_probs=tuple(map(tuple, mat))), k, generators.equal_blocks(n, k), mat
    p_in, p_out = draw(p), draw(p)
    mat = np.full((k, k), p_out)
    np.fill_diagonal(mat, p_in)
    if shape == "equal":
        return Sbm(n, k, p_in=p_in, p_out=p_out), k, generators.equal_blocks(n, k), mat
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return (Sbm(n, k, p_in=p_in, p_out=p_out, membership=tuple(labels)), k,
            np.array(labels), mat)


@settings(max_examples=60, deadline=None)
@given(fixed_block_specs(), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
def test_cache_hit_block_draws_equal_uncached_and_pair_graph_draws(case, seeds):
    spec, k, labels, mat = case
    hits = [sample_graph(spec, np.random.default_rng(s)) for s in seeds + seeds]
    uncached = []
    for s in seeds + seeds:
        generators._PAIR_PROB_CACHE.clear()
        uncached.append(sample_graph(spec, np.random.default_rng(s)))
    direct = [_sample_pair_graph(spec.n, lambda iu, ju: mat[labels[iu], labels[ju]],
                                 np.random.default_rng(s))
              for s in seeds + seeds]
    assert hits == uncached == direct


def test_a_twelve_point_block_grid_computes_each_points_probabilities_once(monkeypatch):
    # more grid points than the cache once held before it was cleared whole
    monkeypatch.setattr(generators, "_PAIR_PROB_CACHE", {})
    computed = Counter()
    remember = generators._remember

    def counting(cache, key, value):
        if cache is generators._PAIR_PROB_CACHE:
            computed[key[1]] += 1
        return remember(cache, key, value)

    monkeypatch.setattr(generators, "_remember", counting)
    grid = Sbm(200, GridPrior(tuple(float(k) for k in range(2, 14))), p_in=0.1, p_out=0.01)
    points = [fix_grid_point(grid, "k", k) for k in grid.k.values]
    for seed in range(20):
        for point in points:
            sample_graph(point, np.random.default_rng(seed))
    assert computed == {k: 1 for k in range(2, 14)}


def test_a_four_point_block_grid_at_n_1000_computes_each_points_probabilities_once(
        monkeypatch):
    monkeypatch.setattr(generators, "_PAIR_PROB_CACHE", {})
    computed = Counter()
    remember = generators._remember

    def counting(cache, key, value):
        if cache is generators._PAIR_PROB_CACHE:
            computed[key[1]] += 1
        return remember(cache, key, value)

    monkeypatch.setattr(generators, "_remember", counting)
    grid = Sbm(1000, GridPrior((2.0, 3.0, 4.0, 5.0)), p_in=0.01, p_out=0.001)
    points = [fix_grid_point(grid, "k", k) for k in grid.k.values]
    for seed in range(3):
        for point in points:
            sample_graph(point, np.random.default_rng(seed))
    assert computed == {k: 1 for k in range(2, 6)}


def test_the_pair_cache_holds_nine_probability_vectors_at_the_largest_one_shot_n(
        monkeypatch):
    monkeypatch.setattr(generators, "_PAIR_PROB_CACHE", {})
    largest = np.broadcast_to(0.5, generators._PAIR_CHUNK)  # full nbytes, no memory
    for key in range(10):
        generators._remember(generators._PAIR_PROB_CACHE, key, largest)
    assert list(generators._PAIR_PROB_CACHE) == list(range(1, 10))


def test_the_pair_cache_drops_its_least_recently_used_entries_first(monkeypatch):
    monkeypatch.setattr(generators, "_PAIR_PROB_CACHE", {})
    entry = 8 * (20 * 19 // 2)  # the probabilities of all pairs at n=20
    monkeypatch.setattr(generators, "_CACHE_BYTES", 2 * entry)
    specs = {k: Sbm(20, k, p_in=0.5, p_out=0.1) for k in (2, 3, 4)}
    for k in (2, 3, 2, 4):  # the second draw at k=2 makes k=3 the oldest
        sample_graph(specs[k], np.random.default_rng(k))
    assert list(generators._PAIR_PROB_CACHE) == [(specs[2], 2), (specs[4], 4)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 80), st.floats(2.05, 4.0), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_power_law_draws_pair_stubs_as_generate_from_degrees(n, alpha, d_min, seed):
    rng = np.random.default_rng(seed)
    degrees = sample_powerlaw_degrees(n, alpha, d_min, rng)
    checked = np.random.default_rng()
    checked.bit_generator.state = rng.bit_generator.state
    g = _pair_stubs(degrees, rng)
    assert g == generate_from_degrees(degrees, checked)
    assert rng.bit_generator.state == checked.bit_generator.state
    spec = PowerLaw(n, PointPrior(alpha), d_min)
    assert sample_graph(spec, np.random.default_rng(seed)) == g


class _Uniforms:
    """A stand-in generator whose ``random(n)`` returns fixed uniforms and
    whose ``integers(k)`` returns 0 (the parity fix takes the first entry)."""

    def __init__(self, u):
        self.u = np.array(u, dtype=float)

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()

    def integers(self, k):
        return 0


@st.composite
def boundary_uniforms(draw):
    """(n, alpha, d_min, uniforms): 0.0, arbitrary values, and the uniforms at
    which d_min * u^(-1/(alpha-1)) crosses an integer, one ulp either side."""
    n = draw(st.integers(1, 60))
    alpha = draw(st.floats(2.01, 6.0))
    d_min = draw(st.integers(1, 3))
    crossing = st.builds(lambda j, side: float(np.nextafter(
        (j / d_min) ** (1.0 - alpha), side)), st.integers(d_min, 3 * n + 3),
        st.sampled_from([0.0, 1.0]))
    exact = st.integers(d_min, 3 * n + 3).map(lambda j: (j / d_min) ** (1.0 - alpha))
    u = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True),
                                crossing, exact).filter(lambda x: 0.0 <= x < 1.0),
                      min_size=n, max_size=n))
    return n, alpha, d_min, u


@settings(max_examples=200, deadline=None)
@given(boundary_uniforms())
def test_power_law_degrees_equal_floor_then_clamp(case):
    """The truncating cast after the clamp equals the floor before it,
    including a zero uniform (an infinite raw degree) and integer crossings."""
    n, alpha, d_min, u = case
    with np.errstate(divide="ignore", over="ignore"):
        raw = np.floor(d_min * np.array(u) ** (-1.0 / (alpha - 1.0)))
    expected = np.minimum(n - 1, raw).astype(np.int64)
    if expected.sum() % 2 == 1:
        expected[np.flatnonzero(expected < n - 1)[0]] += 1
    with np.errstate(divide="ignore", over="ignore"):
        degrees = sample_powerlaw_degrees(n, alpha, d_min, _Uniforms(u))
    assert degrees.dtype == np.int64
    assert degrees.tolist() == expected.tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 30).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60)
    if n else st.just([]))))
def test_canonical_pairs_equal_the_unique_oracle(case):
    """Empty input, self-loops (all of them, or some) and repeated pairs in
    either orientation: the distinct non-loop pairs, row-major."""
    n, pairs = case
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = np.unique((lo * n + hi)[lo != hi])
    got = _canonical_pairs(n, u, v)
    for a, b in zip(got, np.divmod(keys, max(n, 1))):
        assert a.dtype == np.int64 and a.tolist() == b.tolist()


def test_canonical_pairs_of_only_self_loops_are_empty():
    u = np.array([3, 3, 0, 7], dtype=np.int64)
    assert [a.tolist() for a in _canonical_pairs(8, u, u.copy())] == [[], []]


def test_pickle_carries_only_the_edge_arrays_and_every_array_is_read_only():
    g = sample_graph(Sbm(40, 2, p_in=0.4, p_out=0.05), np.random.default_rng(2))
    count_triangles(g)  # memoizes the count
    assert g.__reduce__() == (type(g), (g.node_count, g.lo, g.hi))
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy._triangles is None
    assert count_triangles(copy) == count_triangles(g)
    for graph in (g, copy):
        for a in (graph.lo, graph.hi, graph.degrees):
            assert not a.flags.writeable
