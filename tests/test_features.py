import itertools
import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netselect import (
    FeatureKind,
    InvalidSpec,
    UndefinedFeature,
    build_graph,
    count_triangles,
    degree_entropy,
    diameter,
    estimate_block_count,
    extract_feature,
    generate_er,
    global_clustering,
    link_density,
    power_law_mle,
    sample_graph,
    shortest_path_distances,
)
from netselect import PointPrior, PowerLaw, Sbm, features
from netselect.features import bethe_hessian
from test_graph_csr import assert_columns_match, oracle_sets


def k_complete(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n):
    return build_graph(n, [(0, i) for i in range(1, n)])


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


# --------------------------------------------------------------------------
# Dispatcher
# --------------------------------------------------------------------------

def test_extract_density_of_complete_graph():
    assert extract_feature(k_complete(3), FeatureKind("link_density")) == 1.0


def test_extract_triangles_of_k3():
    value = extract_feature(k_complete(3), FeatureKind("triangle_count"))
    assert value == 1 and isinstance(value, int)


def test_extract_entropy_of_path():
    value = extract_feature(path_graph(3), FeatureKind("degree_entropy"))
    assert value == pytest.approx(0.6365, abs=1e-4)


def test_extract_unknown_kind_rejected():
    with pytest.raises(InvalidSpec):
        FeatureKind("betweenness")


def test_feature_kind_json_round_trip():
    kinds = [FeatureKind("degree_entropy"),
             FeatureKind("power_law_exponent", d_min=2),
             FeatureKind("block_count", k_max=8)]
    for kind in kinds:
        assert FeatureKind.from_json(kind.to_json()) == kind


def test_a_kind_holds_the_default_of_the_parameter_it_ignores():
    same = [FeatureKind("triangle_count"), FeatureKind("triangle_count", d_min=4, k_max=3)]
    assert same[0] == same[1] and hash(same[0]) == hash(same[1])
    assert same[0].to_json() == same[1].to_json() == {"kind": "triangle_count"}
    assert FeatureKind("block_count", d_min=4, k_max=3) == FeatureKind("block_count", k_max=3)
    assert FeatureKind("power_law_exponent", 2, 3) != FeatureKind("power_law_exponent", 3, 3)


# --------------------------------------------------------------------------
# Degree entropy
# --------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 60), min_size=1, max_size=120))
def test_degree_entropy_equals_the_unique_count_formula_bit_for_bit(degrees):
    # The counts of np.bincount with zeros dropped come in the ascending order
    # of np.unique's, so the float is the same to the last bit.
    g = SimpleNamespace(node_count=len(degrees), degrees=np.asarray(degrees, dtype=np.int64))
    _, counts = np.unique(g.degrees, return_counts=True)
    p = counts / g.node_count
    expected = 0.0 if len(counts) == 1 else float(-np.sum(p * np.log(p)))
    assert degree_entropy(g).hex() == expected.hex()


def test_entropy_of_regular_graphs_is_exactly_zero():
    for g in (k_complete(4), cycle_graph(5), build_graph(3, [])):
        assert degree_entropy(g) == 0.0


def test_entropy_of_path():
    expected = math.log(3) - (2 / 3) * math.log(2)
    assert degree_entropy(path_graph(3)) == pytest.approx(expected, rel=1e-12)


def test_entropy_of_star():
    expected = math.log(4) - (3 / 4) * math.log(3)
    assert degree_entropy(star_graph(4)) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.5623, abs=1e-4)


def test_entropy_bounds_and_regularity():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 15))
        g = random_graph(n, rng.random(), rng)
        h = degree_entropy(g)
        assert 0.0 <= h <= math.log(max(n, 2)) + 1e-12
        degrees = g.degrees.tolist()
        if len(set(degrees)) == 1:
            assert h == 0.0
        else:
            assert h > 0.0


# --------------------------------------------------------------------------
# Power-law exponent
# --------------------------------------------------------------------------

def test_mle_closed_form():
    assert power_law_mle([1, 2, 4], 1) == pytest.approx(1 + 3 / (6 * math.log(2)))
    assert power_law_mle([1, 2, 4], 1) == pytest.approx(1.7213, abs=1e-4)


def test_mle_all_values_at_dmin():
    g = build_graph(2, [(0, 1)])  # both degrees equal d_min = 1
    assert extract_feature(g, FeatureKind("power_law_exponent", d_min=1)) == pytest.approx(
        1 + 1 / math.log(2))


def test_mle_undefined_on_empty_graph():
    with pytest.raises(UndefinedFeature):
        extract_feature(build_graph(3, []), FeatureKind("power_law_exponent", d_min=1))


def _mle_of_float_cast(values, d_min):
    """The exponent as computed from the values cast to float first; None if
    no value reaches d_min."""
    values = np.asarray(values, dtype=float)
    included = values[values >= d_min]
    if len(included) == 0:
        return None
    return float(1.0 + len(included) / np.sum(np.log(included / (d_min - 0.5))))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 400), max_size=250), st.integers(1, 8))
def test_mle_on_integer_degrees_is_bit_equal_to_the_float_cast_formula(values, d_min):
    degrees = np.asarray(values, dtype=np.int64)
    want = _mle_of_float_cast(degrees, d_min)
    if want is None:
        with pytest.raises(UndefinedFeature):
            power_law_mle(degrees, d_min)
    else:
        assert power_law_mle(degrees, d_min) == want  # exact, not approx


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_mle_on_float_values_computes_in_float64(dtype):
    values = np.array([1.0, 2.0, 3.0, 4.5, 7.25, 11.0], dtype=dtype)
    for d_min in (1, 3):
        assert power_law_mle(values, d_min) == _mle_of_float_cast(values, d_min)


def test_mle_scale_consistency_on_zeta_tails():
    # Discrete power-law (Zipf) samples conditioned on >= 6, where the
    # d_min - 0.5 correction is accurate.
    rng = np.random.default_rng(2024)
    for alpha in (2.5, 3.0, 3.5):
        draws = rng.zipf(alpha, size=4_000_000)
        kept = draws[draws >= 6][:10 ** 4]
        assert len(kept) == 10 ** 4
        assert abs(power_law_mle(kept, 6) - alpha) < 0.1


# --------------------------------------------------------------------------
# Block count
# --------------------------------------------------------------------------

def test_block_count_two_cliques():
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    edges += [(u, v) for u in range(10, 20) for v in range(u + 1, 20)]
    g = build_graph(20, edges)
    assert estimate_block_count(g, 6) == 2


def test_block_count_inertia_matches_eigendecomposition():
    rng = np.random.default_rng(8)
    from netselect.features import _negative_inertia
    for _ in range(25):
        g = random_graph(int(rng.integers(4, 30)), rng.uniform(0.05, 0.6), rng)
        degrees = g.degrees.astype(float)
        two_m = degrees.sum()
        if two_m == 0:
            continue
        excess = (degrees * degrees).sum() / two_m - 1.0
        if excess <= 0:
            continue
        h = bethe_hessian(g, math.sqrt(excess))
        assert _negative_inertia(h) == int(np.sum(np.linalg.eigvalsh(h) < -1e-10))


def _inertia_by_pivot_walk(ldu, ipiv):
    """Negative eigenvalues of the block-diagonal LDL^T factor, one block at a time."""
    neg, i = 0, 0
    while i < len(ipiv):
        if ipiv[i] > 0:  # 1x1 pivot block
            neg += ldu[i, i] < 0.0
            i += 1
        else:  # 2x2 pivot block on rows i, i+1
            a11, a22, a21 = ldu[i, i], ldu[i + 1, i + 1], ldu[i + 1, i]
            det = a11 * a22 - a21 * a21
            if det < 0.0:
                neg += 1
            elif a11 + a22 < 0.0:
                neg += 2
            i += 2
    return int(neg)


def test_negative_inertia_matches_eigenvalue_count_with_2x2_pivots():
    import scipy.linalg
    from netselect.features import _negative_inertia
    rng = np.random.default_rng(12)
    cases = []
    for _ in range(40):  # symmetric indefinite, small diagonal: 2x2 pivots are common
        n = int(rng.integers(1, 25))
        a = rng.normal(size=(n, n))
        h = a + a.T
        h[np.diag_indices(n)] *= rng.choice([0.0, 0.05, 1.0])
        cases += [h, np.round(h)]  # rounding adds exact zeros and ties
    for _ in range(20):
        g = random_graph(int(rng.integers(4, 40)), rng.uniform(0.05, 0.6), rng)
        cases.append(bethe_hessian(g, rng.uniform(0.5, 3.0)))
    two_by_two = 0
    for h in cases:
        ldu, ipiv, _ = scipy.linalg.lapack.dsytrf(h, lower=1)
        two_by_two += bool((ipiv < 0).any())
        assert _negative_inertia(h) == _inertia_by_pivot_walk(ldu, ipiv)
        eig = np.linalg.eigvalsh(h)
        if np.min(np.abs(eig), initial=1.0) > 1e-8:  # else no reliable sign
            assert _negative_inertia(h) == int((eig < 0).sum())
    assert two_by_two >= 10


def test_bethe_hessian_matches_definition():
    rng = np.random.default_rng(10)
    for n in (1, 7, 65):
        g = random_graph(n, 0.2, rng)
        a = np.array([[float(g.has_edge(u, v)) for v in range(n)] for u in range(n)])
        expected = (1.5 ** 2 - 1.0) * np.eye(n) - 1.5 * a + np.diag(a.sum(axis=1))
        assert np.array_equal(bethe_hessian(g, 1.5), expected)


def test_block_count_never_exceeds_kmax():
    rng = np.random.default_rng(9)
    for _ in range(20):
        g = random_graph(int(rng.integers(2, 25)), rng.random(), rng)
        k_max = int(rng.integers(1, 8))
        assert 1 <= estimate_block_count(g, k_max) <= k_max


def test_block_count_recovers_planted_partition():
    planted = Sbm(200, 4, edge_probs=tuple(map(tuple, np.full((4, 4), 0.01) + np.eye(4) * 0.49)))
    hits = 0
    for seed in range(20):
        g = sample_graph(planted, np.random.default_rng(seed))
        hits += estimate_block_count(g, 8) == 4
    assert hits >= 19


def test_block_count_reads_er_as_one_block():
    hits = 0
    for seed in range(30):
        g = generate_er(100, 0.3, np.random.default_rng(seed))
        hits += estimate_block_count(g, 8) == 1
    assert hits >= 27  # >= 90%


def test_block_count_edge_cases():
    assert estimate_block_count(build_graph(5, []), 4) == 1
    assert estimate_block_count(build_graph(4, [(0, 1), (2, 3)]), 4) == 1
    with pytest.raises(UndefinedFeature):
        estimate_block_count(build_graph(1, []), 4)


# --------------------------------------------------------------------------
# Triangles, diameter, density and clustering
# --------------------------------------------------------------------------

def brute_force_triangles(g):
    edges = set(g.edges())  # (u, v) with u < v, as combinations yields them
    return sum(
        1 for a, b, c in itertools.combinations(range(g.node_count), 3)
        if (a, b) in edges and (a, c) in edges and (b, c) in edges)


def test_triangles_k4():
    assert count_triangles(k_complete(4)) == 4
    assert brute_force_triangles(k_complete(4)) == 4


def test_triangles_trees_and_cycles():
    assert count_triangles(star_graph(6)) == 0
    assert count_triangles(path_graph(5)) == 0
    assert count_triangles(cycle_graph(5)) == 0


def test_triangles_match_brute_force():
    rng = np.random.default_rng(12)
    for _ in range(60):
        g = random_graph(int(rng.integers(1, 8)), rng.random(), rng)
        assert count_triangles(g) == brute_force_triangles(g)


def test_diameter_examples():
    assert diameter(path_graph(4)) == 3
    assert diameter(k_complete(5)) == 1
    assert diameter(build_graph(4, [(0, 1), (2, 3)])) == 1


def test_diameter_matches_bfs_oracle_on_connected_graphs():
    rng = np.random.default_rng(13)
    done = 0
    while done < 15:
        n = int(rng.integers(2, 50))
        g = random_graph(n, 0.15, rng)
        dists = [shortest_path_distances(g, s) for s in range(n)]
        if any(d is None for row in dists for d in row):
            continue  # disconnected; covered elsewhere
        assert diameter(g) == max(d for row in dists for d in row)
        done += 1


def bfs_diameter(g):
    """Diameter of the largest component from per-source BFS; ties take the largest."""
    dists = [shortest_path_distances(g, s) for s in range(g.node_count)]
    sizes = [sum(d is not None for d in row) for row in dists]
    biggest = max(sizes)
    return max(max(d for d in row if d is not None)
               for row, size in zip(dists, sizes) if size == biggest)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129])
def test_bitset_kernels_match_oracles_across_word_boundaries(n):
    rng = np.random.default_rng(n)
    # the sparse draws leave isolated nodes and several components
    for p in (0.0, 1.0 / n, 3.0 / n, 0.3):
        g = random_graph(n, p, rng)
        assert diameter(g) == bfs_diameter(g)
        assert count_triangles(g) == brute_force_triangles(g)


def test_diameter_tie_takes_largest_of_equal_components():
    path = [(0, 1), (1, 2), (2, 3)]  # diameter 3
    star = [(4, 5), (4, 6), (4, 7)]  # diameter 2
    star_first = [(u - 4, v - 4) for u, v in star] + [(u + 4, v + 4) for u, v in path]
    for edges in (path + star, star_first):
        g = build_graph(70, edges)  # nodes 8..69 are isolated
        assert diameter(g) == 3 == bfs_diameter(g)


@pytest.fixture(params=[None, 97])
def edge_chunk(request, monkeypatch):
    """The default gather size, then many small gathers."""
    if request.param is not None:
        monkeypatch.setattr(features, "_EDGE_CHUNK", request.param)


def test_diameter_of_long_path(edge_chunk):
    order = np.random.default_rng(16).permutation(300)
    g = build_graph(300, [(int(order[i]), int(order[i + 1])) for i in range(299)])
    assert diameter(g) == 299 == bfs_diameter(g)


def test_bitset_kernels_on_dense_er(edge_chunk):
    g = generate_er(150, 0.5, np.random.default_rng(17))
    assert diameter(g) == bfs_diameter(g)
    assert count_triangles(g) == brute_force_triangles(g)


@st.composite
def component_graphs(draw):
    """(n, edges): k equal-size random connected blocks, then sparse leftovers.

    Each block is a random tree plus random chords, so equal-size blocks
    usually differ in diameter; the blocks sit on consecutive ids.
    """
    n = draw(st.integers(1, 140))
    k = draw(st.integers(1, min(4, n)))
    size = draw(st.integers(1, n // k))
    chord_p = draw(st.sampled_from([0.0, 0.05, 0.3]))
    leftover_p = draw(st.sampled_from([0.0, 1.0 / n, 3.0 / n]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = []
    for base in range(0, k * size, size):
        edges += [(base + int(rng.integers(i)), base + i) for i in range(1, size)]
        edges += [(base + u, base + v) for u, v in itertools.combinations(range(size), 2)
                  if rng.random() < chord_p]
    edges += [(u, v) for u, v in itertools.combinations(range(k * size, n), 2)
              if rng.random() < leftover_p]
    return n, edges


@settings(max_examples=150, deadline=None, derandomize=True)
@given(component_graphs(), st.sampled_from([features._EDGE_CHUNK, 1, 8, 97]))
def test_bitset_kernels_match_oracles(graph, chunk):
    """Random sizes across 64-bit word boundaries, several largest components
    of equal size in both id orders, and small gather and pack blocks."""
    n, edges = graph
    g = build_graph(n, edges)
    reversed_ids = build_graph(n, [(n - 1 - u, n - 1 - v) for u, v in edges])
    with mock.patch.object(features, "_EDGE_CHUNK", chunk):
        assert diameter(g) == diameter(reversed_ids) == bfs_diameter(g)
        assert count_triangles(g) == count_triangles(reversed_ids) == brute_force_triangles(g)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(component_graphs(), st.sampled_from([features._EDGE_CHUNK, 1, 8, 97]))
def test_diameter_memoizes_the_triangle_count_of_its_first_level(graph, chunk):
    n, edges = graph
    g, fresh = build_graph(n, edges), build_graph(n, edges)
    with mock.patch.object(features, "_EDGE_CHUNK", chunk):
        assert g._triangles is None
        diameter(g)
        assert g._triangles == count_triangles(fresh) == brute_force_triangles(g)


def star_with_tails(leaves, tails, order):
    """A hub joined to ``leaves`` nodes, leaf i continued by a path of
    ``tails[i]`` more nodes; node ``k`` of the construction gets id ``order[k]``."""
    edges, nxt = [], leaves + 1
    for leaf in range(1, leaves + 1):
        edges.append((0, leaf))
        prev = leaf
        for _ in range(tails[leaf - 1]):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return nxt, [(int(order[u]), int(order[v])) for u, v in edges]


@st.composite
def hub_graphs(draw):
    """(n, edges) with a few rows far wider than the rest: a star whose leaves
    carry path tails, on shuffled ids, or a power-law degree sequence paired
    by stubs (self-loops and repeated pairs erased)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        leaves = draw(st.integers(1, 25))
        tails = draw(st.lists(st.integers(0, 3), min_size=leaves, max_size=leaves))
        n = 1 + leaves + sum(tails)
        return star_with_tails(leaves, tails, rng.permutation(n))
    n = draw(st.integers(2, 100))
    alpha = draw(st.sampled_from([2.1, 2.3, 3.0]))
    g = sample_graph(PowerLaw(n, PointPrior(alpha)), rng)
    return n, list(g.edges())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hub_graphs(), st.sampled_from([features._EDGE_CHUNK, 1, 8, 97]))
def test_bitset_kernels_match_oracles_on_hub_graphs(graph, chunk):
    """Hubs take the blocks by row size whenever n times the widest row
    exceeds the chunk (all of 1, 8 and 97 here), and one block in node order
    at the default chunk."""
    n, edges = graph
    g = build_graph(n, edges)
    reversed_ids = build_graph(n, [(n - 1 - u, n - 1 - v) for u, v in edges])
    with mock.patch.object(features, "_EDGE_CHUNK", chunk):
        assert diameter(g) == diameter(reversed_ids) == bfs_diameter(g)
        assert count_triangles(g) == count_triangles(reversed_ids) == brute_force_triangles(g)


@pytest.mark.parametrize("chunk", [1, 8, 97, 5000, None])
def test_neighbour_table_blocks_are_bounded_and_hold_each_closed_row(monkeypatch, chunk):
    """Each column of a node of degree > 0 holds its closed neighbourhood in
    positions; blocks tile the positions within max(_EDGE_CHUNK, one column)
    entries, in one block of ascending ids whenever that fits, else by
    ascending degree."""
    if chunk is not None:
        monkeypatch.setattr(features, "_EDGE_CHUNK", chunk)
    graphs = [star_with_tails(60, [i % 4 for i in range(60)], np.arange(151)),
              (300, list(sample_graph(PowerLaw(300, PointPrior(2.1)),
                                      np.random.default_rng(3)).edges())),
              (40, [(i, i + 1) for i in range(39)]),
              (150, list(generate_er(150, 0.3, np.random.default_rng(4)).edges())),
              (70, [(3, 9), (9, 40), (40, 3), (50, 51), (51, 69)])]
    for n, edges in graphs:
        g = build_graph(n, edges)
        sets = oracle_sets(n, edges)
        assert_columns_match(g, sets)
        nodes, _, _, blocks = features._neighbour_tables(g)
        assert sorted(nodes.tolist()) == [v for v in range(n) if sets[v]]
        sizes = [len(sets[v]) + 1 for v in nodes.tolist()]
        if len(nodes) * max(sizes) <= features._EDGE_CHUNK:
            assert nodes.tolist() == sorted(nodes.tolist()) and len(blocks) == 1
        else:
            assert sizes == sorted(sizes)
        assert [first for first, _, _ in blocks] == [0] + [last for _, last, _ in blocks[:-1]]
        assert blocks[-1][1] == len(nodes)
        for first, last, table in blocks:
            widest = max(sizes[first:last])
            assert table.shape == (widest, last - first)
            assert table.size <= max(features._EDGE_CHUNK, widest)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(component_graphs(), st.integers(0, 80), st.integers(0, 2**32 - 1),
       st.sampled_from([features._EDGE_CHUNK, 1, 8, 97]))
def test_degree_zero_nodes_change_neither_bitset_kernel(graph, extra, seed, chunk):
    """The kernels search only the nodes of degree > 0: ``extra`` isolated
    nodes added at random ids shift the others' positions and word
    boundaries, and leave the diameter and the triangle count as they were."""
    n, edges = graph
    ids = np.random.default_rng(seed).choice(n + extra, size=n, replace=False).tolist()
    g = build_graph(n, edges)
    padded = build_graph(n + extra, [(ids[u], ids[v]) for u, v in edges])
    with mock.patch.object(features, "_EDGE_CHUNK", chunk):
        assert diameter(padded) == diameter(g) == bfs_diameter(g)
        assert count_triangles(padded) == count_triangles(g) == brute_force_triangles(g)


@pytest.mark.parametrize("kernel", [count_triangles, diameter])
def test_bitset_kernel_memory_on_a_star(kernel):
    """A hub of degree 7999 gets a block of its own: the leaves' block stays
    within _EDGE_CHUNK entries, under the same bound as the sparse graph."""
    g = star_graph(8000)
    tracemalloc.start()
    try:
        assert kernel(g) == (0 if kernel is count_triangles else 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


@pytest.mark.parametrize("kernel", [count_triangles, diameter])
def test_bitset_kernel_memory_on_a_sparse_graph(kernel):
    """The packed rows of n=8000 take 7.6 MiB; neither kernel may hold an
    n x n byte mask (61 MiB) on the way. tracemalloc sees numpy buffers."""
    uv = np.random.default_rng(1).integers(0, 8000, size=(4000, 2))
    g = build_graph(8000, uv[uv[:, 0] != uv[:, 1]].tolist())
    tracemalloc.start()
    try:
        kernel(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_density_and_clustering_examples():
    assert (link_density(k_complete(3)), global_clustering(k_complete(3))) == (1.0, 1.0)
    assert link_density(star_graph(4)) == pytest.approx(0.5)
    assert global_clustering(star_graph(4)) == 0.0
    empty = build_graph(5, [])
    assert (link_density(empty), global_clustering(empty)) == (0.0, 0.0)


def test_density_undefined_below_two_nodes():
    for feature in (link_density, global_clustering):
        with pytest.raises(UndefinedFeature):
            feature(build_graph(1, []))


def test_extractors_are_pure():
    g = random_graph(12, 0.3, np.random.default_rng(14))
    for kind in ("degree_entropy", "block_count", "triangle_count",
                 "diameter", "link_density", "global_clustering"):
        first = extract_feature(g, FeatureKind(kind))
        assert extract_feature(g, FeatureKind(kind)) == first


def test_block_count_kmax_clamped_to_n():
    # extraction on a small graph with the default k_max must not error
    assert extract_feature(k_complete(3), FeatureKind("block_count", k_max=16)) == 1
