import itertools
import math
import tracemalloc
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
    density_and_clustering,
    diameter,
    equal_blocks,
    estimate_block_count,
    extract_feature,
    fit_power_law_mle,
    generate_er,
    generate_sbm,
    power_law_mle,
    shortest_path_distances,
)
from netselect import features
from netselect.features import bethe_hessian


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


# --------------------------------------------------------------------------
# Degree entropy
# --------------------------------------------------------------------------

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
        degrees = [g.degree(v) for v in range(n)]
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
    assert fit_power_law_mle(g, 1) == pytest.approx(1 + 1 / math.log(2))


def test_mle_undefined_on_empty_graph():
    with pytest.raises(UndefinedFeature):
        fit_power_law_mle(build_graph(3, []), 1)


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
        degrees = np.array([g.degree(v) for v in range(g.node_count)], dtype=float)
        two_m = degrees.sum()
        if two_m == 0:
            continue
        excess = (degrees * degrees).sum() / two_m - 1.0
        if excess <= 0:
            continue
        h = bethe_hessian(g, math.sqrt(excess))
        assert _negative_inertia(h) == int(np.sum(np.linalg.eigvalsh(h) < -1e-10))


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
    hits = 0
    for seed in range(20):
        g = generate_sbm(200, 4, equal_blocks(200, 4),
                         np.full((4, 4), 0.01) + np.eye(4) * 0.49,
                         np.random.default_rng(seed))
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
    assert density_and_clustering(k_complete(3)) == (1.0, 1.0)
    density, clustering = density_and_clustering(star_graph(4))
    assert density == pytest.approx(0.5)
    assert clustering == 0.0
    assert density_and_clustering(build_graph(5, [])) == (0.0, 0.0)


def test_density_undefined_below_two_nodes():
    with pytest.raises(UndefinedFeature):
        density_and_clustering(build_graph(1, []))


def test_extractors_are_pure():
    g = random_graph(12, 0.3, np.random.default_rng(14))
    for kind in ("degree_entropy", "block_count", "triangle_count",
                 "diameter", "link_density", "global_clustering"):
        first = extract_feature(g, FeatureKind(kind))
        assert extract_feature(g, FeatureKind(kind)) == first


def test_block_count_kmax_clamped_to_n():
    # extraction on a small graph with the default k_max must not error
    assert extract_feature(k_complete(3), FeatureKind("block_count", k_max=16)) == 1
