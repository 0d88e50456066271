import numpy as np
import pytest

import netselect.graph as graph_module
from netselect import (
    InvalidEdge,
    InvalidNode,
    ParseError,
    build_graph,
    read_edge_list,
    shortest_path_distances,
    write_edge_list,
)
from conftest import adjacency_sets, toggle_edge


def k_complete(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edge_count == 3
    assert g.node_count == 3
    assert all(g.degrees[v] == 2 for v in range(3))


def test_build_dedups_reversed_edges():
    g = build_graph(2, [(0, 1), (1, 0)])
    assert g.edge_count == 1


def test_build_rejects_self_loop():
    with pytest.raises(InvalidEdge):
        build_graph(2, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(InvalidNode):
        build_graph(2, [(0, 2)])


def test_build_rejects_a_node_count_whose_pair_keys_overflow_int64(monkeypatch):
    bound = 3_037_000_500  # the largest n whose largest key n(n-1) - 1 fits int64
    assert bound * (bound - 1) - 1 <= 2 ** 63 - 1 < (bound + 1) * bound - 1
    # Building the Graph would allocate n degrees (24 GB at bound + 1): fail instead.
    monkeypatch.setattr(graph_module, "Graph", lambda *a: pytest.fail("graph was built"))
    for n in (bound + 1, 10 ** 23):
        with pytest.raises(InvalidNode, match=str(n)):
            build_graph(n, [(0, 1)])


def test_toggle_adds_edge():
    g = build_graph(2, [])
    g2 = toggle_edge(g, 0, 1)
    assert g2.edge_count == 1
    assert g.edge_count == 0  # original untouched


def test_toggle_is_involution():
    rng = np.random.default_rng(5)
    g = random_graph(6, 0.4, rng)
    assert toggle_edge(toggle_edge(g, 2, 4), 2, 4) == g


def test_toggle_rejects_self_loop():
    g = build_graph(2, [])
    with pytest.raises(InvalidEdge):
        toggle_edge(g, 0, 0)


def test_degree_sequence_examples():
    assert k_complete(3).degrees.tolist() == [2, 2, 2]
    assert path_graph(3).degrees.tolist() == [1, 2, 1]
    assert build_graph(4, []).degrees.tolist() == [0, 0, 0, 0]


def test_degree_sum_is_twice_edges():
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = random_graph(rng.integers(1, 12), rng.random(), rng)
        assert g.degrees.sum() == 2 * g.edge_count


def test_invariants_under_random_toggle_sequences():
    rng = np.random.default_rng(11)
    g = build_graph(7, [])
    for _ in range(300):
        u, v = rng.choice(7, size=2, replace=False)
        g = toggle_edge(g, int(u), int(v))
        sets = adjacency_sets(g)
        for x in range(7):
            assert x not in sets[x]
            for y in sets[x]:
                assert x in sets[y]
        assert sum(len(s) for s in sets) == 2 * g.edge_count


def test_has_edge_checks_node_ids_as_toggle_edge_does():
    g = build_graph(3, [(0, 1)])
    for u, v in ((5, 0), (-1, 0), (0, 5), (0, 3)):
        with pytest.raises(InvalidNode):
            g.has_edge(u, v)
        with pytest.raises(InvalidNode):
            toggle_edge(g, u, v)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(1, 1) and not g.has_edge(1, 2)


def test_distances_on_path():
    assert shortest_path_distances(path_graph(3), 0) == [0, 1, 2]


def test_distances_on_complete():
    assert shortest_path_distances(k_complete(4), 2) == [1, 1, 0, 1]


def test_distances_unreachable_marker():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert shortest_path_distances(g, 0) == [0, 1, None, None]


def floyd_warshall(g):
    n = g.node_count
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def test_distances_match_floyd_warshall():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        g = random_graph(n, 0.4, rng)
        oracle = floyd_warshall(g)
        for s in range(n):
            got = shortest_path_distances(g, s)
            want = [None if oracle[s][j] == float("inf") else oracle[s][j]
                    for j in range(n)]
            assert got == want


def test_read_edge_list_path():
    g = read_edge_list("# n=3\n0\t1\n1\t2\n")
    assert g == path_graph(3)


def test_read_write_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = random_graph(int(rng.integers(1, 10)), 0.4, rng)
        assert read_edge_list(write_edge_list(g)) == g


def test_write_is_canonical():
    g = build_graph(3, [(2, 1), (1, 0)])
    assert write_edge_list(g) == "# n=3\n0\t1\n1\t2\n"


def test_read_rejects_self_loop_with_line_number():
    with pytest.raises(ParseError) as err:
        read_edge_list("# n=2\n0\t0\n")
    assert err.value.line_number == 2


def test_read_requires_header():
    with pytest.raises(ParseError):
        read_edge_list("0\t1\n")


def test_read_rejects_garbage():
    with pytest.raises(ParseError):
        read_edge_list("# n=2\n0\tx\n")
    with pytest.raises(ParseError):
        read_edge_list("# n=2\n0\t1\t2\n")


def test_read_reports_a_malformed_line_before_a_bad_node_id():
    # Every line is split and checked for two distinct labels before any
    # label is read as a node id.
    with pytest.raises(ParseError, match="line 3: expected"):
        read_edge_list("# n=2\n0\tx\n0\t1\t2\n")
    with pytest.raises(ParseError, match="line 3: self-loop"):
        read_edge_list("# n=2\n0\t5\n1\t1\n")
    with pytest.raises(ParseError, match="line 2: non-integer"):
        read_edge_list("# n=2\n0\tx\n0\t5\n")


def test_read_preserves_isolated_nodes():
    g = read_edge_list("# n=5\n0\t1\n")
    assert g.node_count == 5
    assert g.edge_count == 1
