"""Simple undirected graphs with dense 0-based node ids, stored as CSR arrays.

A ``Graph`` is an immutable value: the neighbours of v are
``indices[indptr[v]:indptr[v + 1]]`` in ascending order, ``degrees`` is
``diff(indptr)``, and all three arrays are read-only. Every producer --
``build_graph``, ``read_edge_list``, ``induced_subgraph``, ``toggle_edge`` and
the generators -- goes through ``_from_pairs``, which takes canonical u < v
edge arrays in row-major order and builds the CSR with one stable argsort
(reversed pairs ahead of the forward ones keep every row sorted). Edits such
as ``toggle_edge`` return a new graph and share nothing with the old one.

Whole-graph kernels (triangle count, diameter, the Bethe-Hessian) read the
arrays directly; ``features`` packs the rows into 64-bit words so that
neighbourhood intersections and unions are word-wise AND/OR in numpy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import InvalidEdge, InvalidNode, ParseError

_HEADER_RE = re.compile(r"^#\s*n\s*=\s*(\d+)\s*$")


@dataclass(frozen=True, eq=False)
class Graph:
    """An undirected simple graph: no self-loops, no parallel edges.

    Build graphs with ``build_graph`` (or a generator); the constructor takes
    a ready CSR pair and checks nothing. ``_triangles`` memoizes the triangle
    count once ``features.count_triangles`` has computed it.
    """

    node_count: int
    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray = field(init=False)
    edge_count: int = field(init=False)
    _triangles: Optional[int] = field(init=False, default=None)

    def __post_init__(self):
        degrees = np.diff(self.indptr)
        for a in (self.indptr, self.indices, degrees):
            a.flags.writeable = False
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "edge_count", len(self.indices) // 2)

    def __reduce__(self):  # unpickled arrays would otherwise be writeable
        return Graph, (self.node_count, self.indptr, self.indices)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.node_count == other.node_count
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self.node_count, self.edge_count))

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def _row(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self._row(u)
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of ``v`` in ascending order."""
        return tuple(self._row(v).tolist())

    def common_neighbors(self, u: int, v: int) -> int:
        """Number of nodes adjacent to both ``u`` and ``v``."""
        return len(np.intersect1d(self._row(u), self._row(v), assume_unique=True))

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in ascending (u, v) order."""
        lo, hi = _edge_arrays(self)
        return zip(lo.tolist(), hi.tolist())

    @property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbor sets per node, derived from the CSR arrays on each access."""
        return tuple(frozenset(self._row(v).tolist()) for v in range(self.node_count))

    def __repr__(self) -> str:  # keep reprs short; the arrays can be large
        return f"Graph(n={self.node_count}, m={self.edge_count})"


def _from_pairs(node_count: int, lo: np.ndarray, hi: np.ndarray) -> Graph:
    """The graph with edges (lo[i], hi[i]); no checks.

    The pairs must satisfy lo < hi, be distinct and be sorted row-major (by
    lo, then hi). Listing each edge as (hi, lo) ahead of (lo, hi) and sorting
    stably by source then leaves every row sorted: a row's smaller neighbours
    come from the reversed pairs, in ascending order, before its larger ones.
    """
    src = np.concatenate([hi, lo])
    dst = np.concatenate([lo, hi])
    # a stable sort of 16-bit keys is a radix sort
    keys = src.astype(np.uint16) if node_count <= 1 << 16 else src
    indices = dst[np.argsort(keys, kind="stable")]
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
    return Graph(node_count, indptr, indices)


def _canonical_pairs(node_count: int, u: np.ndarray,
                     v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pairs {u[i], v[i]} with u[i] != v[i] as row-major (lo, hi) arrays."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = np.sort((lo * node_count + hi)[lo != hi])
    first = np.ones(len(keys), dtype=bool)  # np.unique, without its overhead
    first[1:] = keys[1:] != keys[:-1]
    return np.divmod(keys[first], max(node_count, 1))


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): the edges with lo < hi, in row-major order."""
    src = np.repeat(np.arange(g.node_count), g.degrees)
    upper = src < g.indices
    return src[upper], g.indices[upper]


def _closed_neighbourhoods(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, closed): {v} | N(v) is closed[ptr[v]:ptr[v + 1]], v first."""
    n = g.node_count
    ptr = g.indptr + np.arange(n + 1)
    closed = np.empty(ptr[-1], dtype=g.indices.dtype)
    closed[ptr[:-1]] = np.arange(n)
    others = np.ones(ptr[-1], dtype=bool)
    others[ptr[:-1]] = False
    closed[others] = g.indices
    return ptr, closed


def _check_node(v: int, node_count: int) -> None:
    if not 0 <= v < node_count:
        raise InvalidNode(f"node id {v} outside [0, {node_count})")


def build_graph(node_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Construct a graph from an edge list, deduplicating repeated edges.

    Raises InvalidEdge on self-loops and InvalidNode on out-of-range ids,
    naming the first offending edge.
    """
    if node_count < 0:
        raise InvalidNode(f"node_count must be non-negative, got {node_count}")
    pairs = np.array(list(edges), dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InvalidEdge("edges must be (u, v) pairs")
    u, v = pairs[:, 0], pairs[:, 1]
    bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= node_count)
    if bad.any():
        a, b = pairs[np.argmax(bad)].tolist()
        if a == b:
            raise InvalidEdge(f"self-loop ({a}, {b}) is not allowed")
        _check_node(a, node_count)
        _check_node(b, node_count)
    return _from_pairs(node_count, *_canonical_pairs(node_count, u, v))


def toggle_edge(g: Graph, u: int, v: int) -> Graph:
    """Return a copy of ``g`` with the edge (u, v) flipped."""
    if u == v:
        raise InvalidEdge(f"cannot toggle self-loop ({u}, {v})")
    _check_node(u, g.node_count)
    _check_node(v, g.node_count)
    n = g.node_count
    lo, hi = _edge_arrays(g)
    keys = lo * n + hi
    key = min(u, v) * n + max(u, v)
    i = int(np.searchsorted(keys, key))
    if i < len(keys) and keys[i] == key:
        keys = np.delete(keys, i)
    else:
        keys = np.insert(keys, i, key)
    return _from_pairs(n, *np.divmod(keys, n))


def degree_sequence(g: Graph) -> np.ndarray:
    """Degrees indexed by node id (read-only); sums to 2 * edge_count."""
    return g.degrees


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> Graph:
    """Subgraph on ``nodes``, relabeled to 0..k-1 in ascending original id."""
    keep = np.array(sorted(set(nodes)), dtype=np.int64)
    bad = keep[(keep < 0) | (keep >= g.node_count)]
    if len(bad):
        _check_node(int(bad[0]), g.node_count)
    relabel = np.full(g.node_count, -1, dtype=np.int64)
    relabel[keep] = np.arange(len(keep))
    lo, hi = _edge_arrays(g)
    lo, hi = relabel[lo], relabel[hi]
    inside = (lo >= 0) & (hi >= 0)  # relabel is increasing: order is kept
    return _from_pairs(len(keep), lo[inside], hi[inside])


def shortest_path_distances(g: Graph, source: int) -> list[Optional[int]]:
    """Breadth-first hop counts from ``source``; None marks unreachable nodes."""
    _check_node(source, g.node_count)
    dist: list[Optional[int]] = [None] * g.node_count
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in g._row(u).tolist():
                if dist[v] is None:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest member.

    Every node carries a label: a node of its own component, never larger
    than itself. Each round takes the smallest label in the node's closed
    neighbourhood and then the label of that label (pointer jumping), until
    nothing changes; every component is then labelled by its smallest node.
    """
    n = g.node_count
    ptr, closed = _closed_neighbourhoods(g)
    labels = np.arange(n)
    while n:
        low = np.minimum.reduceat(labels[closed], ptr[:-1])
        low = low[low]
        if np.array_equal(low, labels):
            break
        labels = low
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return [c.tolist() for c in np.split(order, cuts)] if n else []


def read_edge_list(text: str) -> Graph:
    """Parse the tab-separated edge-list format.

    One edge per line as ``u<TAB>v`` with 0-based integer ids; lines starting
    with '#' are comments; a ``# n=<N>`` header is required so graphs with
    isolated nodes are representable.
    """
    node_count: Optional[int] = None
    edges: list[tuple[int, int]] = []
    pending: list[tuple[int, int, int]] = []  # (u, v, line_number)
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m and node_count is None:
                node_count = int(m.group(1))
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u<TAB>v', got {line!r}", ln)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {line!r}", ln) from None
        if u == v:
            raise ParseError(f"self-loop ({u}, {v})", ln)
        if u < 0 or v < 0:
            raise ParseError(f"negative node id in {line!r}", ln)
        pending.append((u, v, ln))
    if node_count is None:
        raise ParseError("missing '# n=<N>' header")
    for u, v, ln in pending:
        if u >= node_count or v >= node_count:
            raise ParseError(f"node id out of range [0, {node_count})", ln)
        edges.append((u, v))
    return build_graph(node_count, edges)


def write_edge_list(g: Graph) -> str:
    """Canonical serialization: header, then edges with u < v in ascending order."""
    lines = [f"# n={g.node_count}"]
    lines.extend(f"{u}\t{v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
