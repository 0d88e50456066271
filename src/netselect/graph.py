"""Simple undirected graphs with dense 0-based node ids.

Graphs are immutable after construction; ``toggle_edge`` returns a new graph
sharing untouched neighbor sets with the original. Neighbor sets are
frozensets, which keeps membership tests and set intersections (edge-toggle
proposals) cheap.

Whole-graph kernels (triangle count, diameter, the Bethe-Hessian) do not walk
the sets: ``_adjacency_arrays`` flattens them once into CSR-style
``(degrees, indptr, indices)`` arrays, and ``features`` packs those rows into
64-bit words so that neighbourhood intersections and unions are word-wise
AND/OR in numpy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import InvalidEdge, InvalidNode, ParseError

_HEADER_RE = re.compile(r"^#\s*n\s*=\s*(\d+)\s*$")


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph: no self-loops, no parallel edges."""

    node_count: int
    adjacency: tuple[frozenset[int], ...]
    edge_count: int

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of ``v`` in ascending order."""
        return tuple(sorted(self.adjacency[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in ascending (u, v) order."""
        for u in range(self.node_count):
            for v in sorted(self.adjacency[u]):
                if v > u:
                    yield u, v

    def __repr__(self) -> str:  # keep reprs short; adjacency can be large
        return f"Graph(n={self.node_count}, m={self.edge_count})"


def _check_node(v: int, node_count: int) -> None:
    if not 0 <= v < node_count:
        raise InvalidNode(f"node id {v} outside [0, {node_count})")


def _from_neighbor_lists(node_count: int, neighbors: list[list[int]]) -> Graph:
    """Build a graph from symmetric-by-construction neighbor lists (no checks)."""
    adjacency = tuple(frozenset(ns) for ns in neighbors)
    edge_count = sum(len(s) for s in adjacency) // 2
    return Graph(node_count, adjacency, edge_count)


def build_graph(node_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Construct a graph from an edge list, deduplicating repeated edges.

    Raises InvalidEdge on self-loops and InvalidNode on out-of-range ids.
    """
    if node_count < 0:
        raise InvalidNode(f"node_count must be non-negative, got {node_count}")
    sets: list[set[int]] = [set() for _ in range(node_count)]
    for u, v in edges:
        if u == v:
            raise InvalidEdge(f"self-loop ({u}, {v}) is not allowed")
        _check_node(u, node_count)
        _check_node(v, node_count)
        sets[u].add(v)
        sets[v].add(u)
    adjacency = tuple(frozenset(s) for s in sets)
    edge_count = sum(len(s) for s in adjacency) // 2
    return Graph(node_count, adjacency, edge_count)


def toggle_edge(g: Graph, u: int, v: int) -> Graph:
    """Return a copy of ``g`` with the edge (u, v) flipped."""
    if u == v:
        raise InvalidEdge(f"cannot toggle self-loop ({u}, {v})")
    _check_node(u, g.node_count)
    _check_node(v, g.node_count)
    adjacency = list(g.adjacency)
    if v in adjacency[u]:
        adjacency[u] = adjacency[u] - {v}
        adjacency[v] = adjacency[v] - {u}
        delta = -1
    else:
        adjacency[u] = adjacency[u] | {v}
        adjacency[v] = adjacency[v] | {u}
        delta = 1
    return Graph(g.node_count, tuple(adjacency), g.edge_count + delta)


def degree_sequence(g: Graph) -> np.ndarray:
    """Degrees indexed by node id; sums to 2 * edge_count."""
    return np.array([len(s) for s in g.adjacency], dtype=np.int64)


def _adjacency_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(degrees, indptr, indices): the neighbors of v are indices[indptr[v]:indptr[v + 1]].

    Neighbors within a row are in set-iteration order, not sorted.
    """
    degrees = degree_sequence(g)
    indptr = np.zeros(g.node_count + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(g.adjacency), dtype=np.int64,
                          count=int(indptr[-1]))
    return degrees, indptr, indices


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> Graph:
    """Subgraph on ``nodes``, relabeled to 0..k-1 in ascending original id."""
    keep = sorted(set(nodes))
    for v in keep:
        _check_node(v, g.node_count)
    relabel = {v: i for i, v in enumerate(keep)}
    neighbors: list[list[int]] = [[] for _ in keep]
    for v in keep:
        i = relabel[v]
        for w in g.adjacency[v]:
            j = relabel.get(w)
            if j is not None and j > i:
                neighbors[i].append(j)
                neighbors[j].append(i)
    return _from_neighbor_lists(len(keep), neighbors)


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
            for v in g.adjacency[u]:
                if dist[v] is None:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest member."""
    seen = [False] * g.node_count
    comps = []
    for s in range(g.node_count):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.adjacency[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        nxt.append(v)
            frontier = nxt
        comps.append(sorted(comp))
    return comps


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
