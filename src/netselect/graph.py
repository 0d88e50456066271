"""Simple undirected graphs with dense 0-based node ids, stored as edge arrays.

A ``Graph`` is an immutable value: its edges are the distinct pairs
``(lo[i], hi[i])`` with lo < hi in row-major order, and ``degrees`` is
``bincount(concatenate((lo, hi)))``. Every producer -- ``build_graph``,
``read_edge_list`` and the generators -- hands the constructor such arrays.
A graph keeps no neighbourhood structure: a kernel that wants one (the padded
neighbour tables of ``features.diameter``, the packed bitsets of
``features.count_triangles``) builds it from the edge arrays and drops it
when it returns. ``has_edge`` checks both node ids and searches the sorted
``lo * n + hi`` edge keys. All arrays are read-only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import InvalidEdge, InvalidNode, ParseError

_HEADER_RE = re.compile(r"^#\s*n\s*=\s*(\d+)\s*$")
#: The most nodes whose pair keys ``lo * n + hi`` (at most n(n-1) - 1) fit int64.
_MAX_NODES = 3_037_000_500


@dataclass(frozen=True, eq=False)
class Graph:
    """An undirected simple graph: no self-loops, no parallel edges.

    Build graphs with ``build_graph`` (or a generator); the constructor takes
    canonical row-major lo < hi edge arrays (int64) and checks nothing.
    Its fields are the edge arrays, ``degrees``, ``edge_count`` and
    ``_triangles``, which memoizes the triangle count once
    ``features.count_triangles`` or ``features.diameter`` has computed it.
    """

    node_count: int
    lo: np.ndarray
    hi: np.ndarray
    degrees: np.ndarray = field(init=False)
    edge_count: int = field(init=False)
    _triangles: Optional[int] = field(init=False, default=None)

    def __post_init__(self):
        n = self.node_count
        degrees = np.bincount(np.concatenate((self.lo, self.hi)), minlength=n)
        for a in (self.lo, self.hi, degrees):
            a.setflags(write=False)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "edge_count", len(self.lo))

    def __reduce__(self):  # unpickled arrays would otherwise be writeable
        return Graph, (self.node_count, self.lo, self.hi)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.node_count == other.node_count
                and np.array_equal(self.lo, other.lo)
                and np.array_equal(self.hi, other.hi))

    def __hash__(self):
        return hash((self.node_count, self.edge_count))

    def has_edge(self, u: int, v: int) -> bool:
        _check_node(u, self.node_count)
        _check_node(v, self.node_count)
        n = self.node_count
        keys = self.lo * n + self.hi
        key = min(u, v) * n + max(u, v)
        i = int(np.searchsorted(keys, key))
        return bool(i < len(keys) and keys[i] == key)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in ascending (u, v) order."""
        return zip(self.lo.tolist(), self.hi.tolist())

    def __repr__(self) -> str:  # keep reprs short; the arrays can be large
        return f"Graph(n={self.node_count}, m={self.edge_count})"


def _canonical_pairs(node_count: int, u: np.ndarray,
                     v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pairs {u[i], v[i]} with u[i] != v[i] as row-major (lo, hi) arrays."""
    keys = np.minimum(u, v)
    keys *= node_count
    keys += np.maximum(u, v)
    keys = keys[u != v]
    keys.sort()
    first = np.empty(len(keys), dtype=bool)  # np.unique, without its overhead
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.divmod(keys[first], max(node_count, 1))


def _check_node(v: int, node_count: int) -> None:
    if not 0 <= v < node_count:
        raise InvalidNode(f"node id {v} outside [0, {node_count})")


def build_graph(node_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Construct a graph from an edge list, deduplicating repeated edges.

    Raises InvalidEdge on self-loops and InvalidNode on out-of-range ids,
    naming the first offending edge, and on a node count beyond ``_MAX_NODES``.
    """
    if node_count < 0:
        raise InvalidNode(f"node_count must be non-negative, got {node_count}")
    if node_count > _MAX_NODES:
        raise InvalidNode(f"node_count {node_count} is above {_MAX_NODES}, the most "
                          f"whose node pairs fit 64-bit keys")
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
    return Graph(node_count, *_canonical_pairs(node_count, u, v))


def shortest_path_distances(g: Graph, source: int) -> list[Optional[int]]:
    """Breadth-first hop counts from ``source``; None marks unreachable nodes."""
    _check_node(source, g.node_count)
    neighbours: list[list[int]] = [[] for _ in range(g.node_count)]
    for u, v in g.edges():
        neighbours[u].append(v)
        neighbours[v].append(u)
    dist: list[Optional[int]] = [None] * g.node_count
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in neighbours[u]:
                if dist[v] is None:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest member.

    Every node carries a label: a node of its own component, never larger
    than itself. Each round takes the smallest label of the node and its
    neighbours, read over the edge arrays, then the label of that label
    (pointer jumping), until nothing changes; every component is then
    labelled by its smallest node.
    """
    n = g.node_count
    labels = np.arange(n)
    while n:
        low = labels.copy()
        np.minimum.at(low, g.lo, labels[g.hi])
        np.minimum.at(low, g.hi, labels[g.lo])
        low = low[low]
        if np.array_equal(low, labels):
            break
        labels = low
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return [c.tolist() for c in np.split(order, cuts)] if n else []


def _edge_lines(text: str) -> tuple[Optional[int], list[tuple[int, str, str]]]:
    """The node count of an edge-list text's first ``# n=<N>`` header (None
    without one) and the (line number, u, v) label tokens of its edge lines;
    blank lines and other '#' comments are skipped. A line that is not two
    labels, or whose two labels are equal, is a ParseError."""
    node_count: Optional[int] = None
    lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m and node_count is None:
                node_count = int(m.group(1))
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u<TAB>v', got {line!r}", ln)
        if parts[0] == parts[1]:
            raise ParseError(f"self-loop ({parts[0]}, {parts[1]})", ln)
        lines.append((ln, *parts))
    return node_count, lines


def read_edge_list(text: str) -> Graph:
    """Parse the tab-separated edge-list format.

    One edge per line as ``u<TAB>v`` with 0-based integer ids; lines starting
    with '#' are comments; a ``# n=<N>`` header is required so graphs with
    isolated nodes are representable.
    """
    node_count, lines = _edge_lines(text)
    if node_count is None:
        raise ParseError("missing '# n=<N>' header")
    edges = []
    for ln, a, b in lines:
        try:
            u, v = int(a), int(b)
        except ValueError:
            raise ParseError(f"non-integer node id in {a!r} {b!r}", ln) from None
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise ParseError(f"node id out of range [0, {node_count})", ln)
        edges.append((u, v))
    return build_graph(node_count, edges)


def write_edge_list(g: Graph) -> str:
    """Canonical serialization: header, then edges with u < v in ascending order."""
    lines = [f"# n={g.node_count}"]
    lines.extend(f"{u}\t{v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
