"""Scalar graph observables used for model comparison.

Each feature maps a graph to one number: entropy of the empirical degree
distribution, a fitted power-law exponent, an estimated block count, triangle
count, diameter, link density, or global clustering. Block count, triangle
count and diameter are integer-valued; the rest are real-valued.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, UndefinedFeature
# connected_components and shortest_path_distances are not called here any
# more; they stay importable from this module because perfbench/spans.py wraps
# them under this module's name.
from .graph import (  # noqa: F401
    Graph,
    connected_components,
    shortest_path_distances,
)

DEFAULT_D_MIN = 1
DEFAULT_K_MAX = 16

#: Identifier of the block-count estimator, echoed in comparison reports.
BLOCK_COUNT_METHOD = "bethe_hessian"


def _strict_int(value, name: str) -> int:
    """``value`` itself when it is an integer and not a bool; a float, a string
    or a bool in an integer field of a spec is an error, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidSpec(f"{name} must be an integer, got {value!r}")
    return value


def _strict_float(value, name: str) -> float:
    """``value`` as a float when it is a JSON number (not a bool, not a string)
    within float range; whether it must be finite is its object's check."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidSpec(f"cannot parse {name} from {value!r}; expected a number")
    try:
        return float(value)
    except OverflowError:
        raise InvalidSpec(f"cannot parse {name}: the integer is beyond float range") from None


def _typed(types):
    """A checker that passes a value of ``types`` (a type or a tuple of them),
    never a bool, as it is."""
    def check(value, name: str):
        if isinstance(value, bool) or not isinstance(value, types):
            raise InvalidSpec(f"{name} has the wrong type: {value!r}")
        return value
    return check


def _list_of(check):
    """A checker of a JSON list whose items ``check`` reads, returned as a tuple."""
    return lambda value, name: tuple(check(item, name) for item in _typed(list)(value, name))


def _read(obj, fields: dict, what: str) -> dict:
    """The values of the JSON object ``obj`` by the table ``fields``, in table order.

    ``fields`` maps each key to ``(checker, default)``: ``checker(value,
    name)`` returns the value as the object takes it or raises InvalidSpec,
    and a default of ``...`` marks a required key. A ``null`` value counts as
    absent. A key the table does not hold is an error that names the closest
    key it does hold.
    """
    if not isinstance(obj, dict):
        raise InvalidSpec(f"{what} must hold a JSON object, not {obj!r}")
    for key in obj:
        if key not in fields:
            import difflib  # only on this error: start-up does not pay for it

            close = difflib.get_close_matches(key, fields, n=1)
            hint = f"did you mean {close[0]!r}?" if close else f"it takes {', '.join(fields)}"
            raise InvalidSpec(f"{what} has no key {key!r}; {hint}")
    out = {}
    for key, (check, default) in fields.items():
        value = obj.get(key)
        if value is None and default is ...:
            raise InvalidSpec(f"{what} needs {key!r}")
        out[key] = default if value is None else check(value, f"{what} {key!r}")
    return out


def _object(cls, fields: dict):
    """A checker that reads a JSON object by ``fields`` and builds ``cls`` from its values."""
    return lambda value, name: cls(*_read(value, fields, name).values())


@dataclass(frozen=True)
class FeatureKind:
    """A feature selector: token name plus the parameters some kinds take.

    ``d_min`` applies to power_law_exponent, ``k_max`` to block_count; the
    other kinds hold the default of the parameter they ignore, so two kinds
    that compute the same feature are equal and hash alike.
    """

    name: str
    d_min: int = DEFAULT_D_MIN
    k_max: int = DEFAULT_K_MAX

    def __post_init__(self):
        if self.name not in _FEATURES:
            raise InvalidSpec(f"unknown feature {self.name!r}; expected one of {tuple(_FEATURES)}")
        if self.d_min < 1:
            raise InvalidSpec(f"d_min must be >= 1, got {self.d_min}")
        if self.k_max < 1:
            raise InvalidSpec(f"k_max must be >= 1, got {self.k_max}")
        if self.name != "power_law_exponent":
            object.__setattr__(self, "d_min", DEFAULT_D_MIN)
        if self.name != "block_count":
            object.__setattr__(self, "k_max", DEFAULT_K_MAX)

    @property
    def is_discrete(self) -> bool:
        return _FEATURES[self.name][1]

    def to_json(self):
        out = {"kind": self.name}
        if self.name == "power_law_exponent":
            out["d_min"] = self.d_min
        if self.name == "block_count":
            out["k_max"] = self.k_max
        return out

    @classmethod
    def from_json(cls, obj, name: str = "feature") -> "FeatureKind":
        """A kind from its token or a {"kind", "d_min", "k_max"} object."""
        return cls(obj) if isinstance(obj, str) else cls(*_read(obj, _KIND_FIELDS, name).values())


#: The keys of a feature kind object, in FeatureKind's argument order.
_KIND_FIELDS = {"kind": (_typed(str), ...), "d_min": (_strict_int, DEFAULT_D_MIN),
                "k_max": (_strict_int, DEFAULT_K_MAX)}


def degree_entropy(g: Graph) -> float:
    """Shannon entropy (nats) of the empirical degree distribution.

    Zero exactly when the graph is regular.
    """
    if g.node_count < 1:
        raise UndefinedFeature("degree entropy needs at least one node")
    counts = np.bincount(g.degrees)
    counts = counts[counts > 0]  # ascending degree, as np.unique counts them
    if len(counts) == 1:
        return 0.0
    p = counts / g.node_count
    return float(-np.sum(p * np.log(p)))


def power_law_mle(values, d_min: int) -> float:
    """Continuous-approximation MLE of a power-law exponent.

    alpha_hat = 1 + m / sum(log(x_i / (d_min - 0.5))) over the m values with
    x_i >= d_min; the -0.5 shift is the usual discreteness correction.
    """
    if d_min < 1:
        raise InvalidSpec(f"d_min must be >= 1, got {d_min}")
    values = np.asarray(values)
    if values.dtype.kind not in "iu":  # integer degrees divide into float64 as they are
        values = values.astype(float)
    included = values[values >= d_min]
    if len(included) == 0:
        raise UndefinedFeature(f"no value reaches d_min={d_min}")
    return float(1.0 + len(included) / np.log(included / (d_min - 0.5)).sum())


def _lapack():
    """``scipy.linalg``, imported on first use: only block_count needs it.

    Before the import, an unset ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
    or ``MKL_NUM_THREADS`` is set to 1: a 200x200 ``sytrf`` is slower on two
    BLAS threads, and pool workers each starting their own would oversubscribe
    the cores. A count the user set wins; a host that loaded scipy first keeps
    its own.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import scipy.linalg

    return scipy.linalg


def _negative_inertia(h: np.ndarray) -> int:
    """Negative-eigenvalue count of a symmetric matrix via LDL^T inertia.

    Uses the Bunch-Kaufman factorization (LAPACK sytrf); by Sylvester's law
    the block-diagonal factor carries the eigenvalue signs. Negative ``ipiv``
    entries come in consecutive pairs, one pair per 2x2 block.
    """
    (sytrf,) = _lapack().get_lapack_funcs(("sytrf",), (h,))
    ldu, ipiv, info = sytrf(h, lower=1)
    if info < 0:
        raise ValueError(f"sytrf failed with info={info}")
    d = ldu.diagonal()
    i = np.flatnonzero(ipiv < 0)[::2]  # 2x2 pivot blocks on rows i, i + 1
    det = d[i] * d[i + 1] - ldu[i + 1, i] * ldu[i + 1, i]
    single = np.ones(len(d), dtype=bool)
    single[i] = single[i + 1] = False
    # a 2x2 block: one negative eigenvalue if det < 0, else two if its trace is < 0
    return int(np.count_nonzero(d[single] < 0.0) + np.count_nonzero(det < 0.0)
               + 2 * np.count_nonzero(~(det < 0.0) & (d[i] + d[i + 1] < 0.0)))


def bethe_hessian(g: Graph, r: float) -> np.ndarray:
    """H(r) = (r^2 - 1) I - r A + D, with A the graph's 0/1 edge matrix and D
    its degree matrix."""
    degrees = g.degrees
    n = g.node_count
    h = np.zeros((n, n))
    h[g.lo, g.hi] = 1.0
    h[g.hi, g.lo] = 1.0
    h *= -r
    idx = np.arange(n)
    h[idx, idx] += (r * r - 1.0) + degrees
    return h


def estimate_block_count(g: Graph, k_max: int) -> int:
    """Estimated number of blocks, in [1, k_max].

    Counts the negative eigenvalues of the Bethe-Hessian H(r) with
    r = sqrt(mean excess degree); each assortative community detectable in
    the spectrum contributes one. Graphs with mean excess degree <= 1
    (no branching beyond trees and cycles, where r <= 1 and the count is
    meaningless) read as a single block.
    """
    if g.node_count < 2:
        raise UndefinedFeature("block count needs at least two nodes")
    if k_max < 1:
        raise InvalidSpec(f"k_max must be >= 1, got {k_max}")
    degrees = g.degrees.astype(float)
    two_m = degrees.sum()
    if two_m == 0:
        return 1
    excess = float((degrees * degrees).sum() / two_m - 1.0)
    if excess <= 1.0:
        return 1
    h = bethe_hessian(g, math.sqrt(excess))
    neg = _negative_inertia(h)
    return max(1, min(neg, k_max, g.node_count))


#: Rows gathered per numpy call in count_triangles (twice) and, or one closed
#: row if that is longer, per neighbour-table block of _eccentricities, which
#: bounds their temporaries to about 16 * _EDGE_CHUNK * ceil(k / 64) bytes on
#: dense graphs of k nodes of degree > 0; _packed_closed packs
#: _EDGE_CHUNK // 8 rows per boolean mask.
_EDGE_CHUNK = 1 << 14

#: word count W -> the read-only identity bitsets of 64 * W positions (row i
#: holds bit i), kept only while 64 * W * W <= _EDGE_CHUNK (0.8 MB in all).
_IDENTITY_CACHE: dict = {}


def _identity(k: int) -> np.ndarray:
    """k x ceil(k / 64) uint64 rows, row i holding only bit i: the rows that
    level 1 of the search ORs, from the memo when their word count is small."""
    w = -(-k // 64)
    rows = _IDENTITY_CACHE.get(w)
    if rows is None:
        i = np.arange(64 * w)
        rows = np.zeros((64 * w, w), dtype=np.uint64)
        rows[i, i >> 6] = np.uint64(1) << (i & 63).astype(np.uint64)
        if 64 * w * w <= _EDGE_CHUNK:
            rows.flags.writeable = False
            _IDENTITY_CACHE[w] = rows
    return rows[:k]


def _positions(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nodes, lo, hi): the nodes of degree > 0 in ascending id, and the edge
    arrays with each end replaced by its position in ``nodes``, still
    row-major. A node of degree 0 is in no edge, so it gets no position."""
    nodes = g.degrees.nonzero()[0]
    if len(nodes) == g.node_count:
        return nodes, g.lo, g.hi
    pos = np.empty(g.node_count, dtype=np.int64)
    pos[nodes] = np.arange(len(nodes))
    return nodes, pos[g.lo], pos[g.hi]


def _packed_closed(k: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """k x ceil(k / 64) uint64 bitset whose row v has bit u set iff u is in
    {v} | N(v), for the edges (lo, hi) of positions 0..k - 1, set through a
    dense boolean mask in blocks of _EDGE_CHUNK // 8 rows (one block up to
    that many positions), so a block's mask is no larger than one gather of
    _EDGE_CHUNK packed rows."""
    width = 64 * -(-k // 64)
    step = max(1, _EDGE_CHUNK // 8)
    bits = np.empty((k, width // 64), dtype=np.uint64)
    keys = np.concatenate((lo * width + hi, hi * width + lo))  # flat bit of each end
    for first in range(0, k, step):
        last = min(first + step, k)
        mask = np.zeros((last - first) * width, dtype=bool)
        mask[first::width + 1] = True  # row v holds v
        inside = (keys >= first * width) & (keys < last * width) if last - first < k else slice(None)
        mask[keys[inside] - first * width] = True
        bits[first:last] = np.packbits(mask, bitorder="little").view(np.uint64).reshape(last - first, -1)
        del mask  # free it before the next block's mask is allocated
    return bits


def _remember_triangles(g: Graph, bits: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Memoize the triangle count from the closed rows ``bits`` of the
    positions that the edges (lo, hi) join. For an edge {u, v}, N[u] & N[v]
    holds u, v and their common neighbours, so the popcounts sum to
    3 * triangles + 2m."""
    total = 0
    for first in range(0, len(lo), _EDGE_CHUNK):
        common = bits.take(lo[first:first + _EDGE_CHUNK], axis=0)
        common &= bits.take(hi[first:first + _EDGE_CHUNK], axis=0)
        total += int(np.bitwise_count(common).sum())
    object.__setattr__(g, "_triangles", (total - 2 * len(lo)) // 3)


def count_triangles(g: Graph) -> int:
    """Number of node triples inducing a triangle (each counted once), kept on
    the graph for clustering; ``diameter`` keeps it too, from its first level.
    Only the nodes of degree > 0 get a row: an isolated node is in no triangle."""
    if g._triangles is None:
        nodes, lo, hi = _positions(g)
        _remember_triangles(g, _packed_closed(len(nodes), lo, hi), lo, hi)
    return g._triangles


def _neighbour_tables(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """(nodes, lo, hi, blocks): the search's positions, the edge arrays in
    positions and, per block of consecutive positions first..last - 1, the
    padded neighbour table ``(first, last, table)`` (the SELL-C-sigma layout
    of Kreutzer et al., SIAM J. Sci. Comput. 2014).

    The positions are the nodes of degree > 0. ``table[0, i]`` is position
    first + i itself, ``table[1:deg + 1, i]`` are its neighbours, and the rows
    past them, up to the block's widest, hold the position itself again
    (ORing a row twice changes nothing). When k positions times the widest
    column fit _EDGE_CHUNK entries there is one block in ascending node id;
    otherwise the order is by ascending degree and each block takes as many
    columns as fit max(_EDGE_CHUNK, one column) entries, so a hub pads no
    other column and a block's gather stays bounded.
    """
    nodes, lo, hi = _positions(g)
    k = len(nodes)
    deg = g.degrees[nodes]
    widest = int(deg.max(initial=0)) + 1
    if k * widest <= _EDGE_CHUNK:
        cuts = [(0, k, widest)] if k else []
    else:
        by_deg = np.argsort(deg, kind="stable")
        nodes, deg = nodes[by_deg], deg[by_deg]
        position = np.empty(k, dtype=np.int64)
        position[by_deg] = np.arange(k)
        lo, hi = position[lo], position[hi]
        cuts, first = [], 0
        while first < k:  # columns first..last - 1 fit when (last - first) * (deg[last - 1] + 1) does
            sizes = deg[first:first + _EDGE_CHUNK] + 1
            last = first + max(1, int(np.searchsorted(
                np.arange(1, len(sizes) + 1) * sizes, _EDGE_CHUNK, "right")))
            cuts.append((first, last, int(deg[last - 1]) + 1))
            first = last
    src = np.concatenate((lo, hi))
    keys = src.astype(np.uint16) if k <= 1 << 16 else src  # a stable sort of 16-bit keys is a radix sort
    by_src = keys.argsort(kind="stable")
    src, dst = src[by_src], np.concatenate((hi, lo))[by_src]
    starts = deg.cumsum() - deg  # each position's run of sorted edges starts here
    rank = np.arange(1, len(src) + 1) - starts[src]  # 1..deg within each run
    blocks = []
    for first, last, rows in cuts:
        table = np.empty((rows, last - first), dtype=np.int64)
        table[:] = np.arange(first, last)
        edges = slice(starts[first], starts[last - 1] + deg[last - 1])
        table.ravel()[rank[edges] * (last - first) + (src[edges] - first)] = dst[edges]
        blocks.append((first, last, table))
    return nodes, lo, hi, blocks


def _level(blocks: list, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` with row i set to the OR of the ``rows`` that column i of its
    block's table names."""
    for first, last, table in blocks:
        np.bitwise_or.reduce(rows.take(table, axis=0), axis=0, out=out[first:last])
    return out


def _eccentricities(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(ecc, reach): hop eccentricities and the converged reach bitsets of
    the nodes of degree > 0, one row per position of ``_neighbour_tables``.

    Breadth-first search from all sources at once (Then et al., PVLDB 2014):
    the row of position i in ``reach`` is the bitset of positions within
    ``level`` hops of it, and each level ORs together the rows of i's closed
    neighbourhood {i} | N(i), one padded table per block. Level 1 ORs the
    identity rows, so it is the closed neighbourhoods, and counts the
    triangles if none are kept. Hop distances within a component are
    contiguous, so a row that stops growing already holds its whole
    component, and its eccentricity within it is the last level at which it
    grew. The search ends when no row grows, so the returned ``reach`` row
    of a position is its connected component.
    """
    nodes, lo, hi, blocks = _neighbour_tables(g)
    k = len(nodes)
    reach = _level(blocks, _identity(k), np.empty((k, -(-k // 64)), dtype=np.uint64))
    if g._triangles is None:
        _remember_triangles(g, reach, lo, hi)
    grown = np.empty_like(reach)
    ecc = np.ones(k, dtype=np.int64)  # every row grew at level 1: it gained a neighbour
    level = 1
    while True:
        grew = (_level(blocks, reach, grown) != reach).ravel().nonzero()[0]  # words that grew, row-major
        if not len(grew):
            return ecc, reach
        level += 1
        ecc[grew // reach.shape[1]] = level
        reach, grown = grown, reach


def diameter(g: Graph) -> int:
    """Maximum eccentricity within the largest connected component.

    Components of maximal size tie-break by taking the largest diameter
    among them. Computed on the largest component (rather than infinity)
    because sparse simulated graphs are routinely disconnected. A node's
    component size is the popcount of its converged reach row. Only the
    nodes of degree > 0 are searched: with an edge, the largest component
    has at least two nodes, so an isolated node never decides it; with
    none, the diameter is 0.
    """
    if g.node_count < 1:
        raise UndefinedFeature("diameter needs at least one node")
    ecc, reach = _eccentricities(g)
    if not len(ecc):
        return 0
    sizes = np.bitwise_count(reach).sum(axis=1)
    return int(ecc[sizes == sizes.max()].max())


def link_density(g: Graph) -> float:
    """|E| / C(n, 2)."""
    if g.node_count < 2:
        raise UndefinedFeature("link density needs at least two nodes")
    n = g.node_count
    return float(g.edge_count / (n * (n - 1) / 2))


def global_clustering(g: Graph) -> float:
    """3 * triangles / #2-paths (paths on 3 nodes, counted once per centre and
    pair of its neighbours), defined as 0 when the graph has no 2-path."""
    if g.node_count < 2:
        raise UndefinedFeature("clustering needs at least two nodes")
    d = g.degrees
    paths = int((d * (d - 1) // 2).sum())
    return 0.0 if paths == 0 else 3.0 * count_triangles(g) / paths


def extract_feature(g: Graph, kind: FeatureKind):
    """Evaluate one feature; returns int for discrete kinds, float otherwise.

    Raises UndefinedFeature when the kind's precondition fails for ``g``.
    """
    return _FEATURES[kind.name][0](g, kind)


#: Each feature token: (its extractor, called with the graph and the kind;
#: whether its values are integers).
_FEATURES = {
    "degree_entropy": (lambda g, kind: degree_entropy(g), False),
    "power_law_exponent": (lambda g, kind: power_law_mle(g.degrees, kind.d_min), False),
    "block_count": (lambda g, kind: estimate_block_count(g, kind.k_max), True),
    "triangle_count": (lambda g, kind: count_triangles(g), True),
    "diameter": (lambda g, kind: diameter(g), True),
    "link_density": (lambda g, kind: link_density(g), False),
    "global_clustering": (lambda g, kind: global_clustering(g), False),
}
