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


def fit_power_law_mle(g: Graph, d_min: int = DEFAULT_D_MIN) -> float:
    """Power-law exponent fitted to the degree sequence (degrees >= d_min)."""
    return power_law_mle(g.degrees, d_min)


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
#: bounds their temporaries to about 16 * _EDGE_CHUNK * ceil(n / 64) bytes on
#: dense graphs; _packed_closed packs _EDGE_CHUNK // 8 rows per boolean mask.
_EDGE_CHUNK = 1 << 14

def _packed_closed(g: Graph) -> np.ndarray:
    """n x ceil(n / 64) uint64 bitset whose row v has bit u set iff u is in
    {v} | N(v), set from the edge arrays through a dense boolean mask in blocks
    of _EDGE_CHUNK // 8 rows (one block up to that many nodes), so a block's
    mask is no larger than one gather of _EDGE_CHUNK packed rows."""
    n = g.node_count
    width = 64 * -(-n // 64)
    step = max(1, _EDGE_CHUNK // 8)
    bits = np.empty((n, width // 64), dtype=np.uint64)
    keys = np.concatenate((g.lo * width + g.hi, g.hi * width + g.lo))  # flat bit of each end
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        mask = np.zeros((hi - lo) * width, dtype=bool)
        mask[lo::width + 1] = True  # row v holds v
        inside = (keys >= lo * width) & (keys < hi * width) if hi - lo < n else slice(None)
        mask[keys[inside] - lo * width] = True
        bits[lo:hi] = np.packbits(mask, bitorder="little").view(np.uint64).reshape(hi - lo, -1)
        del mask  # free it before the next block's mask is allocated
    return bits


def _remember_triangles(g: Graph, bits: np.ndarray) -> None:
    """Memoize the triangle count. For an edge u < v, N[u] & N[v] holds u, v and
    their common neighbours, so the popcounts sum to 3 * triangles + 2m."""
    total = 0
    for lo in range(0, g.edge_count, _EDGE_CHUNK):
        hi = lo + _EDGE_CHUNK
        common = np.take(bits, g.lo[lo:hi], axis=0)
        common &= np.take(bits, g.hi[lo:hi], axis=0)
        total += int(np.bitwise_count(common).sum())
    object.__setattr__(g, "_triangles", (total - 2 * g.edge_count) // 3)


def count_triangles(g: Graph) -> int:
    """Number of node triples inducing a triangle (each counted once), kept on
    the graph for clustering; ``diameter`` keeps it too, from its first level."""
    if g._triangles is None:
        _remember_triangles(g, _packed_closed(g))
    return g._triangles


def _closed_neighbourhoods(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, closed): row v, closed[ptr[v]:ptr[v + 1]], is {v} | N(v) ascending,
    as sorting the (hi, lo) edges, then (v, v), then the (lo, hi) edges stably
    by source puts smaller neighbours, v, larger ones."""
    n = g.node_count
    nodes = np.arange(n)
    src = np.concatenate((g.hi, nodes, g.lo))
    dst = np.concatenate((g.lo, nodes, g.hi))
    # a stable sort of 16-bit keys is a radix sort
    keys = src.astype(np.uint16) if n <= 1 << 16 else src
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(g.degrees + 1, out=ptr[1:])
    return ptr, dst[np.argsort(keys, kind="stable")]


def _neighbour_tables(g: Graph) -> tuple[np.ndarray, list]:
    """(order, blocks): the search's node order and, per block of consecutive
    positions lo..hi - 1 in it, the padded neighbour table ``(lo, hi, table)``
    (the SELL-C-sigma layout of Kreutzer et al., SIAM J. Sci. Comput. 2014).

    ``table[j, i]`` is the position of the j-th member of {v} | N(v), v the
    node at position lo + i, and of its last member for j past the row's end,
    up to the block's widest row (ORing a row twice changes nothing). When
    n times the widest row fits _EDGE_CHUNK entries there is one block in
    node order; otherwise the order is by ascending row size and each block
    takes as many rows as fit max(_EDGE_CHUNK, one row) entries, so a hub
    pads no other row and a block's gather stays bounded.
    """
    n = g.node_count
    ptr, closed = _closed_neighbourhoods(g)
    starts, sizes = ptr[:-1], np.diff(ptr)
    if n * int(sizes.max()) <= _EDGE_CHUNK:
        order, cuts = np.arange(n), [0, n]
    else:
        order = np.argsort(sizes, kind="stable")
        starts, sizes = starts[order], sizes[order]
        closed = np.argsort(order)[closed]  # members as positions in the order
        cuts = [0]
        while cuts[-1] < n:  # rows lo..hi - 1 fit when (hi - lo) * sizes[hi - 1] does
            rows = sizes[cuts[-1]:cuts[-1] + _EDGE_CHUNK]
            fit = np.searchsorted(np.arange(1, len(rows) + 1) * rows, _EDGE_CHUNK, "right")
            cuts.append(cuts[-1] + max(1, int(fit)))
    blocks = []
    for lo, hi in zip(cuts, cuts[1:]):
        last = sizes[lo:hi] - 1
        index = np.minimum(np.arange(last.max() + 1)[:, None], last)
        index += starts[lo:hi]
        blocks.append((lo, hi, closed[index]))
    return order, blocks


def _eccentricities(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(ecc, reach): hop eccentricities and the converged reach bitsets, both
    with one row per node in the order of ``_neighbour_tables``.

    Breadth-first search from all sources at once (Then et al., PVLDB 2014):
    the row of v in ``reach`` is the bitset of nodes within ``level`` hops of
    v, and each level ORs together the rows of v's closed neighbourhood
    {v} | N(v), one padded table per block; level 1, where the rows of
    non-isolated nodes grew, also counts the triangles if none are kept. Hop
    distances within a component are contiguous, so a row that stops growing
    already holds v's whole component, and v's eccentricity within it is the
    last level at which its row grew. The search ends when no row grows, so
    v's row of the returned ``reach`` is v's connected component.
    """
    order, blocks = _neighbour_tables(g)
    reach = _packed_closed(g)
    if g._triangles is None:
        _remember_triangles(g, reach)
    reach = reach[order]
    grown = np.empty_like(reach)
    ecc = (g.degrees[order] > 0).astype(np.int64)
    level = 1
    while True:
        for lo, hi, table in blocks:
            np.bitwise_or.reduce(reach.take(table, axis=0), axis=0, out=grown[lo:hi])
        grew = np.flatnonzero(grown != reach)  # words that grew, row-major
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
    component size is the popcount of its converged reach row.
    """
    if g.node_count < 1:
        raise UndefinedFeature("diameter needs at least one node")
    ecc, reach = _eccentricities(g)
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
    "power_law_exponent": (lambda g, kind: fit_power_law_mle(g, kind.d_min), False),
    "block_count": (lambda g, kind: estimate_block_count(g, kind.k_max), True),
    "triangle_count": (lambda g, kind: count_triangles(g), True),
    "diameter": (lambda g, kind: diameter(g), True),
    "link_density": (lambda g, kind: link_density(g), False),
    "global_clustering": (lambda g, kind: global_clustering(g), False),
}
