"""Scalar graph observables used for model comparison.

Each feature maps a graph to one number: entropy of the empirical degree
distribution, a fitted power-law exponent, an estimated block count, triangle
count, diameter, link density, or global clustering. Block count, triangle
count and diameter are integer-valued; the rest are real-valued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidSpec, UndefinedFeature
# connected_components and shortest_path_distances are not called here any
# more; they stay importable from this module because perfbench/spans.py wraps
# them under this module's name.
from .graph import (  # noqa: F401
    Graph,
    _closed_neighbourhoods,
    _edge_arrays,
    connected_components,
    degree_sequence,
    shortest_path_distances,
)

FEATURE_TOKENS = (
    "degree_entropy",
    "power_law_exponent",
    "block_count",
    "triangle_count",
    "diameter",
    "link_density",
    "global_clustering",
)
DISCRETE_TOKENS = frozenset({"block_count", "triangle_count", "diameter"})

DEFAULT_D_MIN = 1
DEFAULT_K_MAX = 16

#: Identifier of the block-count estimator, echoed in comparison reports.
BLOCK_COUNT_METHOD = "bethe_hessian"


@dataclass(frozen=True)
class FeatureKind:
    """A feature selector: token name plus the parameters some kinds take.

    ``d_min`` applies to power_law_exponent, ``k_max`` to block_count; both
    are ignored by the other kinds.
    """

    name: str
    d_min: int = DEFAULT_D_MIN
    k_max: int = DEFAULT_K_MAX

    def __post_init__(self):
        if self.name not in FEATURE_TOKENS:
            raise InvalidSpec(f"unknown feature {self.name!r}; expected one of {FEATURE_TOKENS}")
        if self.d_min < 1:
            raise InvalidSpec(f"d_min must be >= 1, got {self.d_min}")
        if self.k_max < 1:
            raise InvalidSpec(f"k_max must be >= 1, got {self.k_max}")

    @property
    def is_discrete(self) -> bool:
        return self.name in DISCRETE_TOKENS

    def to_json(self):
        out = {"kind": self.name}
        if self.name == "power_law_exponent":
            out["d_min"] = self.d_min
        if self.name == "block_count":
            out["k_max"] = self.k_max
        return out

    @classmethod
    def from_json(cls, obj) -> "FeatureKind":
        if isinstance(obj, str):
            return cls(obj)
        if isinstance(obj, dict) and "kind" in obj:
            try:
                return cls(obj["kind"],
                           d_min=int(obj.get("d_min", DEFAULT_D_MIN)),
                           k_max=int(obj.get("k_max", DEFAULT_K_MAX)))
            except (TypeError, ValueError):
                raise InvalidSpec(f"cannot parse feature kind from {obj!r}") from None
        raise InvalidSpec(f"cannot parse feature kind from {obj!r}")


def degree_entropy(g: Graph) -> float:
    """Shannon entropy (nats) of the empirical degree distribution.

    Zero exactly when the graph is regular.
    """
    if g.node_count < 1:
        raise UndefinedFeature("degree entropy needs at least one node")
    _, counts = np.unique(degree_sequence(g), return_counts=True)
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
    values = np.asarray(values, dtype=float)
    included = values[values >= d_min]
    if len(included) == 0:
        raise UndefinedFeature(f"no value reaches d_min={d_min}")
    return float(1.0 + len(included) / np.sum(np.log(included / (d_min - 0.5))))


def fit_power_law_mle(g: Graph, d_min: int = DEFAULT_D_MIN) -> float:
    """Power-law exponent fitted to the degree sequence (degrees >= d_min)."""
    return power_law_mle(degree_sequence(g), d_min)


def _negative_inertia(h: np.ndarray) -> int:
    """Negative-eigenvalue count of a symmetric matrix via LDL^T inertia.

    Uses the Bunch-Kaufman factorization (LAPACK sytrf); by Sylvester's law
    the block-diagonal factor carries the eigenvalue signs.
    """
    (sytrf,) = scipy.linalg.get_lapack_funcs(("sytrf",), (h,))
    ldu, ipiv, info = sytrf(h, lower=1)
    if info < 0:
        raise ValueError(f"sytrf failed with info={info}")
    n = h.shape[0]
    neg = 0
    i = 0
    while i < n:
        if ipiv[i] > 0:  # 1x1 pivot block
            neg += ldu[i, i] < 0.0
            i += 1
        else:  # 2x2 pivot block on rows i, i+1
            a11 = ldu[i, i]
            a22 = ldu[i + 1, i + 1]
            a21 = ldu[i + 1, i]
            det = a11 * a22 - a21 * a21
            if det < 0.0:
                neg += 1
            elif a11 + a22 < 0.0:
                neg += 2
            i += 2
    return int(neg)


def bethe_hessian(g: Graph, r: float) -> np.ndarray:
    """H(r) = (r^2 - 1) I - r A + D for the graph's adjacency A and degree D."""
    degrees = g.degrees
    n = g.node_count
    h = np.zeros((n, n))
    h[np.repeat(np.arange(n), degrees), g.indices] = 1.0
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
    degrees = degree_sequence(g).astype(float)
    two_m = degrees.sum()
    if two_m == 0:
        return 1
    excess = float((degrees * degrees).sum() / two_m - 1.0)
    if excess <= 1.0:
        return 1
    h = bethe_hessian(g, math.sqrt(excess))
    neg = _negative_inertia(h)
    return max(1, min(neg, k_max, g.node_count))


#: Adjacency entries gathered per numpy call in count_triangles and
#: _eccentricities, which bounds their temporaries to about
#: 16 * _EDGE_CHUNK * ceil(n / 64) bytes on dense graphs.
_EDGE_CHUNK = 1 << 14

# SWAR masks, as 0-d arrays: numpy applies these faster than uint64 scalars
_M1, _M2, _M4, _H01 = (np.array(m, dtype=np.uint64) for m in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101))
_S1, _S2, _S4, _S56 = (np.array(s, dtype=np.uint64) for s in (1, 2, 4, 56))


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 word, computed in place in ``x`` and returned.

    SWAR: bit counts of 2-, 4- and 8-bit fields, then one multiply sums the
    eight byte counts into the top byte. The steps share one temporary the
    size of ``x``.
    """
    t = x >> _S1
    t &= _M1
    x -= t
    np.right_shift(x, _S2, out=t)
    t &= _M2
    x &= _M2
    x += t
    np.right_shift(x, _S4, out=t)
    x += t
    x &= _M4
    x *= _H01
    x >>= _S56
    return x


def _packed_adjacency(g: Graph) -> np.ndarray:
    """n x ceil(n / 64) uint64 bitset whose row v has bit u set iff u ~ v.

    Rows are packed through a dense boolean mask in blocks of
    _EDGE_CHUNK // 8 rows, so a block's mask is no larger than one gather of
    _EDGE_CHUNK packed rows; graphs up to that many nodes pack in one block.
    """
    n = g.node_count
    width = 64 * -(-n // 64)
    step = max(1, _EDGE_CHUNK // 8)
    bits = np.empty((n, width // 64), dtype=np.uint64)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        mask = np.zeros((hi - lo) * width, dtype=bool)
        starts = np.repeat(np.arange(0, (hi - lo) * width, width), g.degrees[lo:hi])
        mask[starts + g.indices[g.indptr[lo]:g.indptr[hi]]] = True
        bits[lo:hi] = np.packbits(mask, bitorder="little").view(np.uint64).reshape(hi - lo, -1)
        del mask  # free it before the next block's mask is allocated
    return bits


def count_triangles(g: Graph) -> int:
    """Number of node triples inducing a triangle (each counted once).

    Sums |N(u) & N(v)| over the edges u < v, as popcounts of the packed
    adjacency rows; each triangle is seen from its three edges. The count is
    kept on the graph, so clustering on the same graph does not redo it.
    """
    if g._triangles is None:
        bits = _packed_adjacency(g)
        us, vs = _edge_arrays(g)
        total = 0
        for lo in range(0, len(us), _EDGE_CHUNK):
            hi = lo + _EDGE_CHUNK
            common = np.take(bits, us[lo:hi], axis=0)
            common &= np.take(bits, vs[lo:hi], axis=0)
            total += int(_popcount(common).sum())
        object.__setattr__(g, "_triangles", total // 3)
    return g._triangles


def _eccentricities(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(ecc, reach): hop eccentricities and the converged reach bitsets.

    Breadth-first search from all sources at once: row v of ``reach`` is the
    bitset of nodes within ``level`` hops of v, and each level ORs together
    the rows of v's closed neighbourhood {v} | N(v). Hop distances within a
    component are contiguous, so a row that stops growing already holds v's
    whole component, and v's eccentricity within it is the last level at
    which its row grew. The search ends when no row grows, so row v of the
    returned ``reach`` is v's connected component.
    """
    n = g.node_count
    nodes = np.arange(n)
    ptr, closed = _closed_neighbourhoods(g)
    # node blocks of about _EDGE_CHUNK closed-neighbourhood entries each
    cuts = sorted({0, n, *np.searchsorted(ptr, range(_EDGE_CHUNK, ptr[-1], _EDGE_CHUNK)).tolist()})
    blocks = [(lo, hi, closed[ptr[lo]:ptr[hi]], ptr[lo:hi] - ptr[lo])
              for lo, hi in zip(cuts, cuts[1:])]
    reach = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    reach[nodes, nodes >> 6] = np.uint64(1) << (nodes & 63).astype(np.uint64)
    grown = np.empty_like(reach)
    ecc = np.zeros(n, dtype=np.int64)
    level = 0
    while True:
        for lo, hi, members, offsets in blocks:
            np.bitwise_or.reduceat(np.take(reach, members, axis=0), offsets,
                                   axis=0, out=grown[lo:hi])
        changed = (grown != reach).any(axis=1)
        if not changed.any():
            return ecc, reach
        level += 1
        ecc[changed] = level
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
    sizes = _popcount(reach).sum(axis=1)
    return int(ecc[sizes == sizes.max()].max())


def count_two_paths(g: Graph) -> int:
    """Number of connected 2-paths (paths on 3 nodes, center counted per pair)."""
    d = g.degrees
    return int((d * (d - 1) // 2).sum())


def link_density(g: Graph) -> float:
    """|E| / C(n, 2)."""
    if g.node_count < 2:
        raise UndefinedFeature("link density needs at least two nodes")
    n = g.node_count
    return float(g.edge_count / (n * (n - 1) / 2))


def density_and_clustering(g: Graph) -> tuple[float, float]:
    """(link density, global clustering).

    density = |E| / C(n, 2); clustering = 3 * triangles / #2-paths, defined
    as 0 when the graph has no 2-path.
    """
    density = link_density(g)
    paths = count_two_paths(g)
    clustering = 0.0 if paths == 0 else 3.0 * count_triangles(g) / paths
    return density, float(clustering)


def extract_feature(g: Graph, kind: FeatureKind):
    """Evaluate one feature; returns int for discrete kinds, float otherwise.

    Raises UndefinedFeature when the kind's precondition fails for ``g``.
    """
    name = kind.name
    if name == "degree_entropy":
        return degree_entropy(g)
    if name == "power_law_exponent":
        return fit_power_law_mle(g, kind.d_min)
    if name == "block_count":
        return estimate_block_count(g, min(kind.k_max, max(1, g.node_count)))
    if name == "triangle_count":
        return count_triangles(g)
    if name == "diameter":
        return diameter(g)
    if name == "link_density":
        return link_density(g)
    if name == "global_clustering":
        if g.node_count < 2:
            raise UndefinedFeature("clustering needs at least two nodes")
        return density_and_clustering(g)[1]
    raise InvalidSpec(f"unknown feature {name!r}")
