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


def _strict_int(value, name: str) -> int:
    """``value`` itself when it is an integer and not a bool; a float, a string
    or a bool in an integer field of a spec is an error, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidSpec(f"{name} must be an integer, got {value!r}")
    return value


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
            return cls(obj["kind"],
                       d_min=_strict_int(obj.get("d_min", DEFAULT_D_MIN), "d_min"),
                       k_max=_strict_int(obj.get("k_max", DEFAULT_K_MAX), "k_max"))
        raise InvalidSpec(f"cannot parse feature kind from {obj!r}")


def degree_entropy(g: Graph) -> float:
    """Shannon entropy (nats) of the empirical degree distribution.

    Zero exactly when the graph is regular.
    """
    if g.node_count < 1:
        raise UndefinedFeature("degree entropy needs at least one node")
    _, counts = np.unique(g.degrees, return_counts=True)
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


#: Rows gathered per numpy call in count_triangles and _eccentricities, which
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


def _eccentricities(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(ecc, reach): hop eccentricities and the converged reach bitsets.

    Breadth-first search from all sources at once: row v of ``reach`` is the
    bitset of nodes within ``level`` hops of v, and each level ORs together
    the rows of v's closed neighbourhood {v} | N(v); level 1, where the rows
    of non-isolated nodes grew, also counts the triangles if none are kept.
    Hop distances within a component are contiguous, so a row that stops
    growing already holds v's whole component, and v's eccentricity within it
    is the last level at which its row grew. The search ends when no row
    grows, so row v of the returned ``reach`` is v's connected component.
    """
    n = g.node_count
    ptr, closed = g._closed_neighbourhoods()
    # node blocks of about _EDGE_CHUNK closed-neighbourhood entries each
    cuts = sorted({0, n, *np.searchsorted(ptr, range(_EDGE_CHUNK, ptr[-1], _EDGE_CHUNK)).tolist()})
    blocks = [(lo, hi, closed[ptr[lo]:ptr[hi]], ptr[lo:hi] - ptr[lo])
              for lo, hi in zip(cuts, cuts[1:])]
    reach = _packed_closed(g)
    if g._triangles is None:
        _remember_triangles(g, reach)
    grown = np.empty_like(reach)
    ecc = (g.degrees > 0).astype(np.int64)
    level = 1
    while True:
        for lo, hi, members, offsets in blocks:
            np.bitwise_or.reduceat(np.take(reach, members, axis=0), offsets,
                                   axis=0, out=grown[lo:hi])
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
        return global_clustering(g)
    raise InvalidSpec(f"unknown feature {name!r}")
