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
from .graph import Graph, connected_components, degree_sequence, shortest_path_distances

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
            return cls(obj["kind"],
                       d_min=int(obj.get("d_min", DEFAULT_D_MIN)),
                       k_max=int(obj.get("k_max", DEFAULT_K_MAX)))
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


def _dense_adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.node_count, g.node_count))
    rows: list[int] = []
    cols: list[int] = []
    for u in range(g.node_count):
        for v in g.adjacency[u]:  # both orientations are present in the sets
            rows.append(u)
            cols.append(v)
    if rows:
        a[rows, cols] = 1.0
    return a


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
    a = _dense_adjacency(g)
    d = a.sum(axis=1)
    a *= -r
    idx = np.arange(g.node_count)
    a[idx, idx] += (r * r - 1.0) + d
    return a


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


def count_triangles(g: Graph) -> int:
    """Number of node triples inducing a triangle (each counted once)."""
    total = 0
    for u in range(g.node_count):
        adj_u = g.adjacency[u]
        for v in adj_u:
            if v > u:
                total += sum(1 for w in adj_u & g.adjacency[v] if w > v)
    return total


def diameter(g: Graph) -> int:
    """Maximum eccentricity within the largest connected component.

    Components of maximal size tie-break by taking the largest diameter
    among them. Computed on the largest component (rather than infinity)
    because sparse simulated graphs are routinely disconnected.
    """
    if g.node_count < 1:
        raise UndefinedFeature("diameter needs at least one node")
    comps = connected_components(g)
    biggest = max(len(c) for c in comps)
    best = 0
    for comp in comps:
        if len(comp) != biggest:
            continue
        for v in comp:
            dist = shortest_path_distances(g, v)
            ecc = max(dist[w] for w in comp)
            if ecc > best:
                best = ecc
    return best


def count_two_paths(g: Graph) -> int:
    """Number of connected 2-paths (paths on 3 nodes, center counted per pair)."""
    return int(sum(d * (d - 1) // 2 for d in degree_sequence(g)))


def density_and_clustering(g: Graph) -> tuple[float, float]:
    """(link density, global clustering).

    density = |E| / C(n, 2); clustering = 3 * triangles / #2-paths, defined
    as 0 when the graph has no 2-path.
    """
    if g.node_count < 2:
        raise UndefinedFeature("link density needs at least two nodes")
    n = g.node_count
    density = g.edge_count / (n * (n - 1) / 2)
    paths = count_two_paths(g)
    clustering = 0.0 if paths == 0 else 3.0 * count_triangles(g) / paths
    return float(density), float(clustering)


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
        return density_and_clustering(g)[0]
    if name == "global_clustering":
        if g.node_count < 2:
            raise UndefinedFeature("clustering needs at least two nodes")
        return density_and_clustering(g)[1]
    raise InvalidSpec(f"unknown feature {name!r}")
