"""Random-network model specifications and samplers.

Supported model families:

* Erdos-Renyi: every unordered node pair is an edge independently with
  probability p.
* Stochastic block model: edge probability depends only on the block
  memberships of the endpoints.
* Power-law degree model: a heavy-tailed degree sequence is drawn by inverse
  transform sampling and realized with an erased configuration model.
* Log-linear concordance model: P(G) proportional to
  exp(strength * sum_i w_i * f_i(G)), sampled by Metropolis-Hastings over
  single edge toggles.

Parameters may carry priors (point mass, uniform range, or weighted grid);
``sample_graph`` makes one prior-predictive draw from one random generator:
first the parameters, then a graph. Ensembles of draws (one derived seed per
sample, scheduled over worker processes) are made in ``inference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import InvalidInput, InvalidSpec
from .features import count_triangles
from .graph import Graph, _canonical_pairs, _from_pairs

_PAIR_CHUNK = 1 << 20  # max Bernoulli draws per RNG call when sampling pair sets


# --------------------------------------------------------------------------
# Parameter priors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PointPrior:
    value: float


@dataclass(frozen=True)
class UniformPrior:
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidSpec(f"uniform prior needs finite bounds, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise InvalidSpec(f"uniform prior needs lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class GridPrior:
    """Finite set of values with normalized non-negative weights."""

    values: tuple[float, ...]
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.values) == 0:
            raise InvalidSpec("grid prior needs at least one value")
        weights = self.weights
        if not weights:
            weights = tuple(1.0 / len(self.values) for _ in self.values)
        if len(weights) != len(self.values):
            raise InvalidSpec("grid weights must match values in length")
        if not all(math.isfinite(x) for x in (*self.values, *weights)):
            raise InvalidSpec(f"grid values and weights must be finite, got {self.values} "
                              f"and {weights}")
        if any(w < 0 for w in weights):
            raise InvalidSpec("grid weights must be non-negative")
        total = float(sum(weights))
        if total <= 0:
            raise InvalidSpec("grid weights must have positive sum")
        object.__setattr__(self, "weights", tuple(w / total for w in weights))


ParamPrior = Union[PointPrior, UniformPrior, GridPrior]


def sample_parameter(prior: ParamPrior, rng: np.random.Generator) -> float:
    """Draw one value from a parameter prior."""
    if isinstance(prior, PointPrior):
        return float(prior.value)
    if isinstance(prior, UniformPrior):
        return float(rng.uniform(prior.lo, prior.hi))
    if isinstance(prior, GridPrior):
        idx = rng.choice(len(prior.values), p=np.asarray(prior.weights))
        return float(prior.values[idx])
    raise InvalidSpec(f"unknown prior type {type(prior).__name__}")


def prior_support(prior: ParamPrior) -> tuple[float, float]:
    """(min, max) of the prior's support."""
    if isinstance(prior, PointPrior):
        return prior.value, prior.value
    if isinstance(prior, UniformPrior):
        return prior.lo, prior.hi
    return min(prior.values), max(prior.values)


# --------------------------------------------------------------------------
# Concordance terms for the log-linear model
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeCountTerm:
    """f(G) = number of edges."""

    def value(self, g: Graph) -> float:
        return float(g.edge_count)

    def delta(self, g: Graph, u: int, v: int) -> float:
        return -1.0 if g.has_edge(u, v) else 1.0


@dataclass(frozen=True)
class TriangleCountTerm:
    """f(G) = number of triangles."""

    def value(self, g: Graph) -> float:
        return float(count_triangles(g))

    def delta(self, g: Graph, u: int, v: int) -> float:
        common = g.common_neighbors(u, v)
        return -float(common) if g.has_edge(u, v) else float(common)


@dataclass(frozen=True)
class DegreeCountTerm:
    """f(G) = number of nodes whose degree equals ``degree``."""

    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise InvalidSpec("degree target must be non-negative")

    def value(self, g: Graph) -> float:
        return float(np.count_nonzero(g.degrees == self.degree))

    def delta(self, g: Graph, u: int, v: int) -> float:
        step = -1 if g.has_edge(u, v) else 1
        d = self.degree
        out = 0
        for x in (u, v):
            dx = g.degree(x)
            out += (dx + step == d) - (dx == d)
        return float(out)


@dataclass(frozen=True)
class IndividualEdgeTerm:
    """f(G) = 1 if the specific edge (u, v) is present."""

    u: int
    v: int

    def __post_init__(self):
        if self.u == self.v:
            raise InvalidSpec("individual-edge term cannot be a self-loop")

    def value(self, g: Graph) -> float:
        return 1.0 if g.has_edge(self.u, self.v) else 0.0

    def delta(self, g: Graph, u: int, v: int) -> float:
        if {u, v} != {self.u, self.v}:
            return 0.0
        return -1.0 if g.has_edge(u, v) else 1.0


ConcordanceTerm = Union[EdgeCountTerm, TriangleCountTerm, DegreeCountTerm, IndividualEdgeTerm]

_TERM_TOKENS = {
    "edge_count": EdgeCountTerm,
    "triangle_count": TriangleCountTerm,
    "degree_count": DegreeCountTerm,
    "individual_edge": IndividualEdgeTerm,
}


# --------------------------------------------------------------------------
# Model specifications
# --------------------------------------------------------------------------

def _as_prior(value) -> ParamPrior:
    if isinstance(value, (PointPrior, UniformPrior, GridPrior)):
        return value
    if isinstance(value, (int, float)):
        return PointPrior(float(value))
    raise InvalidSpec(f"cannot interpret {value!r} as a parameter prior")


@dataclass(frozen=True)
class DirichletMembership:
    """Block proportions drawn from a symmetric Dirichlet, then i.i.d. labels."""

    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise InvalidSpec("dirichlet concentration must be positive")


Membership = Union[None, tuple, DirichletMembership]


@dataclass(frozen=True)
class ErdosRenyi:
    n: int
    p: ParamPrior

    def __post_init__(self):
        object.__setattr__(self, "p", _as_prior(self.p))
        _check_n(self.n)
        lo, hi = prior_support(self.p)
        if lo < 0 or hi > 1:
            raise InvalidSpec(f"edge probability support [{lo}, {hi}] outside [0, 1]")


@dataclass(frozen=True)
class Sbm:
    """Blocks are equal consecutive index ranges unless ``membership`` says otherwise."""

    n: int
    k: Union[int, ParamPrior]
    p_in: Optional[float] = None
    p_out: Optional[float] = None
    edge_probs: Optional[tuple[tuple[float, ...], ...]] = None
    membership: Membership = None

    def __post_init__(self):
        _check_n(self.n)
        if isinstance(self.k, (PointPrior, UniformPrior, GridPrior)):
            lo, _ = prior_support(self.k)
            if lo < 1:
                raise InvalidSpec("block count support must be >= 1")
        else:
            object.__setattr__(self, "k", int(self.k))
            if self.k < 1:
                raise InvalidSpec(f"block count must be >= 1, got {self.k}")
        has_matrix = self.edge_probs is not None
        has_shorthand = self.p_in is not None or self.p_out is not None
        if has_matrix == has_shorthand:
            raise InvalidSpec("give either edge_probs or the (p_in, p_out) shorthand")
        if has_shorthand:
            if self.p_in is None or self.p_out is None:
                raise InvalidSpec("shorthand needs both p_in and p_out")
            for p in (self.p_in, self.p_out):
                if not 0 <= p <= 1:
                    raise InvalidSpec(f"edge probability {p} outside [0, 1]")
        else:
            if not isinstance(self.k, int):
                raise InvalidSpec("an explicit edge_probs matrix needs a fixed block count")
            mat = tuple(tuple(float(x) for x in row) for row in self.edge_probs)
            object.__setattr__(self, "edge_probs", mat)
            _validate_edge_probs(np.asarray(mat), self.k)
        if isinstance(self.membership, (list, tuple)):
            z = tuple(int(b) for b in self.membership)
            if len(z) != self.n:
                raise InvalidSpec("membership length must equal node count")
            kmax = self.k if isinstance(self.k, int) else None
            if kmax is not None and any(not 0 <= b < kmax for b in z):
                raise InvalidSpec("membership labels must lie in [0, K)")
            object.__setattr__(self, "membership", z)
        elif not (self.membership is None or isinstance(self.membership, DirichletMembership)):
            raise InvalidSpec("membership must be a label list, dirichlet spec, or omitted")


@dataclass(frozen=True)
class PowerLaw:
    n: int
    alpha: ParamPrior
    d_min: int = 1

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_prior(self.alpha))
        _check_n(self.n)
        lo, _ = prior_support(self.alpha)
        if lo <= 2:
            raise InvalidSpec(f"exponent support must stay above 2, got min {lo}")
        if self.d_min < 1:
            raise InvalidSpec(f"d_min must be >= 1, got {self.d_min}")


@dataclass(frozen=True)
class LogLinear:
    n: int
    strength: float
    terms: tuple[tuple[float, ConcordanceTerm], ...]
    burn_in: Optional[int] = None
    thin: Optional[int] = None

    def __post_init__(self):
        _check_n(self.n)
        terms = tuple((float(w), t) for w, t in self.terms)
        if not terms:
            raise InvalidSpec("log-linear model needs at least one concordance term")
        if not all(math.isfinite(x) for x in (self.strength, *(w for w, _ in terms))):
            raise InvalidSpec(f"log-linear strength and term weights must be finite, "
                              f"got {self.strength} and {[w for w, _ in terms]}")
        for name, least in (("burn_in", 0), ("thin", 1)):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)
                                      or value < least):
                raise InvalidSpec(f"{name} must be an integer >= {least}, got {value!r}")
        object.__setattr__(self, "terms", terms)


ModelSpec = Union[ErdosRenyi, Sbm, PowerLaw, LogLinear]


def _check_n(n: int) -> None:
    if n < 1:
        raise InvalidSpec(f"node count must be >= 1, got {n}")


def _validate_edge_probs(mat: np.ndarray, k: int) -> None:
    if mat.shape != (k, k):
        raise InvalidSpec(f"edge_probs must be {k}x{k}, got {mat.shape}")
    if not np.allclose(mat, mat.T, atol=0.0):
        raise InvalidSpec("edge_probs must be symmetric")
    if mat.min() < 0 or mat.max() > 1:
        raise InvalidSpec("edge_probs entries must lie in [0, 1]")


# --------------------------------------------------------------------------
# JSON (de)serialization
# --------------------------------------------------------------------------

def prior_to_json(prior: ParamPrior):
    if isinstance(prior, PointPrior):
        return {"point": prior.value}
    if isinstance(prior, UniformPrior):
        return {"uniform": [prior.lo, prior.hi]}
    return {"grid": {"values": list(prior.values), "weights": list(prior.weights)}}


def parse_prior(obj) -> ParamPrior:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return PointPrior(float(obj))
    if isinstance(obj, dict):
        if "point" in obj:
            return PointPrior(float(obj["point"]))
        if "uniform" in obj:
            lo, hi = obj["uniform"]
            return UniformPrior(float(lo), float(hi))
        if "grid" in obj:
            grid = obj["grid"]
            return GridPrior(tuple(float(v) for v in grid["values"]),
                             tuple(float(w) for w in grid.get("weights", ())))
    raise InvalidSpec(f"cannot parse parameter prior from {obj!r}")


def _term_to_json(weight: float, term: ConcordanceTerm) -> dict:
    out = {"weight": weight}
    if isinstance(term, EdgeCountTerm):
        out["f"] = "edge_count"
    elif isinstance(term, TriangleCountTerm):
        out["f"] = "triangle_count"
    elif isinstance(term, DegreeCountTerm):
        out["f"] = "degree_count"
        out["d"] = term.degree
    elif isinstance(term, IndividualEdgeTerm):
        out["f"] = "individual_edge"
        out["u"] = term.u
        out["v"] = term.v
    else:
        raise InvalidSpec(f"unknown concordance term {term!r}")
    return out


def _parse_term(obj: dict) -> tuple[float, ConcordanceTerm]:
    try:
        weight = float(obj.get("weight", 1.0))
        kind = obj["f"]
    except (KeyError, TypeError, ValueError):
        raise InvalidSpec(f"cannot parse concordance term from {obj!r}") from None
    if kind == "edge_count":
        return weight, EdgeCountTerm()
    if kind == "triangle_count":
        return weight, TriangleCountTerm()
    if kind == "degree_count":
        return weight, DegreeCountTerm(int(obj["d"]))
    if kind == "individual_edge":
        return weight, IndividualEdgeTerm(int(obj["u"]), int(obj["v"]))
    raise InvalidSpec(f"unknown concordance function id {kind!r}")


def model_spec_to_json(spec: ModelSpec) -> dict:
    if isinstance(spec, ErdosRenyi):
        return {"type": "er", "n": spec.n, "p": prior_to_json(spec.p)}
    if isinstance(spec, Sbm):
        out = {"type": "sbm", "n": spec.n}
        out["k"] = spec.k if isinstance(spec.k, int) else prior_to_json(spec.k)
        if spec.edge_probs is not None:
            out["edge_probs"] = [list(row) for row in spec.edge_probs]
        else:
            out["p_in"] = spec.p_in
            out["p_out"] = spec.p_out
        if isinstance(spec.membership, tuple):
            out["membership"] = list(spec.membership)
        elif isinstance(spec.membership, DirichletMembership):
            out["membership"] = {"dirichlet": spec.membership.alpha}
        return out
    if isinstance(spec, PowerLaw):
        return {"type": "powerlaw", "n": spec.n,
                "alpha": prior_to_json(spec.alpha), "d_min": spec.d_min}
    if isinstance(spec, LogLinear):
        out = {"type": "loglinear", "n": spec.n, "lambda": spec.strength,
               "terms": [_term_to_json(w, t) for w, t in spec.terms]}
        if spec.burn_in is not None:
            out["burn_in"] = spec.burn_in
        if spec.thin is not None:
            out["thin"] = spec.thin
        return out
    raise InvalidSpec(f"unknown model spec {spec!r}")


def parse_model_spec(obj: dict) -> ModelSpec:
    if not isinstance(obj, dict) or "type" not in obj or "n" not in obj:
        raise InvalidSpec("model spec must be an object with 'type' and 'n'")
    kind = obj["type"]
    n = int(obj["n"])
    if kind == "er":
        return ErdosRenyi(n, parse_prior(obj["p"]))
    if kind == "sbm":
        k = obj.get("k", obj.get("K"))
        if k is None:
            raise InvalidSpec("sbm spec needs a block count 'k'")
        k = int(k) if isinstance(k, (int, float)) and not isinstance(k, bool) else parse_prior(k)
        membership = obj.get("membership")
        if isinstance(membership, dict) and "dirichlet" in membership:
            membership = DirichletMembership(float(membership["dirichlet"]))
        elif isinstance(membership, list):
            membership = tuple(int(b) for b in membership)
        elif membership is not None:
            raise InvalidSpec(f"cannot parse membership {membership!r}")
        edge_probs = obj.get("edge_probs")
        if edge_probs is not None:
            edge_probs = tuple(tuple(float(x) for x in row) for row in edge_probs)
        p_in = obj.get("p_in")
        p_out = obj.get("p_out")
        return Sbm(n, k, p_in=p_in, p_out=p_out, edge_probs=edge_probs, membership=membership)
    if kind == "powerlaw":
        return PowerLaw(n, parse_prior(obj["alpha"]), int(obj.get("d_min", 1)))
    if kind == "loglinear":
        terms = tuple(_parse_term(t) for t in obj.get("terms", []))
        return LogLinear(n, float(obj["lambda"]), terms,
                         burn_in=obj.get("burn_in"), thin=obj.get("thin"))
    raise InvalidSpec(f"unknown model type {kind!r}")


# --------------------------------------------------------------------------
# Generators
# --------------------------------------------------------------------------

def _row_chunks(n: int, chunk_pairs: int) -> Iterator[list[int]]:
    """Group rows u of the strict upper triangle so each group has a bounded pair count."""
    rows: list[int] = []
    total = 0
    for u in range(n - 1):
        rows.append(u)
        total += n - 1 - u
        if total >= chunk_pairs:
            yield rows
            rows = []
            total = 0
    if rows:
        yield rows


_PAIR_INDEX_CACHE: dict = {}
_PAIR_PROB_CACHE: dict = {}


def _remember(cache: dict, key, value):
    if len(cache) > 8:  # keep the caches tiny
        cache.clear()
    cache[key] = value
    return value


def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major strict upper-triangle indices, cached for reuse across draws."""
    cached = _PAIR_INDEX_CACHE.get(n)
    if cached is None:
        cached = _remember(_PAIR_INDEX_CACHE, n, np.triu_indices(n, 1))
    return cached


def _sample_pair_graph(n: int, pair_probs, rng: np.random.Generator,
                       cache_key=None) -> Graph:
    """Draw each unordered pair independently.

    ``pair_probs(iu, ju)`` returns the per-pair probabilities (scalar or
    array) for row-major upper-triangle index arrays. Pairs are consumed in
    row-major order in bounded chunks, so draws depend only on (n, rng state).
    A ``cache_key`` says that ``pair_probs`` is fixed: its probabilities over
    all pairs are then computed once per key and reused by later draws.
    """
    total_pairs = n * (n - 1) // 2
    if total_pairs <= _PAIR_CHUNK:
        iu, ju = _pair_indices(n)
        probs = _PAIR_PROB_CACHE.get(cache_key) if cache_key is not None else None
        if probs is None:
            probs = pair_probs(iu, ju)
            if cache_key is not None:
                _remember(_PAIR_PROB_CACHE, cache_key, probs)
        hits = np.flatnonzero(rng.random(total_pairs) < probs)
        return _from_pairs(n, iu[hits], ju[hits])
    # large n: bounded memory, same row-major consumption order
    los, his = [], []
    for rows in _row_chunks(n, _PAIR_CHUNK):
        iu = np.concatenate([np.full(n - 1 - u, u, dtype=np.int64) for u in rows])
        ju = np.concatenate([np.arange(u + 1, n, dtype=np.int64) for u in rows])
        mask = rng.random(len(iu)) < pair_probs(iu, ju)
        los.append(iu[mask])
        his.append(ju[mask])
    return _from_pairs(n, np.concatenate(los), np.concatenate(his))


def generate_er(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi draw: each pair is an edge independently with probability p."""
    if not 0 <= p <= 1:
        raise InvalidSpec(f"edge probability {p} outside [0, 1]")
    _check_n(n)
    return _sample_pair_graph(n, lambda iu, ju: p, rng)


def generate_sbm(n: int, k: int, membership: Sequence[int], edge_probs,
                 rng: np.random.Generator, cache_key=None) -> Graph:
    """Block-model draw: pair (u, v) is an edge w.p. edge_probs[z_u][z_v].

    Draws that pass the same ``cache_key`` must pass the same membership and
    edge_probs; they share one pair-probability vector, and the arguments are
    checked only while the key is not cached.
    """
    _check_n(n)
    mat = np.asarray(edge_probs, dtype=float)
    z = np.asarray(membership, dtype=np.int64)
    if cache_key not in _PAIR_PROB_CACHE:
        _validate_edge_probs(mat, k)
        if z.shape != (n,):
            raise InvalidSpec(f"membership must have length {n}")
        if z.min() < 0 or z.max() >= k:
            raise InvalidSpec("membership labels must lie in [0, K)")
    return _sample_pair_graph(n, lambda iu, ju: mat[z[iu], z[ju]], rng, cache_key)


def equal_blocks(n: int, k: int) -> np.ndarray:
    """Fixed membership with near-equal consecutive blocks (remainder spread first)."""
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    return np.repeat(np.arange(k), sizes)


def sample_powerlaw_degrees(n: int, alpha: float, d_min: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Heavy-tailed degree sequence via floor(d_min * U^(-1/(alpha-1))).

    Degrees are clamped at n-1; if the total is odd, one uniformly chosen
    entry below the clamp is incremented so a stub pairing exists.
    """
    if alpha <= 2:
        raise InvalidSpec(f"exponent must exceed 2 (finite mean), got {alpha}")
    if d_min < 1:
        raise InvalidSpec(f"d_min must be >= 1, got {d_min}")
    _check_n(n)
    u = rng.random(n)
    raw = np.floor(d_min * u ** (-1.0 / (alpha - 1.0)))
    degrees = np.minimum(n - 1, raw).astype(np.int64)
    if degrees.sum() % 2 == 1:
        below = np.flatnonzero(degrees < n - 1)
        degrees[below[rng.integers(len(below))]] += 1
    return degrees


def generate_from_degrees(degrees: Sequence[int], rng: np.random.Generator) -> Graph:
    """Erased configuration model: pair stubs uniformly, drop self-loops and
    duplicate pairs. Realized degrees never exceed the requested ones."""
    degrees = np.asarray(degrees, dtype=np.int64)
    n = len(degrees)
    _check_n(n)
    if degrees.min() < 0:
        raise InvalidSpec("degrees must be non-negative")
    if degrees.max() > n - 1:
        raise InvalidSpec("a degree exceeds n - 1")
    if degrees.sum() % 2 == 1:
        raise InvalidSpec("degree sum must be even")
    stubs = np.repeat(np.arange(n), degrees)
    rng.shuffle(stubs)
    return _from_pairs(n, *_canonical_pairs(n, stubs[0::2], stubs[1::2]))


def default_burn_in(n: int) -> int:
    return 10 * n * n


def default_thin(n: int) -> int:
    return n * n


def mh_loglinear_sample(spec: LogLinear, count: int, burn_in: Optional[int] = None,
                        thin: Optional[int] = None,
                        rng: Optional[np.random.Generator] = None) -> list[Graph]:
    """Metropolis-Hastings sampler for the log-linear concordance model.

    Starting from the empty graph, each step first holds with probability 0.1
    (a lazy chain: a bare toggle kernel has period two whenever every proposal
    is accepted, e.g. at zero strength); otherwise a uniformly chosen node
    pair is proposed for toggling and accepted with probability
    min(1, exp(strength * sum_i w_i * delta_f_i)). Every ``thin``-th state
    after ``burn_in`` steps is returned, so the k-th retained graph is the
    chain state after burn_in + k * thin steps.

    Defaults: burn_in = 10 n^2, thin = n^2 (one sweep-scale unit per sample).
    """
    if count < 1:
        raise InvalidInput(f"count must be >= 1, got {count}")
    if rng is None:
        rng = np.random.default_rng()
    n = spec.n
    if burn_in is None:
        burn_in = spec.burn_in if spec.burn_in is not None else default_burn_in(n)
    if thin is None:
        thin = spec.thin if spec.thin is not None else default_thin(n)
    if burn_in < 0 or thin < 1:
        raise InvalidInput("burn_in must be >= 0 and thin >= 1")
    if n < 2:
        return [_snapshot([set() for _ in range(n)])] * count

    pairs = [(u, v) for u in range(n - 1) for v in range(u + 1, n)]
    m = len(pairs)
    adj: list[set[int]] = [set() for _ in range(n)]
    view = _AdjView(adj)
    strength = spec.strength
    terms = spec.terms

    out: list[Graph] = []
    total_steps = burn_in + count * thin
    next_snapshot = burn_in + thin
    step = 0
    batch = 1 << 14
    exp = math.exp
    hold = 0.1
    rescale = 1.0 / (1.0 - hold)
    while step < total_steps:
        k_idx = rng.integers(0, m, size=min(batch, total_steps - step))
        u01 = rng.random(len(k_idx))
        for k, u_step in zip(k_idx.tolist(), u01.tolist()):
            # u_step < hold: lazy step; otherwise (u_step - hold)/(1 - hold)
            # is an independent Uniform(0,1) reused for the acceptance test.
            if u_step >= hold:
                u, v = pairs[k]
                delta = sum(w * t.delta(view, u, v) for w, t in terms)
                log_ratio = strength * delta
                if log_ratio >= 0 or (u_step - hold) * rescale < exp(log_ratio):
                    if v in adj[u]:
                        adj[u].discard(v)
                        adj[v].discard(u)
                    else:
                        adj[u].add(v)
                        adj[v].add(u)
            step += 1
            if step == next_snapshot:
                out.append(_snapshot(adj))
                next_snapshot += thin
                if len(out) == count:
                    return out
    return out


def _snapshot(adj: list[set[int]]) -> Graph:
    """The graph whose neighbour sets are ``adj``."""
    n = len(adj)
    src = np.repeat(np.arange(n), [len(s) for s in adj])
    dst = np.fromiter(chain.from_iterable(adj), dtype=np.int64, count=len(src))
    return _from_pairs(n, *_canonical_pairs(n, src, dst))


class _AdjView:
    """Read-only Graph-shaped view over the sampler's mutable neighbour sets,
    answering the queries the concordance terms' ``delta`` makes."""

    __slots__ = ("sets",)

    def __init__(self, sets: list[set[int]]):
        self.sets = sets

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.sets[u]

    def degree(self, v: int) -> int:
        return len(self.sets[v])

    def common_neighbors(self, u: int, v: int) -> int:
        return len(self.sets[u] & self.sets[v])


def sample_graph(spec: ModelSpec, rng: np.random.Generator) -> Graph:
    """One prior-predictive draw: sample parameters from their priors, then a graph."""
    if isinstance(spec, ErdosRenyi):
        return generate_er(spec.n, sample_parameter(spec.p, rng), rng)
    if isinstance(spec, Sbm):
        k = spec.k if isinstance(spec.k, int) else int(round(sample_parameter(spec.k, rng)))
        if k < 1:
            raise InvalidSpec(f"sampled block count {k} < 1")
        # a fixed membership fixes the pair probabilities for this k
        cache_key = (spec, k)
        if isinstance(spec.membership, tuple):
            z = np.asarray(spec.membership, dtype=np.int64)
        elif isinstance(spec.membership, DirichletMembership):
            props = rng.dirichlet(np.full(k, spec.membership.alpha))
            z = rng.choice(k, size=spec.n, p=props)
            cache_key = None
        else:
            z = equal_blocks(spec.n, k)
        if spec.edge_probs is not None:
            mat = np.asarray(spec.edge_probs, dtype=float)
        else:
            mat = np.full((k, k), spec.p_out, dtype=float)
            np.fill_diagonal(mat, spec.p_in)
        return generate_sbm(spec.n, k, z, mat, rng, cache_key)
    if isinstance(spec, PowerLaw):
        alpha = sample_parameter(spec.alpha, rng)
        degrees = sample_powerlaw_degrees(spec.n, alpha, spec.d_min, rng)
        return generate_from_degrees(degrees, rng)
    if isinstance(spec, LogLinear):
        return mh_loglinear_sample(spec, count=1, rng=rng)[0]
    raise InvalidSpec(f"unknown model spec {spec!r}")
