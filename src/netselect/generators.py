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
  single edge toggles scored by each term's change statistic.

Parameters may carry priors (point mass, uniform range, or weighted grid);
``sample_graph`` makes one prior-predictive draw from one random generator:
first the parameters, then a graph. Ensembles of draws (one derived seed per
sample, scheduled over worker processes) are made in ``inference``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .errors import InvalidInput, InvalidSpec
from .features import _list_of, _object, _read, _strict_float, _strict_int, _typed
from .graph import Graph, _canonical_pairs

_PAIR_CHUNK = 1 << 20  # max pairs in one block of a pair draw (one row at least)


# --------------------------------------------------------------------------
# Parameter priors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PointPrior:
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise InvalidSpec(f"point prior needs a finite value, got {self.value}")


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
    """Finite set of values with normalized non-negative weights; ``cdf`` is
    their running sum over its last entry, as ``rng.choice`` would compute it."""

    values: tuple[float, ...]
    weights: tuple[float, ...] = ()
    cdf: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

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
        if not (self.weights and math.isclose(total, 1.0, rel_tol=1e-12)):
            # given weights that already sum to 1 stay as they are, so a grid
            # read back from its own JSON keeps its weights bit for bit
            weights = tuple(w / total for w in weights)
        object.__setattr__(self, "weights", tuple(float(w) for w in weights))
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        object.__setattr__(self, "cdf", cdf)


ParamPrior = Union[PointPrior, UniformPrior, GridPrior]


def sample_parameter(prior: ParamPrior, rng: np.random.Generator) -> float:
    """Draw one value from a parameter prior."""
    if isinstance(prior, PointPrior):
        return float(prior.value)
    if isinstance(prior, UniformPrior):
        return float(rng.uniform(prior.lo, prior.hi))
    if isinstance(prior, GridPrior):
        return float(prior.values[int(prior.cdf.searchsorted(rng.random(), side="right"))])
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
#
# Each term is a statistic f(G), held as its change statistic ``delta``
# (Hunter et al., "ergm", JSS 2008): f(G with pair {u, v} toggled) - f(G),
# computed from scalars only. ``sign`` is +1 if the toggle adds the edge and
# -1 if it removes it; ``common`` is the number of common neighbours of u
# and v, and ``du``, ``dv`` their degrees, all before the toggle.

@dataclass(frozen=True)
class EdgeCountTerm:
    """f(G) = number of edges."""

    def delta(self, sign: int, common: int, du: int, dv: int, u: int, v: int) -> float:
        return float(sign)


@dataclass(frozen=True)
class TriangleCountTerm:
    """f(G) = number of triangles."""

    def delta(self, sign: int, common: int, du: int, dv: int, u: int, v: int) -> float:
        return float(sign * common)


@dataclass(frozen=True)
class DegreeCountTerm:
    """f(G) = number of nodes whose degree equals ``degree``."""

    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise InvalidSpec("degree target must be non-negative")

    def delta(self, sign: int, common: int, du: int, dv: int, u: int, v: int) -> float:
        d = self.degree
        return float((du + sign == d) - (du == d) + (dv + sign == d) - (dv == d))


@dataclass(frozen=True)
class IndividualEdgeTerm:
    """f(G) = 1 if the specific edge (u, v) is present."""

    u: int
    v: int

    def __post_init__(self):
        if self.u == self.v:
            raise InvalidSpec("individual-edge term cannot be a self-loop")

    def delta(self, sign: int, common: int, du: int, dv: int, u: int, v: int) -> float:
        return float(sign) if {u, v} == {self.u, self.v} else 0.0


ConcordanceTerm = Union[EdgeCountTerm, TriangleCountTerm, DegreeCountTerm, IndividualEdgeTerm]


# --------------------------------------------------------------------------
# Model specifications
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DirichletMembership:
    """Block proportions drawn from a symmetric Dirichlet, then i.i.d. labels."""

    alpha: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:  # false for NaN too
            raise InvalidSpec(f"dirichlet concentration must be finite and positive, "
                              f"got {self.alpha}")


Membership = Union[None, tuple, DirichletMembership]


@dataclass(frozen=True)
class ErdosRenyi:
    n: int
    p: ParamPrior

    def __post_init__(self):
        object.__setattr__(self, "p", parse_prior(self.p))
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
        if isinstance(self.k, ParamPrior):
            lo, hi = prior_support(self.k)
            fixed = self.k.values if isinstance(self.k, GridPrior) else (lo, hi)
            if not isinstance(self.k, UniformPrior) and any(v != int(v) for v in fixed):
                raise InvalidSpec(f"block count point and grid values must be integers, "
                                  f"got {prior_to_json(self.k)}")
        else:
            object.__setattr__(self, "k", int(self.k))
            lo = hi = self.k
        if not 1 <= lo <= hi <= self.n:
            raise InvalidSpec(f"block count support [{lo}, {hi}] outside [1, n={self.n}]")
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
            k_least = int(round(lo))  # the smallest block count the prior can draw
            if any(not 0 <= b < k_least for b in z):
                raise InvalidSpec(f"membership labels must lie in [0, {k_least}), the "
                                  f"smallest block count the prior can draw")
            object.__setattr__(self, "membership", z)
        elif not (self.membership is None or isinstance(self.membership, DirichletMembership)):
            raise InvalidSpec("membership must be a label list, dirichlet spec, or omitted")


@dataclass(frozen=True)
class PowerLaw:
    n: int
    alpha: ParamPrior
    d_min: int = 1

    def __post_init__(self):
        object.__setattr__(self, "alpha", parse_prior(self.alpha))
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
            if value is not None and _strict_int(value, name) < least:
                raise InvalidSpec(f"{name} must be an integer >= {least}, got {value!r}")
        for _, term in terms:
            if isinstance(term, IndividualEdgeTerm) and not (
                    0 <= term.u < self.n and 0 <= term.v < self.n):
                raise InvalidSpec(f"individual-edge term ({term.u}, {term.v}) names a "
                                  f"node outside [0, n={self.n})")
        object.__setattr__(self, "terms", terms)


ModelSpec = Union[ErdosRenyi, Sbm, PowerLaw, LogLinear]

#: The parameter each family can put a grid prior on (``--grid``, study grids).
GRID_PARAMS = {ErdosRenyi: "p", Sbm: "k", PowerLaw: "alpha"}


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


def _uniform(value, name: str) -> UniformPrior:
    bounds = _list_of(_strict_float)(value, name)
    if len(bounds) != 2:
        raise InvalidSpec(f"{name} must be [lo, hi], got {value!r}")
    return UniformPrior(*bounds)


#: Each key of a prior object and how its value reads; the object holds one.
_PRIORS = {
    "point": (lambda value, name: PointPrior(_strict_float(value, name)), None),
    "uniform": (_uniform, None),
    "grid": (_object(GridPrior, {"values": (_list_of(_strict_float), ...),
                                 "weights": (_list_of(_strict_float), ())}), None),
}


def parse_prior(obj, name: str = "prior") -> ParamPrior:
    """A prior from a bare number (a point mass) or a point, uniform or grid
    object; a prior passes through as it is."""
    if isinstance(obj, ParamPrior):
        return obj
    if not isinstance(obj, dict):
        return PointPrior(_strict_float(obj, name))
    priors = [prior for prior in _read(obj, _PRIORS, name).values() if prior is not None]
    if len(priors) != 1:
        raise InvalidSpec(f"{name} needs one of {', '.join(_PRIORS)}, got {obj!r}")
    return priors[0]


def _membership(value, name: str) -> Membership:
    """A label list or a {"dirichlet": alpha} object."""
    if isinstance(value, list):
        return _list_of(_strict_int)(value, name)
    return _object(DirichletMembership, {"dirichlet": (_strict_float, ...)})(value, name)


def _read_tagged(obj, tag: str, tables: dict, what: str, lead: dict) -> list:
    """The values of the ``lead`` keys of ``obj``, then the object that
    ``tables[obj[tag]]``, a (class, fields) pair, builds from its other keys."""
    kind = obj.get(tag) if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in tables:
        raise InvalidSpec(f"{what} needs {tag!r}, one of {', '.join(tables)}; got {obj!r}")
    cls, fields = tables[kind]
    values = list(_read(obj, {**lead, tag: (_typed(str), ...), **fields},
                        f"{kind} {what}").values())
    return [*values[:len(lead)], cls(*values[len(lead) + 1:])]


def _tagged_json(obj, tag: str, tables: dict) -> dict:
    """``obj`` as JSON: its tag, then each non-null field in table order."""
    kind, fields = next((kind, fields) for kind, (cls, fields) in tables.items()
                        if type(obj) is cls)
    values = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    return {tag: kind, **{key: _to_json(v) for key, v in zip(fields, values) if v is not None}}


def _to_json(value):
    """The JSON form of a spec field's value."""
    if isinstance(value, ParamPrior):
        return prior_to_json(value)
    if isinstance(value, DirichletMembership):
        return {"dirichlet": value.alpha}
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], ConcordanceTerm):
        return {"weight": value[0], **_tagged_json(value[1], "f", _TERMS)}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


#: Each concordance term's "f" id: (class, fields in its argument order).
_TERMS = {
    "edge_count": (EdgeCountTerm, {}),
    "triangle_count": (TriangleCountTerm, {}),
    "degree_count": (DegreeCountTerm, {"d": (_strict_int, ...)}),
    "individual_edge": (IndividualEdgeTerm, {"u": (_strict_int, ...), "v": (_strict_int, ...)}),
}

#: Each model "type": (class, fields in its argument order).
_SPECS = {
    "er": (ErdosRenyi, {"n": (_strict_int, ...), "p": (parse_prior, ...)}),
    "sbm": (Sbm, {
        "n": (_strict_int, ...),
        "k": (lambda value, name: parse_prior(value, name) if isinstance(value, dict)
              else _strict_int(value, name), ...),
        "p_in": (_strict_float, None), "p_out": (_strict_float, None),
        "edge_probs": (_list_of(_list_of(_strict_float)), None),
        "membership": (_membership, None)}),
    "powerlaw": (PowerLaw, {
        "n": (_strict_int, ...), "alpha": (parse_prior, ...), "d_min": (_strict_int, 1)}),
    "loglinear": (LogLinear, {
        "n": (_strict_int, ...), "lambda": (_strict_float, ...),
        "terms": (_list_of(lambda value, name: _read_tagged(
            value, "f", _TERMS, "term", {"weight": (_strict_float, 1.0)})), ...),
        "burn_in": (_strict_int, None), "thin": (_strict_int, None)}),
}


def model_spec_to_json(spec: ModelSpec) -> dict:
    return _tagged_json(spec, "type", _SPECS)


def parse_model_spec(obj) -> ModelSpec:
    """A spec from its JSON object, whose "type" names the table of its other keys."""
    return _read_tagged(obj, "type", _SPECS, "spec", {})[0]


# --------------------------------------------------------------------------
# Generators
# --------------------------------------------------------------------------

_PAIR_INDEX_CACHE: dict = {}  # n -> (iu, ju)
_PAIR_PROB_CACHE: dict = {}  # fixed-membership (spec, k) -> probs over all pairs
_CACHE_BYTES = 9 * 8 * _PAIR_CHUNK  # per cache: 9 probability vectors at the largest one-block n
#: (state before, size, uniforms, state after, state one output in)
_LAST_UNIFORMS = (None, 0, None, None, None)


def _remember(cache: dict, key, value):
    """Store ``value`` (an array or a tuple of arrays) as ``cache``'s most
    recently used entry, then drop the least recently used entries while the
    cache's arrays hold more than ``_CACHE_BYTES`` (the newest entry always
    stays)."""
    cache[key] = value
    while len(cache) > 1 and sum(
            v.nbytes if isinstance(v, np.ndarray) else sum(a.nbytes for a in v)
            for v in cache.values()) > _CACHE_BYTES:
        del cache[next(iter(cache))]
    return value


def _recall(cache: dict, key):
    """The entry under ``key``, now the most recently used one; None if absent."""
    value = cache.pop(key, None)
    if value is not None:
        cache[key] = value
    return value


def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major strict upper-triangle indices, cached for reuse across draws."""
    return (_recall(_PAIR_INDEX_CACHE, n)
            or _remember(_PAIR_INDEX_CACHE, n, np.triu_indices(n, 1)))


def _uniforms(rng: np.random.Generator, size: int) -> np.ndarray:
    """``rng.random(size)``, read-only. A PCG64 generator keeps the last vector
    it drew with the states before it, one output into it and after it. A
    call of that size from the state before gets the vector; one from the
    state one output in (a draw that spent one output on a parameter first)
    gets its tail and one fresh draw. Both leave ``rng`` where the draw would
    have, so grid points and models drawn from one seed share the vector."""
    global _LAST_UNIFORMS
    if not isinstance(rng.bit_generator, np.random.PCG64):  # other states hold arrays
        return rng.random(size)
    before = rng.bit_generator.state
    start, memo_size, memo, after, one_in = _LAST_UNIFORMS
    if memo_size == size and before in (start, one_in):
        rng.bit_generator.state = after
        if before == start:
            return memo
        u = np.empty(size)
        u[:-1] = memo[1:]
        rng.random(out=u[-1:])
    else:
        u = np.empty(size)
        rng.random(out=u[:1])
        one_in = rng.bit_generator.state
        rng.random(out=u[1:])
        _LAST_UNIFORMS = (before, size, u, rng.bit_generator.state, one_in)
    u.flags.writeable = False
    return u


def _one_block(n: int) -> bool:
    """Whether all n(n-1)/2 pairs fit in one block of a pair draw."""
    return n * (n - 1) // 2 <= _PAIR_CHUNK


def _pair_blocks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The strict upper triangle's pairs (iu[i], ju[i]) in row-major order, in
    blocks of whole rows: one block (the cached ``np.triu_indices``) when
    ``_one_block(n)``, else blocks of ``_PAIR_CHUNK // (n - 1)`` rows (one at
    least), each of at most ``_PAIR_CHUNK`` pairs when a row fits."""
    if _one_block(n):
        yield _pair_indices(n)
        return
    rows = max(1, _PAIR_CHUNK // (n - 1))
    for lo in range(0, n - 1, rows):
        iu, ju = np.triu_indices(min(rows, n - 1 - lo), lo + 1, n)
        iu += lo
        yield iu, ju


def _sample_pair_graph(n: int, pair_probs, rng: np.random.Generator) -> Graph:
    """Draw each unordered pair independently: ``pair_probs(iu, ju)`` gives
    the probabilities (a scalar or an array) of the pairs (iu[i], ju[i]) of a
    block of ``_pair_blocks(n)``, whose uniforms come from ``_uniforms``.
    Consecutive blocks take consecutive outputs of ``rng``, so a draw depends
    on (n, pair_probs, rng state) and not on the blocking."""
    los, his = [], []
    for iu, ju in _pair_blocks(n):
        hits = (_uniforms(rng, len(iu)) < pair_probs(iu, ju)).nonzero()[0]
        los.append(iu.take(hits))
        his.append(ju.take(hits))
    if len(los) == 1:
        return Graph(n, los[0], his[0])
    return Graph(n, np.concatenate(los), np.concatenate(his))


def generate_er(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi draw: each pair is an edge independently with probability p."""
    if not 0 <= p <= 1:
        raise InvalidSpec(f"edge probability {p} outside [0, 1]")
    _check_n(n)
    return _sample_pair_graph(n, lambda iu, ju: p, rng)


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
    raw = rng.random(n) ** (-1.0 / (alpha - 1.0))
    raw *= d_min
    # raw > 0 (a zero uniform gives inf, which the clamp takes first), so the
    # truncating cast floors
    degrees = np.minimum(raw, n - 1).astype(np.int64)
    if degrees.sum() % 2 == 1:
        below = np.flatnonzero(degrees < n - 1)
        degrees[below[rng.integers(len(below))]] += 1
    return degrees


def _pair_stubs(degrees: np.ndarray, rng: np.random.Generator) -> Graph:
    """Erased configuration model: pair the shuffled stubs of a valid degree
    sequence (as ``sample_powerlaw_degrees`` makes them), drop self-loops and
    duplicate pairs. Realized degrees never exceed the requested ones."""
    n = len(degrees)
    stubs = np.arange(n).repeat(degrees)
    rng.shuffle(stubs)
    return Graph(n, *_canonical_pairs(n, stubs[0::2], stubs[1::2]))


def default_burn_in(n: int) -> int:
    return 10 * n * n


def default_thin(n: int) -> int:
    return n * n


def mh_loglinear_sample(spec: LogLinear, count: int,
                        rng: np.random.Generator) -> list[Graph]:
    """Metropolis-Hastings sampler for the log-linear concordance model.

    Starting from the empty graph, each step first holds with probability 0.1
    (a lazy chain: a bare toggle kernel has period two whenever every proposal
    is accepted, e.g. at zero strength); otherwise a uniformly chosen node
    pair is proposed for toggling and accepted with probability
    min(1, exp(strength * sum_i w_i * delta_f_i)). Every ``thin``-th state
    after ``burn_in`` steps is returned, so the k-th retained graph is the
    chain state after burn_in + k * thin steps; both come from the spec.

    The chain state is one Python int per node: bit v of ``adj[u]`` is set
    iff u ~ v, so a toggle is two XORs, degrees are ``bit_count()`` and the
    common neighbours of u and v are ``(adj[u] & adj[v]).bit_count()``.

    Defaults: burn_in = 10 n^2, thin = n^2 (one sweep-scale unit per sample).
    """
    if count < 1:
        raise InvalidInput(f"count must be >= 1, got {count}")
    n = spec.n
    burn_in = spec.burn_in if spec.burn_in is not None else default_burn_in(n)
    thin = spec.thin if spec.thin is not None else default_thin(n)
    adj = [0] * n
    if n < 2:
        return [_snapshot(adj)] * count

    pairs = [(u, v) for u in range(n - 1) for v in range(u + 1, n)]
    m = len(pairs)
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
                au, av = adj[u], adj[v]
                sign = -1 if au >> v & 1 else 1
                common = (au & av).bit_count()
                du, dv = au.bit_count(), av.bit_count()
                delta = sum(w * t.delta(sign, common, du, dv, u, v) for w, t in terms)
                log_ratio = strength * delta
                if log_ratio >= 0 or (u_step - hold) * rescale < exp(log_ratio):
                    adj[u] = au ^ (1 << v)
                    adj[v] = av ^ (1 << u)
            step += 1
            if step == next_snapshot:
                out.append(_snapshot(adj))
                next_snapshot += thin
                if len(out) == count:
                    return out
    return out


def _snapshot(adj: list[int]) -> Graph:
    """The graph whose neighbour bitsets are ``adj`` (bit v of adj[u] iff u ~ v)."""
    n = len(adj)
    width = (n + 7) // 8
    rows = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in adj),
                         dtype=np.uint8).reshape(n, width)
    mask = np.unpackbits(rows, axis=1, count=n, bitorder="little")
    return Graph(n, *np.nonzero(np.triu(mask, 1)))


def sample_graph(spec: ModelSpec, rng: np.random.Generator) -> Graph:
    """One prior-predictive draw: sample parameters from their priors, then a
    graph. A block model with a fixed membership keeps its pair probabilities
    at each k in ``_PAIR_PROB_CACHE[(spec, k)]`` when they are one block
    (``_one_block``); the spec checked them, so they are drawn unchecked."""
    if isinstance(spec, ErdosRenyi):
        return generate_er(spec.n, sample_parameter(spec.p, rng), rng)
    if isinstance(spec, Sbm):
        k = spec.k if isinstance(spec.k, int) else int(round(sample_parameter(spec.k, rng)))
        key = None if isinstance(spec.membership, DirichletMembership) else (spec, k)
        probs = None if key is None else _recall(_PAIR_PROB_CACHE, key)
        if probs is None:
            mat = (np.asarray(spec.edge_probs) if spec.edge_probs is not None
                   else np.where(np.eye(k, dtype=bool), spec.p_in, spec.p_out))
            if key is None:
                z = rng.choice(k, size=spec.n, p=rng.dirichlet(np.full(k, spec.membership.alpha)))
            else:
                z = np.array(spec.membership or equal_blocks(spec.n, k))
            pair_probs = lambda iu, ju: mat[z[iu], z[ju]]
            if key is None or not _one_block(spec.n):
                return _sample_pair_graph(spec.n, pair_probs, rng)
            probs = _remember(_PAIR_PROB_CACHE, key, pair_probs(*_pair_indices(spec.n)))
        return _sample_pair_graph(spec.n, lambda iu, ju: probs, rng)
    if isinstance(spec, PowerLaw):
        alpha = sample_parameter(spec.alpha, rng)
        return _pair_stubs(sample_powerlaw_degrees(spec.n, alpha, spec.d_min, rng), rng)
    if isinstance(spec, LogLinear):
        return mh_loglinear_sample(spec, count=1, rng=rng)[0]
    raise InvalidSpec(f"unknown model spec {spec!r}")
