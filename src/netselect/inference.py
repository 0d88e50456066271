"""Evidence, Bayes factors, expected losses and decisions over feature ensembles.

The workflow: simulate prior-predictive graphs per model, reduce each graph to
a scalar feature, estimate the feature distribution (smoothed counts for
discrete features, Gaussian KDE for continuous ones), evaluate the observed
feature's evidence under each model, and combine evidence with expected-loss
ratios into a decision. Parameter posteriors over grids, node-cell sharding
and consensus merging of per-shard draws live here too.
"""

from __future__ import annotations

import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain, islice
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DegenerateRatio,
    InvalidInput,
    InvalidSpec,
    UndefinedBayesFactor,
    UndefinedFeature,
    UndefinedPosterior,
)
from .features import BLOCK_COUNT_METHOD, FeatureKind, extract_feature
from .generators import (
    ErdosRenyi,
    GridPrior,
    ModelSpec,
    PointPrior,
    PowerLaw,
    Sbm,
    model_spec_to_json,
    sample_graph,
)
from .graph import Graph, induced_subgraph
from .seeds import derive_seed

DEFAULT_PSEUDO_COUNT = 0.5
ZERO_VARIANCE_WEIGHT_CAP = 1e12
DECISION_REL_TOL = 1e-9

#: Fixed orientation of the decision rule, echoed in every report.
DECISION_RULE = "choose model_1 iff combined_ratio < posterior_odds"


class Decision(str, Enum):
    MODEL_1 = "model_1"
    MODEL_2 = "model_2"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True, eq=False)
class FeatureSamples:
    """Feature values extracted from one model's prior-predictive ensemble."""

    kind: FeatureKind
    values: np.ndarray
    model_id: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) == 0:
            raise InvalidInput("feature samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(values)):
            raise InvalidInput("feature samples must be finite")
        if self.kind.is_discrete and not np.all(values == np.round(values)):
            raise InvalidInput(f"{self.kind.name} is discrete; got non-integer samples")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DiscretePmf:
    """Observed counts with an additive pseudo-count for unseen values.

    The evidence of value x is (count(x) + a0) / (n + a0 * s), where s counts
    the distinct support values including x itself; always positive.
    ``integer_domain`` is False when the pmf is the degenerate fallback for a
    zero-variance continuous sample, whose observations need not be integers.
    """

    counts: dict
    n: int
    pseudo_count: float = DEFAULT_PSEUDO_COUNT
    integer_domain: bool = True

    def __post_init__(self):
        if self.n < 1 or sum(self.counts.values()) != self.n:
            raise InvalidInput("pmf counts must sum to n >= 1")
        if self.pseudo_count <= 0:
            raise InvalidInput("pseudo-count must be positive")

    def evaluate(self, x: float) -> float:
        x = float(x)
        support = len(self.counts) + (0 if x in self.counts else 1)
        return (self.counts.get(x, 0) + self.pseudo_count) / (
            self.n + self.pseudo_count * support)


@dataclass(frozen=True, eq=False)
class Kde:
    """Gaussian kernel density estimate with a fixed bandwidth."""

    values: np.ndarray
    bandwidth: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) == 0:
            raise InvalidInput("KDE needs a non-empty 1-D sample")
        if not self.bandwidth > 0:
            raise InvalidInput(f"bandwidth must be positive, got {self.bandwidth}")
        object.__setattr__(self, "values", values)

    def evaluate(self, x: float) -> float:
        z = (float(x) - self.values) / self.bandwidth
        return float(np.mean(np.exp(-0.5 * z * z)) / (self.bandwidth * math.sqrt(2 * math.pi)))


DensityEstimate = Union[DiscretePmf, Kde]


def silverman_bandwidth(values: np.ndarray) -> float:
    """0.9 * min(sd, IQR/1.34) * n^(-1/5); falls back to sd when the IQR is zero."""
    values = np.asarray(values, dtype=float)
    sd = float(np.std(values, ddof=1))
    q75, q25 = np.percentile(values, [75, 25])
    iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * scale * len(values) ** -0.2


def estimate_density(samples: FeatureSamples,
                     pseudo_count: float = DEFAULT_PSEUDO_COUNT) -> DensityEstimate:
    """Smoothed counts for discrete features, Silverman-bandwidth Gaussian KDE
    for continuous ones. A zero-variance continuous sample degrades to a point
    mass (a one-value DiscretePmf)."""
    values = samples.values
    if samples.kind.is_discrete:
        return _pmf_from_values(values, pseudo_count, integer_domain=True)
    if len(values) < 2 or float(np.std(values, ddof=1)) == 0.0:
        return _pmf_from_values(values, pseudo_count, integer_domain=False)
    return Kde(values, silverman_bandwidth(values))


def _pmf_from_values(values: np.ndarray, pseudo_count: float,
                     integer_domain: bool) -> DiscretePmf:
    uniq, counts = np.unique(values, return_counts=True)
    return DiscretePmf({float(u): int(c) for u, c in zip(uniq, counts)},
                       n=len(values), pseudo_count=pseudo_count,
                       integer_domain=integer_domain)


def evidence(density: DensityEstimate, observed: float) -> float:
    """Probability (mass or density) of the observed feature value."""
    if isinstance(observed, bool) or not isinstance(observed, (int, float, np.integer, np.floating)):
        raise InvalidInput(f"observed value must be a number, got {observed!r}")
    observed = float(observed)
    if not math.isfinite(observed):
        raise InvalidInput("observed value must be finite")
    if isinstance(density, DiscretePmf):
        if density.integer_domain and observed != int(observed):
            raise InvalidInput(
                f"observed {observed} is not integral but the feature is discrete")
        return density.evaluate(observed)
    if isinstance(density, Kde):
        return density.evaluate(observed)
    raise InvalidInput(f"unknown density estimate {density!r}")


def bayes_factor(ev1: float, ev2: float) -> float:
    """ev1 / ev2, with +inf when only ev2 vanishes."""
    if ev1 < 0 or ev2 < 0:
        raise InvalidInput("evidences must be non-negative")
    if ev1 == 0 and ev2 == 0:
        raise UndefinedBayesFactor("both evidences are zero")
    if ev2 == 0:
        return math.inf
    return ev1 / ev2


def posterior_model_probs(evidences: Sequence[float],
                          priors: Optional[Sequence[float]] = None) -> list[float]:
    """Posterior model probabilities: p_i proportional to evidence_i * prior_i."""
    evidences = [float(e) for e in evidences]
    if priors is None:
        priors = [1.0] * len(evidences)
    priors = [float(p) for p in priors]
    if len(priors) != len(evidences):
        raise InvalidInput("evidences and priors must have equal length")
    if any(p < 0 for p in priors) or sum(priors) <= 0:
        raise InvalidInput("priors must be non-negative with positive sum")
    products = [e * p for e, p in zip(evidences, priors)]
    total = sum(products)
    if total == 0:
        raise UndefinedPosterior("all evidence-prior products are zero")
    return [x / total for x in products]


@dataclass(frozen=True)
class LossKind:
    """Penalty between a simulated and the observed feature value.

    kind: "quadratic" (squared difference), "absolute", or "zero_one"
    (indicator of disagreement beyond ``tolerance``).
    """

    kind: str
    tolerance: float = 0.0

    def __post_init__(self):
        if self.kind not in ("quadratic", "absolute", "zero_one"):
            raise InvalidSpec(f"unknown loss kind {self.kind!r}")
        if self.tolerance < 0:
            raise InvalidSpec("tolerance must be non-negative")

    @classmethod
    def from_json(cls, obj) -> "LossKind":
        """A loss from its kind token or a {"kind", "tolerance"} object."""
        if isinstance(obj, str):
            return cls(obj)
        if isinstance(obj, dict):
            return cls(obj["kind"], float(obj.get("tolerance", 0.0)))
        raise InvalidSpec(f"cannot parse loss from {obj!r}")

    def apply(self, simulated: np.ndarray, observed: float) -> np.ndarray:
        diff = np.asarray(simulated, dtype=float) - float(observed)
        if self.kind == "quadratic":
            return diff * diff
        if self.kind == "absolute":
            return np.abs(diff)
        return (np.abs(diff) > self.tolerance).astype(float)


def expected_loss(samples: FeatureSamples, observed: float, loss: LossKind) -> float:
    """Monte Carlo mean of the loss between each sampled feature and the observation."""
    if not isinstance(observed, (int, float, np.integer, np.floating)):
        raise InvalidInput(f"observed value must be a number, got {observed!r}")
    return float(np.mean(loss.apply(samples.values, float(observed))))


def combined_loss_ratio(pairs: Sequence[tuple[float, float]]) -> float:
    """Arithmetic mean of per-feature expected-loss ratios el1/el2.

    Averaging ratios (not losses) makes the result invariant to any common
    rescaling of a single feature's loss pair, so no feature's scale can
    dominate the others.
    """
    if len(pairs) == 0:
        raise InvalidInput("need at least one expected-loss pair")
    ratios = []
    for el1, el2 in pairs:
        if el2 == 0:
            raise DegenerateRatio(f"zero denominator in loss pair ({el1}, {el2})")
        ratios.append(el1 / el2)
    return float(np.mean(ratios))


def decide(combined_ratio: float, posterior_odds: float) -> Decision:
    """Pick model_1 iff combined_ratio < posterior_odds; ties are indeterminate.

    Orientation is fixed so that both a smaller expected loss and a larger
    posterior probability favor a model monotonically.
    """
    if combined_ratio < 0 or posterior_odds < 0:
        raise InvalidInput("decision inputs must be non-negative")
    if combined_ratio == posterior_odds or math.isclose(
            combined_ratio, posterior_odds, rel_tol=DECISION_REL_TOL, abs_tol=0.0):
        return Decision.INDETERMINATE
    return Decision.MODEL_1 if combined_ratio < posterior_odds else Decision.MODEL_2


def range_probability(samples: FeatureSamples, lo: float, hi: float) -> tuple[float, float]:
    """(fraction of sampled values in [lo, hi], Monte Carlo standard error)."""
    if lo > hi:
        raise InvalidInput(f"need lo <= hi, got [{lo}, {hi}]")
    inside = (samples.values >= lo) & (samples.values <= hi)
    p = float(np.mean(inside))
    return p, math.sqrt(p * (1.0 - p) / samples.n)


# --------------------------------------------------------------------------
# Simulation plumbing: seeds -> graphs -> feature rows, one pool per call
# --------------------------------------------------------------------------

def pool_map(fn, jobs: list[tuple], workers: int) -> list:
    """Order-preserving map, optionally over a process pool."""
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        ctx = multiprocessing.get_context()
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        futures = [pool.submit(fn, *job) for job in jobs]
        return [f.result() for f in futures]


def _draw_chunk(spec: ModelSpec, kinds: Optional[tuple[FeatureKind, ...]],
                seeds: tuple[int, ...], first: int) -> list:
    """The draws from ``seeds``, which are samples first, first + 1, ...:
    graphs when ``kinds`` is None, else one feature row per graph.

    An undefined feature names the model, sample index and seed of its draw.
    """
    out = []
    for index, seed in enumerate(seeds, start=first):
        g = sample_graph(spec, np.random.default_rng(seed))
        if kinds is None:
            out.append(g)
            continue
        try:
            out.append([float(extract_feature(g, kind)) for kind in kinds])
        except UndefinedFeature as exc:
            raise UndefinedFeature(
                f"{exc} (model {json.dumps(model_spec_to_json(spec))}, "
                f"sample {index}, seed {seed})") from None
    return out


def _simulate(specs: Sequence[ModelSpec], seeds: Sequence[tuple[int, ...]],
              kinds: Optional[tuple[FeatureKind, ...]], workers: int) -> list:
    """Per spec, its draws from its seed tuple, all made in one ``pool_map``
    call: a list of graphs when ``kinds`` is None, else a dict kind->values.

    The jobs are (spec, sample-chunk) pairs, about ``4 * workers`` in all and
    at least one per spec. Each draw depends only on its (spec, seed), so the
    output does not depend on ``workers``.
    """
    chunks_per_spec = -(-max(1, workers) * 4 // len(specs))
    jobs = []
    for spec, stream in zip(specs, seeds):
        step = -(-len(stream) // chunks_per_spec)
        jobs += [(spec, kinds, stream[lo:lo + step], lo) for lo in range(0, len(stream), step)]
    draws = chain.from_iterable(pool_map(_draw_chunk, jobs, workers))
    out = [list(islice(draws, len(stream))) for stream in seeds]
    if kinds is None:
        return out
    return [dict(zip(kinds, np.asarray(rows, dtype=float).T)) for rows in out]


def _seed_stream(master_seed: int, n_samples: int) -> tuple[int, ...]:
    if n_samples < 1:
        raise InvalidInput(f"n_samples must be >= 1, got {n_samples}")
    return tuple(derive_seed(master_seed, i) for i in range(n_samples))


def prior_predictive(spec: ModelSpec, n_samples: int, master_seed: int,
                     workers: int = 1) -> list[Graph]:
    """Draw ``n_samples`` independent prior-predictive graphs.

    Sample i uses the seed derived from (master_seed, i), so the output is a
    pure function of (spec, n_samples, master_seed) no matter how the work is
    scheduled.
    """
    return _simulate([spec], [_seed_stream(master_seed, n_samples)], None, workers)[0]


def simulate_feature_matrices(specs: Sequence[ModelSpec], kinds: Sequence[FeatureKind],
                              n_samples: int, master_seed: int,
                              workers: int = 1) -> list[dict]:
    """Per spec, per-kind feature arrays over its prior-predictive ensemble.

    Sample i of every spec is generated from seed derive_seed(master_seed, i)
    (common random numbers across specs), and every requested kind is
    extracted from the same graph, so kinds are jointly sampled. Output is
    independent of ``workers``.
    """
    seeds = _seed_stream(master_seed, n_samples)
    return _simulate(specs, [seeds] * len(specs), tuple(kinds), workers)


def simulate_feature_matrix(spec: ModelSpec, kinds: Sequence[FeatureKind],
                            n_samples: int, master_seed: int,
                            workers: int = 1) -> dict:
    """``simulate_feature_matrices`` for one spec."""
    return simulate_feature_matrices([spec], kinds, n_samples, master_seed, workers)[0]


# --------------------------------------------------------------------------
# Parameter posteriors over grids
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamPosterior:
    """Posterior weights over labeled grid points.

    ``params`` carries the parameter name per point so posteriors over
    different parameters can be pooled into one hypothesis grid.
    """

    params: tuple[str, ...]
    values: tuple[float, ...]
    prior_weights: tuple[float, ...]
    evidences: tuple[float, ...]
    posterior_weights: tuple[float, ...]

    def window_probability(self, param: str, lo: float, hi: float) -> float:
        """Posterior mass of grid points for ``param`` with value in [lo, hi]."""
        if lo > hi:
            raise InvalidInput(f"need lo <= hi, got [{lo}, {hi}]")
        return float(sum(w for p, v, w in
                         zip(self.params, self.values, self.posterior_weights)
                         if p == param and lo <= v <= hi))


def grid_posterior(params: Sequence[str], values: Sequence[float],
                   evidences: Sequence[float],
                   priors: Optional[Sequence[float]] = None) -> ParamPosterior:
    """Posterior over labeled grid points; all equally probable a priori
    when ``priors`` is None."""
    if priors is None:
        priors = [1.0 / len(params)] * len(params)
    return ParamPosterior(tuple(params), tuple(float(v) for v in values),
                          tuple(float(p) for p in priors),
                          tuple(float(e) for e in evidences),
                          tuple(posterior_model_probs(evidences, priors)))


def grid_points(spec: ModelSpec) -> tuple[str, GridPrior]:
    """The (parameter name, grid prior) a spec carries; exactly one expected."""
    if isinstance(spec, PowerLaw) and isinstance(spec.alpha, GridPrior):
        return "alpha", spec.alpha
    if isinstance(spec, Sbm) and isinstance(spec.k, GridPrior):
        return "k", spec.k
    if isinstance(spec, ErdosRenyi) and isinstance(spec.p, GridPrior):
        return "p", spec.p
    raise InvalidSpec("spec must carry a grid prior over exactly one parameter")


def fix_grid_point(spec: ModelSpec, param: str, value: float) -> ModelSpec:
    """Copy of ``spec`` with the gridded parameter pinned to one value."""
    if param == "alpha":
        return replace(spec, alpha=PointPrior(value))
    if param == "k":
        return replace(spec, k=int(round(value)))
    if param == "p":
        return replace(spec, p=PointPrior(value))
    raise InvalidSpec(f"unknown grid parameter {param!r}")


def grid_feature_matrices(specs: Sequence[ModelSpec], kinds: Sequence[FeatureKind],
                          n_per_point: int, master_seeds: Sequence[int],
                          workers: int = 1) -> list[tuple[str, GridPrior, list[dict]]]:
    """Per gridded spec: (parameter, grid, one dict kind->values per grid point).

    Every grid point of spec f reuses the same per-sample seed stream
    derive_seed(master_seeds[f], i), i.e. points are compared under common
    random numbers; identical points therefore produce identical ensembles.
    All points of all specs are drawn in one pool.
    """
    grids = [grid_points(spec) for spec in specs]
    point_specs, point_seeds = [], []
    for spec, (param, grid), master_seed in zip(specs, grids, master_seeds):
        seeds = _seed_stream(master_seed, n_per_point)
        point_specs.extend(fix_grid_point(spec, param, v) for v in grid.values)
        point_seeds.extend([seeds] * len(grid.values))
    matrices = iter(_simulate(point_specs, point_seeds, tuple(kinds), workers))
    return [(param, grid, [next(matrices) for _ in grid.values]) for param, grid in grids]


def grid_evidences(observations: Sequence[tuple[FeatureKind, float]],
                   matrices: Sequence[dict],
                   pseudo_count: float = DEFAULT_PSEUDO_COUNT) -> np.ndarray:
    """Per grid point, the product over ``(kind, observed)`` pairs of the
    observed value's evidence under the point's density estimate (features
    treated as independent)."""
    product = np.ones(len(matrices))
    for kind, observed in observations:
        product *= np.asarray([
            evidence(estimate_density(FeatureSamples(kind, m[kind]), pseudo_count), observed)
            for m in matrices])
    return product


def param_posterior(observed: float, kind: FeatureKind, spec: ModelSpec,
                    n_per_point: int, master_seed: int, workers: int = 1,
                    pseudo_count: float = DEFAULT_PSEUDO_COUNT) -> ParamPosterior:
    """Posterior over the grid values of the spec's single gridded parameter.

    Each grid point gets ``n_per_point`` prior-predictive simulations; the
    observed feature's evidence under each point's density estimate is
    weighted by the grid prior and normalized.
    """
    [(param, grid, matrices)] = grid_feature_matrices([spec], [kind], n_per_point,
                                                      [master_seed], workers)
    evidences = grid_evidences([(kind, observed)], matrices, pseudo_count)
    return grid_posterior([param] * len(grid.values), grid.values, evidences,
                          grid.weights)


def pool_posteriors(posteriors: Sequence[ParamPosterior]) -> ParamPosterior:
    """Merge per-family posteriors into one flat-prior hypothesis grid.

    All grid points across families are treated as equally probable a
    priori; their stored evidences are renormalized jointly.
    """
    if len(posteriors) == 0:
        raise InvalidInput("need at least one posterior to pool")
    return grid_posterior([p for post in posteriors for p in post.params],
                          [v for post in posteriors for v in post.values],
                          [e for post in posteriors for e in post.evidences])


# --------------------------------------------------------------------------
# Cell sharding and consensus merging
# --------------------------------------------------------------------------

def shard_cells(g: Graph, cell_size: int) -> list[Graph]:
    """Induced subgraphs over consecutive index blocks of ``cell_size`` nodes."""
    if cell_size < 1:
        raise InvalidInput(f"cell_size must be >= 1, got {cell_size}")
    return [induced_subgraph(g, range(lo, min(lo + cell_size, g.node_count)))
            for lo in range(0, g.node_count, cell_size)]


def consensus_merge(shard_draws: Sequence[Sequence[float]]) -> np.ndarray:
    """Inverse-variance weighted elementwise merge of per-shard draw vectors.

    Weight of shard s is 1/var_s (sample variance), capped at 1e12 so a
    zero-variance shard stays finite. All shards must contribute the same
    number T >= 2 of draws.
    """
    if len(shard_draws) == 0:
        raise InvalidInput("need at least one shard")
    arrays = [np.asarray(s, dtype=float) for s in shard_draws]
    t = len(arrays[0])
    if t < 2:
        raise InvalidInput("shards need at least two draws for a variance")
    if any(a.ndim != 1 or len(a) != t for a in arrays):
        raise InvalidInput("all shards must contribute equal-length draw vectors")
    weights = []
    for a in arrays:
        var = float(np.var(a, ddof=1))
        weights.append(ZERO_VARIANCE_WEIGHT_CAP if var == 0
                       else min(1.0 / var, ZERO_VARIANCE_WEIGHT_CAP))
    weights = np.asarray(weights)
    stacked = np.stack(arrays, axis=0)
    return (weights[:, None] * stacked).sum(axis=0) / weights.sum()


# --------------------------------------------------------------------------
# Two-model comparison reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureComparison:
    kind: FeatureKind
    observed: float
    evidence_1: float
    evidence_2: float
    bayes_factor: float
    expected_loss_1: float
    expected_loss_2: float
    loss_ratio: float


@dataclass(frozen=True)
class ComparisonReport:
    model_1: str
    model_2: str
    n_samples: int
    master_seed: int
    loss: LossKind
    features: tuple[FeatureComparison, ...]
    combined_ratio: float
    model_priors: tuple[float, float]
    posterior_odds: float
    decision: Decision
    decision_rule: str = DECISION_RULE
    block_count_method: str = BLOCK_COUNT_METHOD
    #: The simulated per-kind feature arrays of model_1 and model_2; not
    #: serialized, and ignored by ``==``.
    matrices: tuple[dict, ...] = field(default=(), compare=False, repr=False)


def _json_number(x: float):
    return "inf" if math.isinf(x) else x


def _parse_number(x) -> float:
    return math.inf if x == "inf" else float(x)


def report_to_json(report: ComparisonReport) -> dict:
    """JSON-ready dict; +inf is encoded as the string "inf"."""
    return {
        "model_1": report.model_1,
        "model_2": report.model_2,
        "n_samples": report.n_samples,
        "master_seed": report.master_seed,
        "loss": {"kind": report.loss.kind, "tolerance": report.loss.tolerance},
        "features": [
            {**fc.kind.to_json(),
             "observed": fc.observed,
             "evidence_1": fc.evidence_1,
             "evidence_2": fc.evidence_2,
             "bayes_factor": _json_number(fc.bayes_factor),
             "el_1": fc.expected_loss_1,
             "el_2": fc.expected_loss_2,
             "loss_ratio": fc.loss_ratio}
            for fc in report.features
        ],
        "combined_ratio": report.combined_ratio,
        "model_priors": list(report.model_priors),
        "posterior_odds": _json_number(report.posterior_odds),
        "decision": report.decision.value,
        "decision_rule": report.decision_rule,
        "block_count_method": report.block_count_method,
    }


def report_from_json(obj: dict) -> ComparisonReport:
    features = tuple(
        FeatureComparison(
            kind=FeatureKind.from_json(fc),
            observed=float(fc["observed"]),
            evidence_1=float(fc["evidence_1"]),
            evidence_2=float(fc["evidence_2"]),
            bayes_factor=_parse_number(fc["bayes_factor"]),
            expected_loss_1=float(fc["el_1"]),
            expected_loss_2=float(fc["el_2"]),
            loss_ratio=float(fc["loss_ratio"]),
        )
        for fc in obj["features"]
    )
    loss = obj.get("loss", {"kind": "quadratic", "tolerance": 0.0})
    return ComparisonReport(
        model_1=obj["model_1"],
        model_2=obj["model_2"],
        n_samples=int(obj["n_samples"]),
        master_seed=int(obj["master_seed"]),
        loss=LossKind(loss["kind"], loss.get("tolerance", 0.0)),
        features=features,
        combined_ratio=float(obj["combined_ratio"]),
        model_priors=tuple(float(p) for p in obj["model_priors"]),
        posterior_odds=_parse_number(obj["posterior_odds"]),
        decision=Decision(obj["decision"]),
        decision_rule=obj["decision_rule"],
        block_count_method=obj["block_count_method"],
    )


def report_features_csv(report: ComparisonReport) -> str:
    """The per-feature table as CSV."""
    lines = ["kind,observed,evidence_1,evidence_2,bayes_factor,el_1,el_2,loss_ratio"]
    for fc in report.features:
        bf = "inf" if math.isinf(fc.bayes_factor) else repr(fc.bayes_factor)
        lines.append(",".join([
            fc.kind.name, repr(fc.observed), repr(fc.evidence_1), repr(fc.evidence_2),
            bf, repr(fc.expected_loss_1), repr(fc.expected_loss_2), repr(fc.loss_ratio),
        ]))
    return "\n".join(lines) + "\n"


def compare_models(data_graph: Graph, spec1: ModelSpec, spec2: ModelSpec,
                   kinds: Sequence[FeatureKind], loss: LossKind,
                   n_samples: int, master_seed: int, workers: int = 1,
                   model_ids: tuple[str, str] = ("model_1", "model_2"),
                   model_priors: tuple[float, float] = (0.5, 0.5),
                   pseudo_count: float = DEFAULT_PSEUDO_COUNT) -> ComparisonReport:
    """Full two-model comparison on the given features.

    Both models consume the same derived seed stream (sample i of either
    model uses derive_seed(master_seed, i)), so comparing a model against
    itself yields Bayes factor 1 exactly. The posterior odds multiply the
    per-feature evidences (features treated as independent) with the model
    prior odds; the decision applies the fixed rule in ``DECISION_RULE``.
    """
    kinds = tuple(kinds)
    if not kinds:
        raise InvalidInput("need at least one feature")
    matrix1, matrix2 = simulate_feature_matrices([spec1, spec2], kinds, n_samples,
                                                 master_seed, workers)

    comparisons = []
    loss_pairs = []
    log_total1 = 0.0
    log_total2 = 0.0
    zero1 = zero2 = False
    for kind in kinds:
        observed = float(extract_feature(data_graph, kind))
        samples1 = FeatureSamples(kind, matrix1[kind], model_id=model_ids[0])
        samples2 = FeatureSamples(kind, matrix2[kind], model_id=model_ids[1])
        ev1 = evidence(estimate_density(samples1, pseudo_count), observed)
        ev2 = evidence(estimate_density(samples2, pseudo_count), observed)
        el1 = expected_loss(samples1, observed, loss)
        el2 = expected_loss(samples2, observed, loss)
        if el2 == 0:
            raise DegenerateRatio(
                f"expected loss of {model_ids[1]} is zero for {kind.name}")
        comparisons.append(FeatureComparison(
            kind=kind, observed=observed, evidence_1=ev1, evidence_2=ev2,
            bayes_factor=bayes_factor(ev1, ev2),
            expected_loss_1=el1, expected_loss_2=el2, loss_ratio=el1 / el2))
        loss_pairs.append((el1, el2))
        zero1 |= ev1 == 0
        zero2 |= ev2 == 0
        log_total1 += -math.inf if ev1 == 0 else math.log(ev1)
        log_total2 += -math.inf if ev2 == 0 else math.log(ev2)

    if zero1 and zero2:
        raise UndefinedBayesFactor("both models have zero total evidence")
    prior_odds = model_priors[0] / model_priors[1] if model_priors[1] > 0 else math.inf
    if zero2:
        posterior_odds = math.inf
    elif zero1:
        posterior_odds = 0.0
    else:
        try:
            posterior_odds = prior_odds * math.exp(log_total1 - log_total2)
        except OverflowError:  # the features separate the models by > ~709 nats
            posterior_odds = math.inf if prior_odds > 0 else 0.0

    combined = combined_loss_ratio(loss_pairs)
    return ComparisonReport(
        model_1=model_ids[0], model_2=model_ids[1], n_samples=n_samples,
        master_seed=master_seed, loss=loss, features=tuple(comparisons),
        combined_ratio=combined, model_priors=tuple(model_priors),
        posterior_odds=posterior_odds, decision=decide(combined, posterior_odds),
        matrices=(matrix1, matrix2))
