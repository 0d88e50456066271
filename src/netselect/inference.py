"""Evidence, Bayes factors, expected losses and decisions over feature ensembles.

The workflow: simulate prior-predictive graphs per model, reduce each graph to
a scalar feature, estimate the feature distribution (smoothed counts for
discrete features, Gaussian KDE for continuous ones), evaluate the observed
feature's evidence under each model, and combine evidence with expected-loss
ratios into a decision. Parameter posteriors over grids and consensus
merging of per-shard draws live here too.
"""

from __future__ import annotations

import atexit
import contextlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from enum import Enum
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
from .features import (BLOCK_COUNT_METHOD, _KIND_FIELDS, FeatureKind, _lapack, _read,
                       _strict_float, _strict_int, _typed, extract_feature)
from .generators import (
    GRID_PARAMS,
    GridPrior,
    ModelSpec,
    PointPrior,
    model_spec_to_json,
    sample_graph,
)
from .graph import Graph
from .seeds import derive_seed, spawn_rng

DEFAULT_SAMPLES = 100  # prior-predictive draws per model or grid point
PSEUDO_COUNT = 0.5
ZERO_VARIANCE_WEIGHT_CAP = 1e12
DECISION_REL_TOL = 1e-9
LOG_VANISHING = math.log(math.ulp(0.0))  # about -744.4: below it an evidence reads 0
_WILSON_Z = 1.959963984540054  # standard normal 0.975 quantile: 95% Wilson bounds

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


def feature_samples(matrix: dict) -> dict:
    """A feature matrix (kind -> values) as kind -> FeatureSamples, so each
    ensemble is checked once for both its evidence and its expected loss."""
    return {kind: FeatureSamples(kind, values) for kind, values in matrix.items()}


@dataclass(frozen=True)
class DiscretePmf:
    """Observed counts smoothed by a fixed additive pseudo-count of 0.5.

    The evidence of value x is (count(x) + a0) / (n + a0 * s), with
    a0 = ``PSEUDO_COUNT`` = 0.5 and s the number of distinct support values
    including x itself; always positive.
    ``integer_domain`` is False when the pmf is the degenerate fallback for a
    zero-variance continuous sample, whose observations need not be integers.
    """

    counts: dict
    n: int
    integer_domain: bool = True

    def __post_init__(self):
        if self.n < 1 or sum(self.counts.values()) != self.n:
            raise InvalidInput("pmf counts must sum to n >= 1")

    def log_density(self, xs) -> np.ndarray:
        """The log of each x's smoothed mass."""
        return np.array([math.log((self.counts.get(x, 0) + PSEUDO_COUNT)
                                  / (self.n + PSEUDO_COUNT * (len(self.counts) + (x not in self.counts))))
                         for x in map(float, xs)])


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

    def log_density(self, xs) -> np.ndarray:
        """The log density at each of ``xs``: a log-mean-exp over the (points x draws)
        kernel matrix, shifted by each row's largest term so that tails stay finite."""
        terms = -0.5 * ((np.asarray(xs, dtype=float)[:, None] - self.values) / self.bandwidth) ** 2
        # finite, so a row whose z * z all passed the float range reads -inf, not nan
        top = np.maximum(terms.max(axis=1), np.finfo(float).min)
        return (top + np.log(np.mean(np.exp(terms - top[:, None]), axis=1))
                - math.log(self.bandwidth * math.sqrt(2 * math.pi)))


DensityEstimate = Union[DiscretePmf, Kde]


def silverman_bandwidth(values: np.ndarray, sd: Optional[float] = None) -> float:
    """0.9 * min(sd, IQR/1.34) * n^(-1/5); falls back to sd when the IQR is zero.

    ``sd`` is the sample's ddof=1 standard deviation when the caller has it.
    The quartiles follow ``np.percentile``'s default linear rule (Hyndman &
    Fan type 7) bit for bit, read off one sort: at h = (n - 1) q between the
    sorted values a = x[floor(h)] and b = x[floor(h) + 1], with t = h - floor(h),
    a + (b - a) t when t < 0.5, else b - (b - a)(1 - t).
    """
    values = np.asarray(values, dtype=float)
    if sd is None:
        sd = float(np.std(values, ddof=1))
    x = np.sort(values)
    quartiles = []
    for q in (0.75, 0.25):
        h = (len(x) - 1) * q
        i = int(h)
        t = h - i
        a, b = float(x[i]), float(x[min(i + 1, len(x) - 1)])
        quartiles.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    iqr = quartiles[0] - quartiles[1]
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * scale * len(values) ** -0.2


def estimate_density(samples: FeatureSamples) -> DensityEstimate:
    """Smoothed counts for discrete features, Silverman-bandwidth Gaussian KDE
    for continuous ones. A zero-variance continuous sample degrades to a point
    mass (a one-value DiscretePmf)."""
    values = samples.values
    if samples.kind.is_discrete:
        return _pmf_from_values(values, integer_domain=True)
    sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    if sd == 0.0:
        return _pmf_from_values(values, integer_domain=False)
    return Kde(values, silverman_bandwidth(values, sd))


def _pmf_from_values(values: np.ndarray, integer_domain: bool) -> DiscretePmf:
    uniq, counts = np.unique(values, return_counts=True)
    return DiscretePmf({float(u): int(c) for u, c in zip(uniq, counts)},
                       n=len(values), integer_domain=integer_domain)


def log_evidence(density: DensityEstimate, observed: float) -> float:
    """The log probability (mass or density) of the observed feature value."""
    if isinstance(observed, bool) or not isinstance(observed, (int, float, np.integer, np.floating)):
        raise InvalidInput(f"observed value must be a number, got {observed!r}")
    observed = float(observed)
    if not math.isfinite(observed):
        raise InvalidInput("observed value must be finite")
    if isinstance(density, DiscretePmf):
        if density.integer_domain and observed != int(observed):
            raise InvalidInput(
                f"observed {observed} is not integral but the feature is discrete")
    elif not isinstance(density, Kde):
        raise InvalidInput(f"unknown density estimate {density!r}")
    return float(density.log_density([observed])[0])


def evidence(density: DensityEstimate, observed: float) -> float:
    """Probability (mass or density) of the observed feature value."""
    return math.exp(log_evidence(density, observed))


def bayes_factor(ev1: float, ev2: float) -> float:
    """ev1 / ev2, with +inf when only ev2 vanishes."""
    if ev1 < 0 or ev2 < 0:
        raise InvalidInput("evidences must be non-negative")
    if ev1 == 0 and ev2 == 0:
        raise UndefinedBayesFactor("both evidences are zero")
    if ev2 == 0:
        return math.inf
    return ev1 / ev2


def _normalise_logs(log_weights: np.ndarray) -> list[float]:
    """exp(log_weights) normalised to sum 1, shifted first so that no weight underflows alone."""
    top = np.max(log_weights)
    if top == -math.inf:
        raise UndefinedPosterior("all evidence-prior products are zero")
    weights = np.exp(log_weights - top)
    return (weights / weights.sum()).tolist()


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
        if not self.tolerance >= 0:  # true for NaN too
            raise InvalidSpec(f"tolerance must be non-negative, got {self.tolerance}")

    @classmethod
    def from_json(cls, obj, name: str = "loss") -> "LossKind":
        """A loss from its kind token or a {"kind", "tolerance"} object."""
        if isinstance(obj, str):
            return cls(obj)
        return cls(*_read(obj, {"kind": (_typed(str), ...),
                                "tolerance": (_strict_float, 0.0)}, name).values())

    def to_json(self) -> dict:
        return {"kind": self.kind, "tolerance": self.tolerance}

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


def _loss_ratio(el1: float, el2: float, where: str) -> float:
    """el1 / el2: inf when only el2 is zero, 0 when only el1 is; when both
    are, neither model is favoured and DegenerateRatio names ``where``."""
    if el2 == 0:
        if el1 == 0:
            raise DegenerateRatio(f"both expected losses are zero {where}")
        return math.inf
    return el1 / el2


def combined_loss_ratio(pairs: Sequence[tuple[float, float]]) -> float:
    """Arithmetic mean of per-feature expected-loss ratios el1/el2 (one inf
    ratio, where only el2 is zero, makes it inf).

    Averaging ratios (not losses) makes the result invariant to any common
    rescaling of a single feature's loss pair, so no feature's scale can
    dominate the others.
    """
    if len(pairs) == 0:
        raise InvalidInput("need at least one expected-loss pair")
    return float(np.mean([_loss_ratio(el1, el2, f"in loss pair ({el1}, {el2})")
                          for el1, el2 in pairs]))


def decide(combined_ratio: float, log_posterior_odds: float) -> Decision:
    """Pick model_1 iff combined_ratio < posterior_odds, compared as logs, so
    odds past the float range still order; ratios within a relative
    ``DECISION_REL_TOL`` of the odds are ties, and ties are indeterminate.

    Orientation is fixed so that both a smaller expected loss and a larger
    posterior probability favor a model monotonically.
    """
    if combined_ratio < 0:
        raise InvalidInput("the combined ratio must be non-negative")
    log_ratio = math.log(combined_ratio) if combined_ratio else -math.inf
    if log_ratio == log_posterior_odds or (
            abs(log_ratio - log_posterior_odds) <= -math.log1p(-DECISION_REL_TOL)):
        return Decision.INDETERMINATE
    return Decision.MODEL_1 if log_ratio < log_posterior_odds else Decision.MODEL_2


def range_probability(samples: FeatureSamples, lo: float,
                      hi: float) -> tuple[float, float, float, float]:
    """(p, se, p_lo, p_hi): the fraction p of sampled values in [lo, hi], its
    Monte Carlo standard error, and p's 95% Wilson score bounds (Brown, Cai
    & DasGupta, Stat. Sci. 2001), which stay above 0 at zero hits and below 1
    at all hits, where se reads 0.

    With k hits in N, the bounds are (k + z^2/2 -+ w) / (N + z^2), where
    w = z sqrt(k (N - k) / N + z^2 / 4); the upper one is taken as 1 minus the
    lower one of N - k hits, so p_lo is exactly 0 at k = 0 and p_hi exactly 1
    at k = N.
    """
    if lo > hi:
        raise InvalidInput(f"need lo <= hi, got [{lo}, {hi}]")
    inside = (samples.values >= lo) & (samples.values <= hi)
    k, n = int(np.count_nonzero(inside)), samples.n
    p = k / n
    z2 = _WILSON_Z * _WILSON_Z
    half = z2 / 2
    w = math.sqrt(z2 * k * (n - k) / n + half * half)  # sqrt(half^2) is half exactly
    return (p, math.sqrt(p * (1.0 - p) / n),
            (k + half - w) / (n + z2), 1.0 - (n - k + half - w) / (n + z2))


# --------------------------------------------------------------------------
# Simulation plumbing: seeds -> graphs -> feature rows, one warm pool
# --------------------------------------------------------------------------

#: The process's fork pool (a ProcessPoolExecutor) and its size; at most one
#: is alive at a time. multiprocessing and concurrent.futures load with the
#: first pool, so a process that never pools never imports them.
_POOL = None
_POOL_SIZE = 0


def shutdown_pool() -> None:
    """Shut the process's worker pool down, if one is running; the next
    pooled ``pool_map`` forks a fresh one."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown(cancel_futures=True)


atexit.register(shutdown_pool)


def _open_fds() -> list[int]:
    """The descriptors above stderr that this process has open."""
    fds = []
    for fd in map(int, os.listdir("/proc/self/fd")):
        try:
            os.fstat(fd)
        except OSError:  # the listing's own descriptor, closed again
            continue
        if fd > 2:
            fds.append(fd)
    return fds


def _close_fds(fds: list[int]) -> None:
    """Pool initializer: close the descriptors a worker inherited from its
    parent. A warm worker lives as long as the parent, so a pipe end it kept
    would hide the parent's close from the process at the other end."""
    for fd in fds:
        with contextlib.suppress(OSError):
            os.close(fd)


def _pool(size: int):
    """The pool of ``size`` workers, forking it (after shutting down one of
    another size) when it is not running yet."""
    global _POOL, _POOL_SIZE
    if _POOL is None or _POOL_SIZE != size:
        import concurrent.futures
        import multiprocessing

        # A fork pool starts all its workers at its first submit; never fork
        # while another pool's manager thread runs.
        shutdown_pool()
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = multiprocessing.get_context()
        _POOL = concurrent.futures.ProcessPoolExecutor(
            max_workers=size, mp_context=ctx, initializer=_close_fds, initargs=(_open_fds(),))
        _POOL_SIZE = size
    return _POOL


def pool_map(fn, jobs: list[tuple], workers: int) -> list:
    """Order-preserving map, optionally over the process's worker pool.

    With ``workers > 1`` and more than one job, the jobs run on a fork pool
    of ``min(workers, len(jobs), usable cores)`` workers that lives for the
    process: a later call of the same size reuses its warm workers, which see
    module state as it was when they forked. When a job fails, the jobs not
    yet started are cancelled before the error is raised; a pool whose
    worker died is dropped, so the next call forks a fresh one.
    """
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    from concurrent.futures.process import BrokenProcessPool

    futures = []
    try:
        pool = _pool(min(workers, len(jobs), len(os.sched_getaffinity(0))))
        futures = [pool.submit(fn, *job) for job in jobs]
        return [f.result() for f in futures]
    except BrokenProcessPool:
        shutdown_pool()
        raise
    except BaseException:
        for f in futures:
            f.cancel()
        raise


def _draw_chunk(group: tuple[ModelSpec, ...], kinds: Optional[tuple[FeatureKind, ...]],
                master_seed: int, first: int, stop: int) -> list[list]:
    """Per spec of ``group``, its draws of samples first, ..., stop - 1, sample
    i from seed ``derive_seed(master_seed, i)``: graphs when ``kinds`` is
    None, else feature rows.

    Each seed's generator is built once and reset to its start state before
    each spec, so a draw depends only on its (spec, seed). An undefined
    feature names the model, sample index and seed of its draw.
    """
    out = [[] for _ in group]
    for index in range(first, stop):
        rng = spawn_rng(master_seed, index)
        bits = rng.bit_generator
        start = bits.state
        for spec, draws in zip(group, out):
            bits.state = start
            g = sample_graph(spec, rng)
            if kinds is None:
                draws.append(g)
                continue
            try:
                draws.append([float(extract_feature(g, kind)) for kind in kinds])
            except UndefinedFeature as exc:
                raise UndefinedFeature(
                    f"{exc} (model {json.dumps(model_spec_to_json(spec))}, "
                    f"sample {index}, seed {derive_seed(master_seed, index)})") from None
    return out


def _simulate(groups: Sequence[Sequence[ModelSpec]], master_seeds: Sequence[int],
              n_samples: int, kinds: Optional[tuple[FeatureKind, ...]], workers: int) -> list:
    """Per group, per spec, its ``n_samples`` draws from the group's master
    seed, all made in one ``pool_map`` call: a list of graphs when ``kinds``
    is None, else a dict kind->values.

    A group is specs that share a seed stream: the grid points of one family,
    or the models of one comparison. The jobs are (group, kinds, master seed,
    first, stop) tuples, about 4 per worker of the pool (``workers``, capped
    at the usable cores) in all and at least one per group; each job derives
    its own seeds. Each draw depends only on its (spec, seed), so the output
    does not depend on ``workers``.
    """
    if n_samples < 1:
        raise InvalidInput(f"n_samples must be >= 1, got {n_samples}")
    size = min(workers, len(os.sched_getaffinity(0))) if workers > 1 else 1
    step = -(-n_samples // -(-size * 4 // len(groups)))
    jobs = [(tuple(group), kinds, master_seed, lo, min(lo + step, n_samples))
            for group, master_seed in zip(groups, master_seeds)
            for lo in range(0, n_samples, step)]
    if workers > 1 and any(kind.name == "block_count" for kind in kinds or ()):
        _lapack()  # forked workers inherit the loaded one-thread LAPACK
    out = [[[] for _ in group] for group in groups]
    owners = [draws for draws in out for _ in range(0, n_samples, step)]
    for draws, chunk in zip(owners, pool_map(_draw_chunk, jobs, workers)):
        for spec_draws, part in zip(draws, chunk):
            spec_draws.extend(part)
    if kinds is None:
        return out
    return [[dict(zip(kinds, np.asarray(rows, dtype=float).T)) for rows in draws]
            for draws in out]


def prior_predictive(spec: ModelSpec, n_samples: int, master_seed: int,
                     workers: int = 1) -> list[Graph]:
    """Draw ``n_samples`` independent prior-predictive graphs.

    Sample i uses the seed derived from (master_seed, i), so the output is a
    pure function of (spec, n_samples, master_seed) no matter how the work is
    scheduled.
    """
    return _simulate([[spec]], [master_seed], n_samples, None, workers)[0][0]


def simulate_feature_matrices(specs: Sequence[ModelSpec], kinds: Sequence[FeatureKind],
                              n_samples: int, master_seed: int,
                              workers: int = 1) -> list[dict]:
    """Per spec, per-kind feature arrays over its prior-predictive ensemble.

    Sample i of every spec is generated from seed derive_seed(master_seed, i)
    (common random numbers across specs), and every requested kind is
    extracted from the same graph, so kinds are jointly sampled. Output is
    independent of ``workers``.
    """
    return _simulate([specs], [master_seed], n_samples, tuple(kinds), workers)[0]


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
    """Posterior weights over labeled grid points, all equally probable a priori.

    ``params`` carries the parameter name per point, so the grid points of
    several families (over different parameters) pool into one hypothesis
    grid.
    """

    params: tuple[str, ...]
    values: tuple[float, ...]
    log_evidences: tuple[float, ...]
    posterior_weights: tuple[float, ...]

    def window_probability(self, param: str, lo: float, hi: float) -> float:
        """Posterior mass of grid points for ``param`` with value in [lo, hi]."""
        if lo > hi:
            raise InvalidInput(f"need lo <= hi, got [{lo}, {hi}]")
        return float(sum(w for p, v, w in
                         zip(self.params, self.values, self.posterior_weights)
                         if p == param and lo <= v <= hi))


def grid_posterior(params: Sequence[str], values: Sequence[float],
                   log_evidences: Sequence[float]) -> ParamPosterior:
    """Flat-prior posterior over labeled grid points: each of the N points
    has prior 1/N, and its posterior is proportional to its evidence."""
    return ParamPosterior(tuple(params), tuple(float(v) for v in values),
                          tuple(float(e) for e in log_evidences),
                          tuple(_normalise_logs(log_evidences)))


def grid_points(spec: ModelSpec) -> tuple[str, GridPrior]:
    """The (parameter name, grid prior) a spec carries; exactly one expected."""
    param = GRID_PARAMS.get(type(spec))
    if param is None or not isinstance(getattr(spec, param), GridPrior):
        raise InvalidSpec("spec must carry a grid prior over exactly one parameter")
    return param, getattr(spec, param)


def fix_grid_point(spec: ModelSpec, param: str, value: float) -> ModelSpec:
    """Copy of ``spec`` with the gridded parameter pinned to one value."""
    return replace(spec, **{param: int(value) if param == "k" else PointPrior(value)})


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
    groups = [[fix_grid_point(spec, param, v) for v in grid.values]
              for spec, (param, grid) in zip(specs, grids)]
    matrices = _simulate(groups, master_seeds, n_per_point, tuple(kinds), workers)
    return [(param, grid, m) for (param, grid), m in zip(grids, matrices)]


def log_evidences(observations: Sequence[tuple[FeatureKind, float]],
                  samples: Sequence[dict]) -> np.ndarray:
    """The (points x features) log evidences of the observed ``(kind, value)`` pairs
    under each point's ``feature_samples``; a row sums to the point's log evidence. A feature
    whose log evidence is below ``LOG_VANISHING`` at every point raises UndefinedBayesFactor."""
    logs = np.array([[log_evidence(estimate_density(s[kind]), observed)
                      for kind, observed in observations] for s in samples])
    for (kind, _), column in zip(observations, logs.T):
        if (column < LOG_VANISHING).all():
            raise UndefinedBayesFactor(f"the evidence of {kind.name} vanishes under every model "
                                       f"(each log evidence is below {LOG_VANISHING:.1f})")
    return logs


def score(observations: Sequence[tuple[FeatureKind, float]],
          groups: Sequence[Sequence[tuple[float, dict]]],
          losses: Sequence[LossKind]) -> tuple[np.ndarray, list[list[list[float]]]]:
    """Score observed ``(kind, value)`` pairs against groups of weighted
    hypotheses, each a (weight, feature matrix) pair: one model of weight 1.0
    in ``compare``, the grid points of a family with their grid weights in a
    study row. Returns ``log_evidences`` over all hypotheses in order, and per
    loss, group and feature the weighted expected loss, summed left to right
    from 0, so a one-model group of weight 1.0 reads its expected loss exactly."""
    samples = [[(w, feature_samples(m)) for w, m in group] for group in groups]
    logs = log_evidences(observations, [s for group in samples for _, s in group])
    return logs, [[[float(sum(w * expected_loss(s[kind], observed, loss) for w, s in group))
                    for kind, observed in observations] for group in samples] for loss in losses]


# --------------------------------------------------------------------------
# Consensus merging of per-shard draws
# --------------------------------------------------------------------------

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
    log_evidence_1: float
    log_evidence_2: float
    log_bayes_factor: float


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
    log_posterior_odds: float
    decision: Decision
    decision_rule: str = DECISION_RULE
    block_count_method: str = BLOCK_COUNT_METHOD
    #: The simulated per-kind feature arrays of model_1 and model_2; not
    #: serialized, and ignored by ``==``.
    matrices: tuple[dict, ...] = field(default=(), compare=False, repr=False)


#: Each per-feature report field after ``kind``: (JSON key and CSV column,
#: ``FeatureComparison`` attribute), in output order.
_FEATURE_KEYS = (
    ("observed", "observed"),
    ("evidence_1", "evidence_1"),
    ("evidence_2", "evidence_2"),
    ("bayes_factor", "bayes_factor"),
    ("el_1", "expected_loss_1"),
    ("el_2", "expected_loss_2"),
    ("loss_ratio", "loss_ratio"),
    ("log_evidence_1", "log_evidence_1"),
    ("log_evidence_2", "log_evidence_2"),
    ("log_bayes_factor", "log_bayes_factor"),
)


def _json_number(x: float):
    return ("inf" if x > 0 else "-inf") if math.isinf(x) else x


def _parse_number(value, name: str) -> float:
    """The number ``_json_number`` wrote: "inf", "-inf" or a JSON number (else InvalidSpec)."""
    return float(value) if value in ("inf", "-inf") else _strict_float(value, name)


def _csv(rows) -> str:
    """One ","-joined line per row; a str cell as it is, any other by repr."""
    return "".join(",".join(c if isinstance(c, str) else repr(c) for c in row) + "\n"
                   for row in rows)


def report_to_json(report: ComparisonReport) -> dict:
    """JSON-ready dict; an infinity is encoded as the string "inf" or "-inf"."""
    return {
        "model_1": report.model_1,
        "model_2": report.model_2,
        "n_samples": report.n_samples,
        "master_seed": report.master_seed,
        "loss": report.loss.to_json(),
        "features": [
            {**fc.kind.to_json(),
             **{key: _json_number(getattr(fc, attr)) for key, attr in _FEATURE_KEYS}}
            for fc in report.features
        ],
        "combined_ratio": _json_number(report.combined_ratio),
        "model_priors": list(report.model_priors),
        "posterior_odds": _json_number(report.posterior_odds),
        "log_posterior_odds": _json_number(report.log_posterior_odds),
        "decision": report.decision.value,
        "decision_rule": report.decision_rule,
        "block_count_method": report.block_count_method,
    }


def report_from_json(obj: dict) -> ComparisonReport:
    """The report ``report_to_json`` wrote. Its counts and ratios must be JSON
    numbers of their type, or "inf" or "-inf" for an infinity (else InvalidSpec);
    unknown keys are ignored, since report keys are additive."""
    features = tuple(
        FeatureComparison(kind=FeatureKind.from_json({key: fc.get(key) for key in _KIND_FIELDS}),
                          **{attr: _parse_number(fc[key], f"report feature '{key}'")
                             for key, attr in _FEATURE_KEYS})
        for fc in obj["features"]
    )
    return ComparisonReport(
        model_1=obj["model_1"],
        model_2=obj["model_2"],
        n_samples=_strict_int(obj["n_samples"], "report 'n_samples'"),
        master_seed=_strict_int(obj["master_seed"], "report 'master_seed'"),
        loss=LossKind.from_json(obj.get("loss", "quadratic")),
        features=features,
        combined_ratio=_parse_number(obj["combined_ratio"], "report 'combined_ratio'"),
        model_priors=tuple(_strict_float(p, "report 'model_priors'") for p in obj["model_priors"]),
        posterior_odds=_parse_number(obj["posterior_odds"], "report 'posterior_odds'"),
        log_posterior_odds=_parse_number(obj["log_posterior_odds"], "report 'log_posterior_odds'"),
        decision=Decision(obj["decision"]),
        decision_rule=obj["decision_rule"],
        block_count_method=obj["block_count_method"],
    )


def report_features_csv(report: ComparisonReport) -> str:
    """The per-feature table as CSV."""
    return _csv([["kind", *(key for key, _ in _FEATURE_KEYS)],
                 *([fc.kind.name, *(getattr(fc, attr) for _, attr in _FEATURE_KEYS)]
                   for fc in report.features)])


def compare_models(data_graph: Graph, spec1: ModelSpec, spec2: ModelSpec,
                   kinds: Sequence[FeatureKind], loss: LossKind,
                   n_samples: int, master_seed: int, workers: int = 1,
                   model_ids: tuple[str, str] = ("model_1", "model_2"),
                   model_priors: tuple[float, float] = (0.5, 0.5)) -> ComparisonReport:
    """Full two-model comparison on the given features.

    Both models consume the same derived seed stream (sample i of either
    model uses derive_seed(master_seed, i)), so comparing a model against
    itself yields Bayes factor 1 exactly. The log posterior odds add the
    per-feature log Bayes factors (features treated as independent) to the log
    prior odds; the decision applies the fixed rule in ``DECISION_RULE``.
    """
    kinds = tuple(kinds)
    if not kinds:
        raise InvalidInput("need at least one feature")
    if len(set(kinds)) < len(kinds):
        # the posterior odds add per-feature log evidences: a repeat counts twice
        raise InvalidInput(f"each feature may be given once, got {[k.name for k in kinds]}")
    if not (min(model_priors) >= 0 and 0 < sum(model_priors) < math.inf):
        raise InvalidInput(f"model_priors must be finite and non-negative with a "
                           f"positive sum, got {model_priors}")
    matrices = simulate_feature_matrices([spec1, spec2], kinds, n_samples, master_seed, workers)
    observations = [(kind, float(extract_feature(data_graph, kind))) for kind in kinds]
    logs, [el_rows] = score(observations, [[(1.0, m)] for m in matrices], [loss])

    log_bfs = logs[0] - logs[1]
    with np.errstate(over="ignore", divide="ignore"):  # exp saturates to inf; log 0 is -inf
        log_odds = float(np.log(model_priors[0]) - np.log(model_priors[1]) + log_bfs.sum())
        odds = float(np.exp(log_odds))
        columns = np.vstack([np.exp(logs), np.exp(log_bfs), logs, log_bfs]).T.tolist()
    comparisons = []
    for (kind, observed), (ev1, ev2, bf, log1, log2, log_bf), el1, el2 in zip(
            observations, columns, *el_rows):
        comparisons.append(FeatureComparison(
            kind=kind, observed=observed, evidence_1=ev1, evidence_2=ev2, bayes_factor=bf,
            expected_loss_1=el1, expected_loss_2=el2,
            loss_ratio=_loss_ratio(el1, el2, f"for {kind.name}"),
            log_evidence_1=log1, log_evidence_2=log2, log_bayes_factor=log_bf))

    combined = combined_loss_ratio([(fc.expected_loss_1, fc.expected_loss_2)
                                    for fc in comparisons])
    return ComparisonReport(
        model_1=model_ids[0], model_2=model_ids[1], n_samples=n_samples,
        master_seed=master_seed, loss=loss, features=tuple(comparisons),
        combined_ratio=combined, model_priors=tuple(model_priors),
        posterior_odds=odds, log_posterior_odds=log_odds,
        decision=decide(combined, log_odds), matrices=tuple(matrices))
