"""Simulation-study driver: candidate hypothesis grids against synthetic data.

A study pits two candidate families, each a model spec with a grid prior over
one parameter, against data drawn from a known generator. Per study row: draw
one data graph, extract the row's features, compute per-grid-point evidences
for every candidate, pool everything into one flat-prior hypothesis grid, and
report window posterior probabilities plus expected-loss ratios of the
non-generating family over the generating one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidSpec
from .features import FeatureKind, extract_feature
from .generators import ModelSpec, model_spec_to_json, parse_model_spec, sample_graph
# estimate_density and evidence stay importable here for perfbench/spans.py to wrap.
from .inference import (  # noqa: F401
    DEFAULT_PSEUDO_COUNT,
    FeatureSamples,
    LossKind,
    ParamPosterior,
    estimate_density,
    evidence,
    expected_loss,
    grid_evidences,
    grid_feature_matrices,
    grid_posterior,
)
from .seeds import derive_seed, spawn_rng

DEFAULT_STUDY_SAMPLES = 100


@dataclass(frozen=True)
class Candidate:
    """One hypothesis family: an id and a spec with a grid prior."""

    id: str
    spec: ModelSpec


@dataclass(frozen=True)
class Window:
    """A posterior window over one grid parameter."""

    param: str
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidSpec(f"window needs lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def label(self) -> str:
        # no comma: the label is a CSV header cell
        return f"P({self.param} in [{self.lo:g}..{self.hi:g}])"


@dataclass(frozen=True)
class StudyRow:
    """One data-generating setup: data id must match one candidate id."""

    data_id: str
    data_spec: ModelSpec
    features: tuple[FeatureKind, ...]
    losses: tuple[LossKind, ...]


@dataclass(frozen=True)
class StudyConfig:
    candidates: tuple[Candidate, ...]
    windows: tuple[Window, ...]
    rows: tuple[StudyRow, ...]
    n_samples: int = DEFAULT_STUDY_SAMPLES
    master_seed: int = 0

    def __post_init__(self):
        if len(self.candidates) != 2:
            raise InvalidSpec("a study needs exactly two candidate families")
        ids = [c.id for c in self.candidates]
        if len(set(ids)) != 2:
            raise InvalidSpec("candidate ids must be distinct")
        for row in self.rows:
            if row.data_id not in ids:
                raise InvalidSpec(
                    f"row data id {row.data_id!r} matches no candidate {ids}")
        if self.n_samples < 1:
            raise InvalidSpec("n_samples must be >= 1")


@dataclass(frozen=True)
class StudyRowResult:
    data_id: str
    loss: LossKind
    features: tuple[FeatureKind, ...]
    loss_ratio: float
    window_probabilities: tuple[float, ...]
    posterior: ParamPosterior


def parse_study_config(obj: dict) -> StudyConfig:
    try:
        candidates = tuple(Candidate(c["id"], parse_model_spec(c["spec"]))
                           for c in obj["candidates"])
        windows = tuple(Window(w["param"], float(w["lo"]), float(w["hi"]))
                        for w in obj.get("windows", []))
        rows = tuple(
            StudyRow(
                data_id=r["data"]["id"],
                data_spec=parse_model_spec(r["data"]["spec"]),
                features=tuple(FeatureKind.from_json(f) for f in r["features"]),
                losses=tuple(LossKind.from_json(l) for l in r.get("losses", ["quadratic"])),
            )
            for r in obj["rows"]
        )
        n_samples = int(obj.get("n_samples", DEFAULT_STUDY_SAMPLES))
        master_seed = int(obj.get("seed", 0))
    except (KeyError, TypeError) as exc:
        raise InvalidSpec(f"malformed study config: {exc!r}") from None
    return StudyConfig(candidates=candidates, windows=windows, rows=rows,
                       n_samples=n_samples, master_seed=master_seed)


def study_config_to_json(config: StudyConfig) -> dict:
    return {
        "n_samples": config.n_samples,
        "seed": config.master_seed,
        "candidates": [{"id": c.id, "spec": model_spec_to_json(c.spec)}
                       for c in config.candidates],
        "windows": [{"param": w.param, "lo": w.lo, "hi": w.hi} for w in config.windows],
        "rows": [
            {
                "data": {"id": r.data_id, "spec": model_spec_to_json(r.data_spec)},
                "features": [k.to_json() for k in r.features],
                "losses": [{"kind": l.kind, "tolerance": l.tolerance} for l in r.losses],
            }
            for r in config.rows
        ],
    }


def run_study_row(row: StudyRow, config: StudyConfig, row_index: int,
                  workers: int = 1,
                  pseudo_count: float = DEFAULT_PSEUDO_COUNT,
                  data_graph=None) -> list[StudyRowResult]:
    """Evaluate one study row; returns one result per loss kind.

    Seeds: the data graph uses derive_seed(master, row, 0); candidate family
    f's simulations use derive_seed(master, row, 1 + f). All grid points of
    both families form one flat-prior hypothesis grid; multi-feature rows
    multiply per-feature evidences pointwise (features treated as
    independent) and average per-feature loss ratios.
    """
    row_seed = derive_seed(config.master_seed, row_index)
    if data_graph is None:
        data_graph = sample_graph(row.data_spec, spawn_rng(row_seed, 0))

    # One pool covers every grid point and every feature of the row.
    families = grid_feature_matrices(
        [cand.spec for cand in config.candidates], row.features, config.n_samples,
        [derive_seed(row_seed, 1 + f) for f in range(len(config.candidates))], workers)
    observations = [(kind, float(extract_feature(data_graph, kind)))
                    for kind in row.features]

    pooled = grid_posterior(
        [param for param, grid, _ in families for _ in grid.values],
        [value for _, grid, _ in families for value in grid.values],
        np.concatenate([grid_evidences(observations, matrices, pseudo_count)
                        for _, _, matrices in families]))

    ids = [cand.id for cand in config.candidates]

    def family_loss(cand_id: str, kind: FeatureKind, observed: float, loss: LossKind):
        """Grid-prior-weighted expected loss of one family on one feature."""
        _, grid, matrices = families[ids.index(cand_id)]
        return float(sum(w * expected_loss(FeatureSamples(kind, m[kind]), observed, loss)
                         for w, m in zip(grid.weights, matrices)))

    other = next(i for i in ids if i != row.data_id)
    results = []
    for loss in row.losses:
        ratios = []
        for kind, observed in observations:
            el_wrong = family_loss(other, kind, observed, loss)
            el_right = family_loss(row.data_id, kind, observed, loss)
            ratios.append(float("inf") if el_right == 0 else el_wrong / el_right)
        results.append(StudyRowResult(
            data_id=row.data_id,
            loss=loss,
            features=row.features,
            loss_ratio=float(np.mean(ratios)),
            window_probabilities=tuple(
                pooled.window_probability(w.param, w.lo, w.hi) for w in config.windows),
            posterior=pooled))
    return results


def run_study(config: StudyConfig, workers: int = 1,
              pseudo_count: float = DEFAULT_PSEUDO_COUNT) -> list[StudyRowResult]:
    results: list[StudyRowResult] = []
    for r_index, row in enumerate(config.rows):
        results.extend(run_study_row(row, config, r_index, workers, pseudo_count))
    return results


def study_results_csv(config: StudyConfig, results: Sequence[StudyRowResult]) -> str:
    """Table-shaped export: one line per (data setup, loss kind)."""
    header = ["real_param", "loss", "features", "loss_ratio"]
    header.extend(w.label for w in config.windows)
    lines = [",".join(header)]
    for res in results:
        cells = [
            res.data_id,
            res.loss.kind,
            "+".join(k.name for k in res.features),
            repr(res.loss_ratio),
        ]
        cells.extend(repr(p) for p in res.window_probabilities)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def study_results_json(config: StudyConfig, results: Sequence[StudyRowResult]) -> dict:
    return {
        "n_samples": config.n_samples,
        "seed": config.master_seed,
        "rows": [
            {
                "real_param": res.data_id,
                "loss": res.loss.kind,
                "features": [k.name for k in res.features],
                "loss_ratio": res.loss_ratio,
                "windows": {
                    w.label: p
                    for w, p in zip(config.windows, res.window_probabilities)
                },
                "posterior": {
                    "params": list(res.posterior.params),
                    "values": list(res.posterior.values),
                    "weights": list(res.posterior.posterior_weights),
                },
            }
            for res in results
        ],
    }
