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
from .inference import (
    DEFAULT_PSEUDO_COUNT,
    FeatureSamples,
    LossKind,
    ParamPosterior,
    _posterior_from_evidences,
    estimate_density,
    evidence,
    expected_loss,
    grid_feature_matrices,
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
    except (KeyError, TypeError) as exc:
        raise InvalidSpec(f"malformed study config: {exc!r}") from None
    return StudyConfig(
        candidates=candidates,
        windows=windows,
        rows=rows,
        n_samples=int(obj.get("n_samples", DEFAULT_STUDY_SAMPLES)),
        master_seed=int(obj.get("seed", 0)),
    )


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

    # One simulation pass per family covers every feature of the row.
    families = [
        (cand.id,
         *grid_feature_matrices(cand.spec, row.features, config.n_samples,
                                derive_seed(row_seed, 1 + f_index), workers))
        for f_index, cand in enumerate(config.candidates)
    ]
    point_params: list[str] = []
    point_values: list[float] = []
    for _, param, grid, _ in families:
        point_params.extend([param] * len(grid.values))
        point_values.extend(grid.values)

    generating = row.data_id
    other = next(c.id for c in config.candidates if c.id != generating)
    evidence_product = np.ones(len(point_params))
    loss_ratio_terms: dict[LossKind, list[float]] = {l: [] for l in row.losses}

    for kind in row.features:
        observed = float(extract_feature(data_graph, kind))
        point_evidences: list[float] = []
        family_losses: dict[str, dict[LossKind, float]] = {}
        for cand_id, param, grid, matrices in families:
            ensembles = [FeatureSamples(kind, matrix[kind],
                                        model_id=f"{cand_id}:{param}={value:g}")
                         for value, matrix in zip(grid.values, matrices)]
            point_evidences.extend(
                evidence(estimate_density(s, pseudo_count), observed)
                for s in ensembles)
            family_losses[cand_id] = {
                loss: float(sum(w * expected_loss(s, observed, loss)
                                for w, s in zip(grid.weights, ensembles)))
                for loss in row.losses
            }
        evidence_product *= np.asarray(point_evidences)
        for loss in row.losses:
            el_wrong = family_losses[other][loss]
            el_right = family_losses[generating][loss]
            loss_ratio_terms[loss].append(
                float("inf") if el_right == 0 else el_wrong / el_right)

    flat = [1.0 / len(point_params)] * len(point_params)
    pooled = _posterior_from_evidences(point_params, point_values, flat,
                                       evidence_product)
    return [
        StudyRowResult(
            data_id=row.data_id,
            loss=loss,
            features=row.features,
            loss_ratio=float(np.mean(loss_ratio_terms[loss])),
            window_probabilities=tuple(
                pooled.window_probability(w.param, w.lo, w.hi) for w in config.windows),
            posterior=pooled,
        )
        for loss in row.losses
    ]


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
