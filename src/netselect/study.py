"""Simulation-study driver: candidate hypothesis grids against synthetic data.

A study pits two candidate families, each a model spec with a grid prior over
one parameter, against data drawn from a known generator. Per study row: draw
one data graph, extract the row's features, compute per-grid-point log
evidences for every candidate, pool everything into one flat-prior hypothesis
grid, and report window posterior probabilities plus expected-loss ratios of the
non-generating family over the generating one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidSpec
from .features import (FeatureKind, _list_of, _object, _read, _strict_float, _strict_int,
                       _typed, extract_feature)
from .generators import ModelSpec, parse_model_spec, sample_graph
# estimate_density, evidence and expected_loss stay importable here for perfbench/spans.py to wrap.
from .inference import (  # noqa: F401
    DEFAULT_SAMPLES,
    LossKind,
    ParamPosterior,
    _csv,
    _json_number,
    _loss_ratio,
    estimate_density,
    evidence,
    expected_loss,
    grid_feature_matrices,
    grid_points,
    grid_posterior,
    score,
)
from .seeds import derive_seed, spawn_rng


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
        if not (np.isfinite((self.lo, self.hi)).all() and self.lo <= self.hi):
            raise InvalidSpec(f"window needs finite lo <= hi, got [{self.lo}, {self.hi}]")

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
    n_samples: int = DEFAULT_SAMPLES
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
            if len(set(row.features)) < len(row.features):
                raise InvalidSpec(f"each row feature may be given once, got "
                                  f"{[k.name for k in row.features]}")
        labels = [w.label for w in self.windows]
        if len(set(labels)) < len(labels):  # each is one CSV column and one JSON key
            raise InvalidSpec(f"each window label may be given once, got {labels}")
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


#: A candidate family, and a study row's data setup: {"id", "spec"}.
_CANDIDATE = _object(Candidate, {"id": (_typed(str), ...),
                                 "spec": (lambda value, name: parse_model_spec(value), ...)})


def _study_row(obj, name: str) -> StudyRow:
    data, features, losses = _read(obj, {
        "data": (_CANDIDATE, ...),
        "features": (_list_of(FeatureKind.from_json), ...),
        "losses": (_list_of(LossKind.from_json), (LossKind("quadratic"),)),
    }, name).values()
    return StudyRow(data.id, data.spec, features, losses)


#: The keys of a study config, in StudyConfig's argument order ("seed" is
#: the master seed).
_STUDY = {
    "candidates": (_list_of(_CANDIDATE), ...),
    "windows": (_list_of(_object(Window, {"param": (_typed(str), ...),
                                          "lo": (_strict_float, ...),
                                          "hi": (_strict_float, ...)})), ()),
    "rows": (_list_of(_study_row), ...),
    "n_samples": (_strict_int, DEFAULT_SAMPLES),
    "seed": (_strict_int, 0),
}


def parse_study_config(obj: dict) -> StudyConfig:
    return StudyConfig(*_read(obj, _STUDY, "study config").values())


def run_study_row(row: StudyRow, config: StudyConfig, row_index: int,
                  workers: int = 1) -> list[StudyRowResult]:
    """Evaluate one study row; returns one result per loss kind.

    Seeds: the data graph uses derive_seed(master, row, 0); candidate family
    f's simulations use derive_seed(master, row, 1 + f). All grid points of
    both families form one flat-prior hypothesis grid; multi-feature rows
    sum per-point log evidences (features treated as independent) and
    average per-feature loss ratios. A window over a parameter that no
    candidate grids raises InvalidSpec before anything is drawn.
    """
    gridded = [grid_points(cand.spec)[0] for cand in config.candidates]
    for w in config.windows:
        if w.param not in gridded:
            raise InvalidSpec(f"window {w.label} is over {w.param!r}, which no candidate "
                              f"family grids (they grid {gridded})")
    row_seed = derive_seed(config.master_seed, row_index)
    data_graph = sample_graph(row.data_spec, spawn_rng(row_seed, 0))

    # One pool covers every grid point and every feature of the row.
    families = grid_feature_matrices(
        [cand.spec for cand in config.candidates], row.features, config.n_samples,
        [derive_seed(row_seed, 1 + f) for f in range(len(config.candidates))], workers)
    observations = [(kind, float(extract_feature(data_graph, kind)))
                    for kind in row.features]
    logs, loss_rows = score(observations, [list(zip(grid.weights, matrices))
                                           for _, grid, matrices in families], row.losses)
    pooled = grid_posterior(
        [param for param, grid, _ in families for _ in grid.values],
        [value for _, grid, _ in families for value in grid.values], logs.sum(axis=1))
    windows = tuple(pooled.window_probability(w.param, w.lo, w.hi) for w in config.windows)
    data = [cand.id for cand in config.candidates].index(row.data_id)  # the other is 1 - data
    results = []
    for loss, family_losses in zip(row.losses, loss_rows):
        ratios = [_loss_ratio(el_other, el_data, f"for {kind.name} in study row {row_index}")
                  for (kind, _), el_other, el_data
                  in zip(observations, family_losses[1 - data], family_losses[data])]
        results.append(StudyRowResult(data_id=row.data_id, loss=loss, features=row.features,
                                      loss_ratio=float(np.mean(ratios)),
                                      window_probabilities=windows, posterior=pooled))
    return results


def run_study(config: StudyConfig, workers: int = 1) -> list[StudyRowResult]:
    results: list[StudyRowResult] = []
    for r_index, row in enumerate(config.rows):
        results.extend(run_study_row(row, config, r_index, workers))
    return results


def study_results_csv(config: StudyConfig, results: Sequence[StudyRowResult]) -> str:
    """Table-shaped export: one line per (data setup, loss kind)."""
    return _csv([["real_param", "loss", "features", "loss_ratio",
                  *(w.label for w in config.windows)],
                 *([res.data_id, res.loss.kind, "+".join(k.name for k in res.features),
                    res.loss_ratio, *res.window_probabilities] for res in results)])


def study_results_json(config: StudyConfig, results: Sequence[StudyRowResult]) -> dict:
    """JSON-ready dict; an infinite loss ratio is encoded as the string "inf"."""
    return {
        "n_samples": config.n_samples,
        "seed": config.master_seed,
        "rows": [
            {
                "real_param": res.data_id,
                "loss": res.loss.kind,
                "features": [k.name for k in res.features],
                "loss_ratio": _json_number(res.loss_ratio),
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
