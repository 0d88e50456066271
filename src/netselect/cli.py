"""Command-line front end.

Five workflows: ``generate`` (prior-predictive edge lists), ``features``
(feature table for a graph file), ``compare`` (two-model comparison report),
``elicit`` (range probabilities for prior calibration), and ``simulate``
(grid-study table). Exit codes: 0 success, 2 configuration or input error
(an input too large for memory included), 3 statistically indeterminate
result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from . import study as study_mod
from .errors import (
    DegenerateRatio,
    InvalidSpec,
    NetselectError,
    ParseError,
    UndefinedBayesFactor,
    UndefinedFeature,
    UndefinedPosterior,
)
from .features import FeatureKind, _list_of, _read, _strict_float, _typed, extract_feature
from .generators import GRID_PARAMS, GridPrior, ModelSpec, model_spec_to_json, parse_model_spec
from .graph import Graph, _edge_lines, build_graph, read_edge_list, write_edge_list
# simulate_feature_matrix stays importable here for perfbench/spans.py to wrap.
from .inference import (  # noqa: F401
    DEFAULT_SAMPLES,
    DiscretePmf,
    LossKind,
    _csv,
    _json_number,
    compare_models,
    estimate_density,
    feature_samples,
    prior_predictive,
    range_probability,
    report_features_csv,
    report_to_json,
    simulate_feature_matrices,
    simulate_feature_matrix,
)
from .seeds import derive_seed

_INDETERMINATE_ERRORS = (UndefinedBayesFactor, UndefinedPosterior, DegenerateRatio)


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------

def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise InvalidSpec(f"{path}: JSON nested too deeply to read") from None


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load_model_spec(source) -> ModelSpec:
    """Model spec from a file path (CLI) or an inline JSON object (config)."""
    return parse_model_spec(_load_json(source) if isinstance(source, str) else source)


def _model_ids(sources) -> list[str]:
    """Each model's id: its spec file's base name (``model_<i>`` for an
    inline spec), and for ids that several models share, the id with the
    model's 1-based position as a suffix (``m_1``, ``m_2``), until all differ."""
    ids = [os.path.splitext(os.path.basename(src))[0] if isinstance(src, str)
           else f"model_{i + 1}" for i, src in enumerate(sources)]
    while len(set(ids)) < len(ids):
        shared = {x for x in ids if ids.count(x) > 1}
        ids = [f"{x}_{i + 1}" if x in shared else x for i, x in enumerate(ids)]
    return ids


def load_graph_file(path: str) -> Graph:
    """Read an edge-list file, remapping arbitrary node labels if needed.

    Canonical files (``# n=<N>`` header, dense 0-based integer ids) load
    directly. Otherwise labels are collected, sorted (numerically when all
    are integers, else lexicographically), remapped to dense ids, and the
    mapping is written to ``<path>.mapping.json``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return read_edge_list(text)
    except ParseError:
        node_count, lines = _edge_lines(text)
        if node_count is not None or not lines:
            raise  # a file that declares a node count is canonical: report its error
    labels = sorted({label for _, u, v in lines for label in (u, v)})
    with contextlib.suppress(ValueError):  # non-integer labels stay lexicographic
        labels.sort(key=int)
    mapping = {label: i for i, label in enumerate(labels)}
    graph = build_graph(len(labels), [(mapping[u], mapping[v]) for _, u, v in lines])
    sidecar = path + ".mapping.json"
    try:
        _write_output(_dump_json(mapping), sidecar)
    except OSError as exc:  # graph is still usable without the sidecar
        print(f"warning: could not write {sidecar}: {exc}", file=sys.stderr)
    return graph


def _parse_features(value) -> list[FeatureKind]:
    if value is None:
        raise InvalidSpec("no features given (use --features or config 'features')")
    if isinstance(value, str):
        value = [tok.strip() for tok in value.split(",") if tok.strip()]
    return [FeatureKind.from_json(item) for item in value]


def _parse_ranges(values) -> list[tuple[FeatureKind, float, float]]:
    if not values:
        raise InvalidSpec("no ranges given (use --range feature:lo:hi)")
    out = []
    for item in values:
        if isinstance(item, str):
            try:
                feature, lo, hi = item.split(":")
                kind, lo, hi = FeatureKind(feature), float(lo), float(hi)
            except ValueError:
                raise InvalidSpec(f"range must be feature:lo:hi, got {item!r}") from None
        else:
            kind, lo, hi = _read(item, {"feature": (FeatureKind.from_json, ...),
                                        "lo": (_strict_float, ...),
                                        "hi": (_strict_float, ...)}, "range").values()
        if not (np.isfinite((lo, hi)).all() and lo <= hi):
            raise InvalidSpec(f"range needs finite lo <= hi, got [{lo}, {hi}]")
        out.append((kind, lo, hi))
    return out


def _apply_grid_flags(spec: ModelSpec, grid_flags) -> ModelSpec:
    """Replace named parameters' priors with flat grids (--grid param:v1,v2,...)."""
    for flag in grid_flags or ():
        try:
            param, raw = flag.split(":", 1)
            values = tuple(float(v) for v in raw.split(","))
        except ValueError:
            raise InvalidSpec(f"--grid must be param:v1,v2,..., got {flag!r}") from None
        if GRID_PARAMS.get(type(spec)) != param:
            raise InvalidSpec(f"spec has no grid-able parameter {param!r}")
        spec = replace(spec, **{param: GridPrior(values)})
    return spec


def _ratio_marker(num: float, den: float):
    if den > 0:
        return _json_number(num / den)
    return "inf" if num > 0 else None


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cmd_generate(opts: dict) -> int:
    if not {"model", "out"} <= opts.keys():
        raise InvalidSpec("generate needs --model and --out <directory>")
    spec = _apply_grid_flags(_load_model_spec(opts["model"]), opts["grid"])
    n_samples, seed = opts.get("samples", DEFAULT_SAMPLES), opts.get("seed", 0)
    graphs = prior_predictive(spec, n_samples, seed, workers=opts.get("threads", 1))
    out_dir = opts["out"]
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "model": model_spec_to_json(spec),
        "n_samples": n_samples,
        "master_seed": seed,
        "samples": [],
    }
    for i, g in enumerate(graphs):
        name = f"sample_{i:05d}.tsv"
        _write_output(write_edge_list(g), os.path.join(out_dir, name))
        manifest["samples"].append({"index": i, "seed": derive_seed(seed, i), "path": name})
    _write_output(_dump_json(manifest), os.path.join(out_dir, "manifest.json"))
    return 0


def cmd_features(opts: dict) -> int:
    if "data" not in opts:
        raise InvalidSpec("features needs --data")
    graph = load_graph_file(opts["data"])
    kinds = _parse_features(opts.get("features"))
    rows = []
    for kind in kinds:
        row = {"kind": kind.name, "value": None, "discrete": kind.is_discrete}
        try:
            row["value"] = extract_feature(graph, kind)
        except UndefinedFeature as exc:
            row["error"] = str(exc)
        rows.append(row)
    if opts.get("format") == "csv":
        text = _csv([["kind", "value", "discrete"],
                     *([row["kind"], "NA" if row["value"] is None else row["value"],
                        row["discrete"]] for row in rows)])
    else:
        text = _dump_json({"data": opts["data"], "rows": rows})
    _write_output(text, opts.get("out"))
    return 0


def cmd_compare(opts: dict) -> int:
    if not {"data", "model", "model2"} <= opts.keys():
        raise InvalidSpec("compare needs --data, --model and --model2")
    graph = load_graph_file(opts["data"])
    spec1 = _apply_grid_flags(_load_model_spec(opts["model"]), opts["grid"])
    spec2 = _load_model_spec(opts["model2"])
    kinds = _parse_features(opts.get("features"))
    loss = LossKind.from_json(opts.get("loss", "quadratic"))
    priors = opts.get("model_priors", (0.5, 0.5))
    if len(priors) != 2:
        raise InvalidSpec(f"model_priors must be two numbers, got {list(priors)}")

    report = compare_models(
        graph, spec1, spec2, kinds, loss, opts.get("samples", DEFAULT_SAMPLES),
        opts.get("seed", 0), workers=opts.get("threads", 1),
        model_ids=tuple(_model_ids((opts["model"], opts["model2"]))),
        model_priors=priors)

    text = (report_features_csv(report) if opts.get("format") == "csv"
            else _dump_json(report_to_json(report)))
    _write_output(text, opts.get("out"))
    if "plot_data" in opts:
        _write_plot_data(opts["plot_data"], report)
    return 0


def _write_plot_data(plot_dir: str, report) -> None:
    """Density and histogram CSVs per (feature, model) for offline plotting."""
    os.makedirs(plot_dir, exist_ok=True)
    for matrix, model_id in zip(report.matrices, (report.model_1, report.model_2)):
        for kind, samples in feature_samples(matrix).items():
            density = estimate_density(samples)
            base = os.path.join(plot_dir, f"{kind.name}_{model_id}")
            if isinstance(density, DiscretePmf):
                xs = sorted(density.counts)
                hist = [(x, density.counts[x]) for x in xs]
            else:
                h = density.bandwidth
                lo = float(samples.values.min()) - 3 * h
                hi = float(samples.values.max()) + 3 * h
                xs = np.linspace(lo, hi, 256).tolist()
                counts, edges = np.histogram(samples.values, bins=30)
                hist = zip(((edges[:-1] + edges[1:]) / 2).tolist(), counts.tolist())
            dens = np.exp(density.log_density(xs)).tolist()
            _write_output(_csv([["x", "density"], *zip(xs, dens)]), base + "_density.csv")
            _write_output(_csv([["x", "count"], *hist]), base + "_hist.csv")


def cmd_elicit(opts: dict) -> int:
    sources = [opts[key] for key in ("model", "model2") if key in opts]
    sources += opts.get("models", [])
    if not sources:
        raise InvalidSpec("elicit needs at least one model spec")
    ranges = _parse_ranges(opts["range"] or opts.get("ranges"))
    n_samples = opts.get("samples", DEFAULT_SAMPLES)
    seed = opts.get("seed", 0)

    ids = _model_ids(sources)
    specs = [_apply_grid_flags(_load_model_spec(src), opts["grid"] if i == 0 else None)
             for i, src in enumerate(sources)]

    kinds = sorted({kind for kind, _, _ in ranges}, key=lambda k: k.name)
    matrices = simulate_feature_matrices(specs, kinds, n_samples, seed,
                                         opts.get("threads", 1))
    per_model = {model_id: feature_samples(matrix) for model_id, matrix in zip(ids, matrices)}

    range_rows = []
    for kind, lo, hi in ranges:
        probs = {}
        for model_id in ids:
            p, se, p_lo, p_hi = range_probability(per_model[model_id][kind], lo, hi)
            probs[model_id] = {"probability": p, "std_error": se,
                               "probability_lo": p_lo, "probability_hi": p_hi}
        ratios = {}
        for i, id_a in enumerate(ids):
            for id_b in ids[i + 1:]:
                ratios[f"{id_a}/{id_b}"] = _ratio_marker(
                    probs[id_a]["probability"], probs[id_b]["probability"])
        range_rows.append({"feature": kind.name, "lo": lo, "hi": hi,
                           "per_model": probs, "ratios": ratios})

    if opts.get("format") == "csv":
        keys = ["probability", "std_error", "probability_lo", "probability_hi"]
        text = _csv([["feature", "lo", "hi", "model", *keys],
                     *([row["feature"], row["lo"], row["hi"], model_id,
                        *(row["per_model"][model_id][key] for key in keys)]
                       for row in range_rows for model_id in ids)])
    else:
        text = _dump_json({"n_samples": n_samples, "master_seed": seed,
                           "models": ids, "ranges": range_rows})
    _write_output(text, opts.get("out"))
    return 0


def cmd_simulate(opts: dict) -> int:
    """The study is the config's study keys, with --seed and --samples laid over."""
    if "config" not in opts:
        raise InvalidSpec("simulate needs --config <study.json>")
    study = study_mod.parse_study_config({key: opts.get(key) for key in study_mod._STUDY})
    results = study_mod.run_study(study, workers=opts.get("threads", 1))
    text = (_dump_json(study_mod.study_results_json(study, results))
            if opts.get("format") == "json" else study_mod.study_results_csv(study, results))
    _write_output(text, opts.get("out"))
    return 0


# --------------------------------------------------------------------------
# Parser and entry point
# --------------------------------------------------------------------------

#: Each option's config key -> (flag, ``add_argument`` keywords). simulate's
#: --samples sets the study's ``n_samples``, so it has a key of its own.
_OPTIONS = {
    "config": ("--config", dict(help="JSON config file with flag equivalents")),
    "model": ("--model", dict(help="model spec JSON file")),
    "model2": ("--model2", dict(help="second model spec JSON file")),
    "data": ("--data", dict(help="observed edge-list file (u<TAB>v)")),
    "grid": ("--grid", dict(action="append", metavar="PARAM:V1,V2,...",
                            help="replace a model parameter's prior with a flat grid")),
    "range": ("--range", dict(action="append", metavar="FEATURE:LO:HI",
                              help="feature range; repeatable")),
    "features": ("--features", dict(help="comma-separated feature tokens")),
    "loss": ("--loss", dict(choices=["quadratic", "absolute", "zero_one"])),
    "samples": ("--samples", dict(type=int, help="prior-predictive sample count")),
    "n_samples": ("--samples", dict(type=int, help="the study's n_samples")),
    "seed": ("--seed", dict(type=int, help="master seed")),
    "threads": ("--threads", dict(type=int, help="worker process count (at most one per "
                                  "job and one per usable core)")),
    "format": ("--format", dict(metavar="{json,csv}")),
    "out": ("--out", dict(help="output path (default: stdout)")),
    "plot_data": ("--plot-data", dict(help="directory for density/histogram CSVs")),
}

#: Options given only as flags: a config key of the same name is ignored.
_FLAG_ONLY = ("grid", "range")

#: Each key a --config object may hold (a bool is never accepted): every
#: command's, since one config file can serve several commands, the study's,
#: and the flag-only ones.
_CONFIG = {key: (_typed(types), None) for key, types in {
    "model": (str, dict), "model2": (str, dict), "models": list, "data": str,
    "features": (str, list), "ranges": list, "loss": (str, dict),
    "samples": int, "n_samples": int, "seed": int, "threads": int,
    "format": str, "out": str, "plot_data": str,
    "candidates": list, "windows": list, "rows": list, "grid": list, "range": list,
}.items()} | {"model_priors": (_list_of(_strict_float), None)}

#: Each command's function, help line and options, in --help order.
_COMMANDS = {
    "generate": (cmd_generate, "write prior-predictive edge lists",
                 ("config", "model", "grid", "samples", "seed", "threads", "out")),
    "features": (cmd_features, "feature table for a graph file",
                 ("config", "data", "features", "format", "out")),
    "compare": (cmd_compare, "two-model comparison report",
                ("config", "data", "model", "model2", "grid", "features", "loss",
                 "samples", "seed", "threads", "format", "out", "plot_data")),
    "elicit": (cmd_elicit, "range probabilities per model",
               ("config", "model", "model2", "grid", "range", "samples", "seed",
                "threads", "format", "out")),
    "simulate": (cmd_simulate, "run a grid study from a config",
                 ("config", "n_samples", "seed", "threads", "format", "out")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept: each
    ``parse_args`` returns a new namespace, so no call sees another's values."""
    parser = argparse.ArgumentParser(
        prog="netselect",
        description="Compare random-network models on observed graph features.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in keys:
            flag, kwargs = _OPTIONS[key]
            p.add_argument(flag, dest=key, **kwargs)
    return parser


def _resolve_options(args: argparse.Namespace) -> dict:
    """The command's options: the --config object without its nulls, with the
    explicit flags laid over it."""
    config = _read(_load_json(args.config), _CONFIG, "config") if args.config else {}
    opts = {key: value for key, value in config.items() if value is not None}
    opts.update((key, value) for key, value in vars(args).items()
                if value is not None or key in _FLAG_ONLY)
    if opts.get("threads", 1) < 1:
        raise InvalidSpec(f"threads must be >= 1, got {opts['threads']}")
    if opts.get("format", "json") not in ("json", "csv"):
        raise InvalidSpec(f"format must be json or csv, got {opts['format']!r}")
    return opts


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_resolve_options(args))
    except _INDETERMINATE_ERRORS as exc:
        print(f"indeterminate evidence: {exc}", file=sys.stderr)
        return 3
    except (NetselectError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a pool worker's arrives here through pool_map too
        print(f"error: out of memory in {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
