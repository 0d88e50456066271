"""Command-line front end.

Five workflows: ``generate`` (prior-predictive edge lists), ``features``
(feature table for a graph file), ``compare`` (two-model comparison report),
``elicit`` (range probabilities for prior calibration), and ``simulate``
(grid-study table). Exit codes: 0 success, 2 configuration or input error,
3 statistically indeterminate result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from . import study as study_mod
from .errors import (
    DegenerateRatio,
    InvalidEdge,
    InvalidInput,
    InvalidNode,
    InvalidSpec,
    NetselectError,
    ParseError,
    UndefinedBayesFactor,
    UndefinedFeature,
    UndefinedPosterior,
)
from .features import FeatureKind, extract_feature
from .generators import GridPrior, ModelSpec, model_spec_to_json, parse_model_spec
from .graph import Graph, build_graph, read_edge_list, write_edge_list
# simulate_feature_matrix stays importable here for perfbench/spans.py to wrap.
from .inference import (  # noqa: F401
    DiscretePmf,
    FeatureSamples,
    LossKind,
    _json_number,
    compare_models,
    estimate_density,
    prior_predictive,
    range_probability,
    report_features_csv,
    report_to_json,
    simulate_feature_matrices,
    simulate_feature_matrix,
)
from .seeds import derive_seed

DEFAULT_SAMPLES = 100

_CONFIG_ERRORS = (InvalidSpec, ParseError, InvalidNode, InvalidEdge, InvalidInput,
                  UndefinedFeature, KeyError, ValueError, OSError,
                  json.JSONDecodeError)
_INDETERMINATE_ERRORS = (UndefinedBayesFactor, UndefinedPosterior, DegenerateRatio)


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------

#: The types each config key may take (a bool is never accepted).
_CONFIG_TYPES = {
    "model": (str, dict), "model2": (str, dict), "models": list, "data": str,
    "features": (str, list), "ranges": list, "loss": (str, dict),
    "samples": int, "seed": int, "threads": int, "model_priors": list,
    "format": str, "out": str, "plot_data": str,
}


def _load_json(path: Optional[str]) -> dict:
    """The JSON object in ``path`` ({} without a path), its config keys type-checked."""
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise InvalidSpec(f"{path} must hold a JSON object, not {type(obj).__name__}")
    for key, types in _CONFIG_TYPES.items():
        value = obj.get(key)
        if value is not None and (isinstance(value, bool) or not isinstance(value, types)):
            raise InvalidSpec(f"config {key!r} has the wrong type: {value!r}")
    return obj


def _config_get(args, config: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key)
    return default if value is None else value


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load_model_spec(source) -> ModelSpec:
    """Model spec from a file path (CLI) or an inline JSON object (config)."""
    try:
        return parse_model_spec(_load_json(source) if isinstance(source, str) else source)
    except (TypeError, OverflowError) as exc:
        raise InvalidSpec(f"malformed model spec {source!r}: {exc}") from None


def _model_label(source, fallback: str) -> str:
    if isinstance(source, str):
        return os.path.splitext(os.path.basename(source))[0]
    return fallback


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
    except ParseError as canonical_error:
        # files that declare a node count are canonical: report their errors
        if any(line.strip().startswith("#") and "n=" in line.replace(" ", "")
               for line in text.splitlines()):
            raise
        graph, mapping = _remap_labels(text, canonical_error)
        sidecar = path + ".mapping.json"
        try:
            with open(sidecar, "w", encoding="utf-8") as fh:
                fh.write(_dump_json(mapping))
        except OSError as exc:  # graph is still usable without the sidecar
            print(f"warning: could not write {sidecar}: {exc}", file=sys.stderr)
        return graph


def _remap_labels(text: str, canonical_error: ParseError) -> tuple[Graph, dict]:
    pairs: list[tuple[str, str]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise canonical_error
        a, b = parts
        if a == b:
            raise ParseError(f"self-loop ({a}, {b})", ln)
        pairs.append((a, b))
    if not pairs:
        raise canonical_error
    labels = sorted({x for pair in pairs for x in pair})
    try:
        labels.sort(key=int)
    except ValueError:
        pass  # non-integer labels stay lexicographic
    mapping = {label: i for i, label in enumerate(labels)}
    graph = build_graph(len(labels), [(mapping[a], mapping[b]) for a, b in pairs])
    return graph, mapping


def _parse_features(value, config: dict) -> list[FeatureKind]:
    if value is None:
        value = config.get("features")
    if value is None:
        raise InvalidSpec("no features given (use --features or config 'features')")
    if isinstance(value, str):
        tokens = [tok.strip() for tok in value.split(",") if tok.strip()]
        return [FeatureKind(tok) for tok in tokens]
    return [FeatureKind.from_json(item) for item in value]


def _parse_ranges(values, config: dict) -> list[tuple[FeatureKind, float, float]]:
    if not values:
        values = config.get("ranges")
    if not values:
        raise InvalidSpec("no ranges given (use --range feature:lo:hi)")
    out = []
    for item in values:
        if isinstance(item, str) and item.count(":") == 2:
            feature, lo, hi = item.split(":")
        elif isinstance(item, dict):
            feature, lo, hi = item.get("feature", item.get("kind")), item.get("lo"), item.get("hi")
        else:
            raise InvalidSpec(f"range must be feature:lo:hi or an object, got {item!r}")
        try:
            kind, lo, hi = FeatureKind.from_json(feature), float(lo), float(hi)
        except (TypeError, ValueError):
            raise InvalidSpec(f"cannot parse range {item!r}") from None
        if lo > hi:
            raise InvalidSpec(f"range needs lo <= hi, got [{lo}, {hi}]")
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
        grid = GridPrior(values)
        if param == "alpha" and hasattr(spec, "alpha"):
            spec = replace(spec, alpha=grid)
        elif param == "k" and hasattr(spec, "k"):
            spec = replace(spec, k=grid)
        elif param == "p" and hasattr(spec, "p"):
            spec = replace(spec, p=grid)
        else:
            raise InvalidSpec(f"spec has no grid-able parameter {param!r}")
    return spec


def _ratio_marker(num: float, den: float):
    if den > 0:
        return _json_number(num / den)
    return "inf" if num > 0 else None


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cmd_generate(args) -> int:
    config = _load_json(args.config)
    model_src = _config_get(args, config, "model")
    if model_src is None:
        raise InvalidSpec("generate needs --model")
    spec = _apply_grid_flags(_load_model_spec(model_src), args.grid)
    n_samples = int(_config_get(args, config, "samples", DEFAULT_SAMPLES))
    seed = int(_config_get(args, config, "seed", 0))
    workers = int(_config_get(args, config, "threads", 1))
    out_dir = _config_get(args, config, "out")
    if out_dir is None:
        raise InvalidSpec("generate needs --out <directory>")
    os.makedirs(out_dir, exist_ok=True)

    graphs = prior_predictive(spec, n_samples, seed, workers=workers)
    manifest = {
        "model": model_spec_to_json(spec),
        "n_samples": n_samples,
        "master_seed": seed,
        "samples": [],
    }
    for i, g in enumerate(graphs):
        name = f"sample_{i:05d}.tsv"
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(write_edge_list(g))
        manifest["samples"].append(
            {"index": i, "seed": derive_seed(seed, i), "path": name})
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(_dump_json(manifest))
    return 0


def cmd_features(args) -> int:
    config = _load_json(args.config)
    data_path = _config_get(args, config, "data")
    if data_path is None:
        raise InvalidSpec("features needs --data")
    graph = load_graph_file(data_path)
    kinds = _parse_features(args.features, config)
    rows = []
    for kind in kinds:
        try:
            value = extract_feature(graph, kind)
            rows.append({"kind": kind.name, "value": value,
                         "discrete": kind.is_discrete})
        except UndefinedFeature as exc:
            rows.append({"kind": kind.name, "value": None,
                         "discrete": kind.is_discrete, "error": str(exc)})
    fmt = _config_get(args, config, "format", "json")
    if fmt == "csv":
        lines = ["kind,value,discrete"]
        for row in rows:
            value = "NA" if row["value"] is None else repr(row["value"])
            lines.append(f"{row['kind']},{value},{row['discrete']}")
        text = "\n".join(lines) + "\n"
    else:
        text = _dump_json({"data": data_path, "rows": rows})
    _write_output(text, _config_get(args, config, "out"))
    return 0


def cmd_compare(args) -> int:
    config = _load_json(args.config)
    data_path = _config_get(args, config, "data")
    model_src = _config_get(args, config, "model")
    model2_src = _config_get(args, config, "model2")
    if data_path is None or model_src is None or model2_src is None:
        raise InvalidSpec("compare needs --data, --model and --model2")
    graph = load_graph_file(data_path)
    spec1 = _apply_grid_flags(_load_model_spec(model_src), args.grid)
    spec2 = _load_model_spec(model2_src)
    kinds = _parse_features(args.features, config)
    loss = LossKind.from_json(_config_get(args, config, "loss", "quadratic"))
    n_samples = int(_config_get(args, config, "samples", DEFAULT_SAMPLES))
    seed = int(_config_get(args, config, "seed", 0))
    workers = int(_config_get(args, config, "threads", 1))
    priors = config.get("model_priors", [0.5, 0.5])
    if len(priors) != 2 or not all(type(p) in (int, float) and 0 <= p < math.inf
                                   for p in priors):
        raise InvalidSpec(f"model_priors must be two non-negative numbers, got {priors!r}")

    report = compare_models(
        graph, spec1, spec2, kinds, loss, n_samples, seed, workers=workers,
        model_ids=(_model_label(model_src, "model_1"),
                   _model_label(model2_src, "model_2")),
        model_priors=(float(priors[0]), float(priors[1])))

    fmt = _config_get(args, config, "format", "json")
    text = (report_features_csv(report) if fmt == "csv"
            else _dump_json(report_to_json(report)))
    _write_output(text, _config_get(args, config, "out"))

    plot_dir = _config_get(args, config, "plot_data")
    if plot_dir is not None:
        _write_plot_data(plot_dir, report, kinds)
    return 0


def _write_plot_data(plot_dir: str, report, kinds) -> None:
    """Density and histogram CSVs per (feature, model) for offline plotting."""
    os.makedirs(plot_dir, exist_ok=True)
    for matrix, model_id in zip(report.matrices, (report.model_1, report.model_2)):
        for kind in kinds:
            samples = FeatureSamples(kind, matrix[kind], model_id=model_id)
            density = estimate_density(samples)
            base = os.path.join(plot_dir, f"{kind.name}_{model_id}")
            if isinstance(density, DiscretePmf):
                xs = sorted(density.counts)
                dens = [density.evaluate(x) for x in xs]
                hist = [(x, density.counts[x]) for x in xs]
            else:
                h = density.bandwidth
                lo = float(samples.values.min()) - 3 * h
                hi = float(samples.values.max()) + 3 * h
                xs = np.linspace(lo, hi, 256).tolist()
                dens = [density.evaluate(x) for x in xs]
                counts, edges = np.histogram(samples.values, bins=30)
                hist = [((edges[i] + edges[i + 1]) / 2, int(c))
                        for i, c in enumerate(counts)]
            with open(base + "_density.csv", "w", encoding="utf-8") as fh:
                fh.write("x,density\n")
                fh.writelines(f"{x!r},{d!r}\n" for x, d in zip(xs, dens))
            with open(base + "_hist.csv", "w", encoding="utf-8") as fh:
                fh.write("x,count\n")
                fh.writelines(f"{x!r},{c!r}\n" for x, c in hist)


def cmd_elicit(args) -> int:
    config = _load_json(args.config)
    sources = [src for src in (_config_get(args, config, "model"),
                               _config_get(args, config, "model2")) if src is not None]
    sources += _config_get(args, config, "models", [])
    if not sources:
        raise InvalidSpec("elicit needs at least one model spec")
    ranges = _parse_ranges(args.range, config)
    n_samples = int(_config_get(args, config, "samples", DEFAULT_SAMPLES))
    seed = int(_config_get(args, config, "seed", 0))
    workers = int(_config_get(args, config, "threads", 1))

    ids = [_model_label(src, f"model_{i + 1}") for i, src in enumerate(sources)]
    specs = [_apply_grid_flags(_load_model_spec(src), args.grid if i == 0 else None)
             for i, src in enumerate(sources)]

    kinds = sorted({kind for kind, _, _ in ranges}, key=lambda k: k.name)
    matrices = simulate_feature_matrices(specs, kinds, n_samples, seed, workers)
    per_model = {
        model_id: {kind: FeatureSamples(kind, matrix[kind], model_id=model_id)
                   for kind in kinds}
        for model_id, matrix in zip(ids, matrices)
    }

    range_rows = []
    for kind, lo, hi in ranges:
        probs = {}
        for model_id in ids:
            p, se = range_probability(per_model[model_id][kind], lo, hi)
            probs[model_id] = {"probability": p, "std_error": se}
        ratios = {}
        for i, id_a in enumerate(ids):
            for id_b in ids[i + 1:]:
                ratios[f"{id_a}/{id_b}"] = _ratio_marker(
                    probs[id_a]["probability"], probs[id_b]["probability"])
        range_rows.append({"feature": kind.name, "lo": lo, "hi": hi,
                           "per_model": probs, "ratios": ratios})

    fmt = _config_get(args, config, "format", "json")
    if fmt == "csv":
        lines = ["feature,lo,hi,model,probability,std_error"]
        for row in range_rows:
            for model_id in ids:
                cell = row["per_model"][model_id]
                lines.append(",".join([
                    row["feature"], repr(row["lo"]), repr(row["hi"]), model_id,
                    repr(cell["probability"]), repr(cell["std_error"])]))
        text = "\n".join(lines) + "\n"
    else:
        text = _dump_json({"n_samples": n_samples, "master_seed": seed,
                           "models": ids, "ranges": range_rows})
    _write_output(text, _config_get(args, config, "out"))
    return 0


def cmd_simulate(args) -> int:
    if not args.config:
        raise InvalidSpec("simulate needs --config <study.json>")
    config_obj = _load_json(args.config)
    if args.seed is not None:
        config_obj["seed"] = args.seed
    if args.samples is not None:
        config_obj["n_samples"] = args.samples
    study = study_mod.parse_study_config(config_obj)
    workers = _config_get(args, config_obj, "threads", 1)
    results = study_mod.run_study(study, workers=workers)
    fmt = args.format if args.format is not None else "csv"
    if fmt == "json":
        text = _dump_json(study_mod.study_results_json(study, results))
    else:
        text = study_mod.study_results_csv(study, results)
    _write_output(text, args.out)
    return 0


# --------------------------------------------------------------------------
# Parser and entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netselect",
        description="Compare random-network models on observed graph features.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file with flag equivalents")
        p.add_argument("--model", help="model spec JSON file")
        p.add_argument("--model2", help="second model spec JSON file")
        p.add_argument("--data", help="observed edge-list file (u<TAB>v)")
        p.add_argument("--features", help="comma-separated feature tokens")
        p.add_argument("--loss", choices=["quadratic", "absolute", "zero_one"])
        p.add_argument("--samples", type=int, help="prior-predictive sample count")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--threads", type=int, help="worker process count")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=["json", "csv"])
        p.add_argument("--range", action="append", metavar="FEATURE:LO:HI",
                       help="feature range; repeatable")
        p.add_argument("--grid", action="append", metavar="PARAM:V1,V2,...",
                       help="replace a model parameter's prior with a flat grid")

    p_gen = sub.add_parser("generate", help="write prior-predictive edge lists")
    add_common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_feat = sub.add_parser("features", help="feature table for a graph file")
    add_common(p_feat)
    p_feat.set_defaults(func=cmd_features)

    p_cmp = sub.add_parser("compare", help="two-model comparison report")
    add_common(p_cmp)
    p_cmp.add_argument("--plot-data", dest="plot_data",
                       help="directory for density/histogram CSVs")
    p_cmp.set_defaults(func=cmd_compare)

    p_eli = sub.add_parser("elicit", help="range probabilities per model")
    add_common(p_eli)
    p_eli.set_defaults(func=cmd_elicit)

    p_sim = sub.add_parser("simulate", help="run a grid study from a config")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INDETERMINATE_ERRORS as exc:
        print(f"indeterminate evidence: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NetselectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
