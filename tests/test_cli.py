import argparse
import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from netselect import derive_seed, generate_er, parse_model_spec, sample_graph, write_edge_list
from netselect.cli import build_parser, load_graph_file, main


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def er_spec(tmp_path):
    return write_json(tmp_path / "er_dense.json",
                      {"type": "er", "n": 3, "p": {"point": 1.0}})


def run_cli(args):
    return main([str(a) for a in args])


# --------------------------------------------------------------------------
# generate
# --------------------------------------------------------------------------

def test_generate_single_complete_graph(tmp_path, er_spec):
    out = tmp_path / "out"
    assert run_cli(["generate", "--model", er_spec, "--samples", 1,
                    "--seed", 0, "--out", out]) == 0
    body = (out / "sample_00000.tsv").read_text()
    assert body == "# n=3\n0\t1\n0\t2\n1\t2\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_samples"] == 1
    assert manifest["master_seed"] == 0
    assert manifest["samples"][0]["path"] == "sample_00000.tsv"
    assert isinstance(manifest["samples"][0]["seed"], int)


def test_generate_same_seed_is_byte_identical(tmp_path):
    spec = write_json(tmp_path / "m.json",
                      {"type": "er", "n": 20, "p": {"uniform": [0.1, 0.4]}})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["generate", "--model", spec, "--samples", 5,
                        "--seed", 11, "--out", out]) == 0
        outs.append(sorted((f.name, f.read_bytes()) for f in out.iterdir()))
    assert outs[0] == outs[1]


def test_generate_default_sample_count_is_100(tmp_path, er_spec):
    out = tmp_path / "out"
    assert run_cli(["generate", "--model", er_spec, "--seed", 0,
                    "--out", out]) == 0
    assert len(list(out.glob("sample_*.tsv"))) == 100
    from netselect.inference import DEFAULT_SAMPLES
    assert DEFAULT_SAMPLES == 100


def test_generate_rejects_bad_spec(tmp_path):
    bad = write_json(tmp_path / "bad.json", {"type": "er", "n": 5})
    assert run_cli(["generate", "--model", bad, "--samples", 1,
                    "--seed", 0, "--out", tmp_path / "x"]) == 2


LOGLINEAR = {"type": "loglinear", "n": 8, "lambda": 1.0, "burn_in": 40, "thin": 4,
             "terms": [{"weight": -1.0, "f": "edge_count"}]}
SBM = {"type": "sbm", "n": 10, "k": 2, "p_in": 0.5, "p_out": 0.1}


@pytest.mark.parametrize("spec", [
    {"type": "powerlaw", "n": 10, "alpha": {"uniform": [3, math.inf]}},
    {"type": "sbm", "n": 10, "k": {"uniform": [1, math.inf]}, "p_in": 0.5, "p_out": 0.1},
    {"type": "powerlaw", "n": 10, "alpha": {"grid": {"values": [3, math.inf]}}},
    {"type": "er", "n": 10, "p": {"grid": {"values": [0.1, 0.2], "weights": [1, math.inf]}}},
    dict(LOGLINEAR, thin="x"),
    dict(LOGLINEAR, thin=2.5),
    dict(LOGLINEAR, thin=True),
    dict(LOGLINEAR, burn_in=-1),
    dict(LOGLINEAR, **{"lambda": math.nan}),
    dict(LOGLINEAR, terms=[{"weight": math.nan, "f": "edge_count"}]),
    {"type": "er", "n": 10, "p": {"point": math.nan}},
    {"type": "powerlaw", "n": 10, "alpha": {"point": math.nan}},
    {"type": "powerlaw", "n": 10, "alpha": {"point": math.inf}},
    dict(SBM, k={"point": math.nan}),
    dict(SBM, k={"point": math.inf}),
    dict(SBM, k={"grid": {"values": [1e300]}}),
    dict(SBM, k=11),
    dict(SBM, membership={"dirichlet": math.nan}),
    dict(SBM, membership={"dirichlet": math.inf}),
    dict(SBM, n=6, k={"grid": {"values": [2, 3]}}, membership=[0, 1, 2, 3, 4, 5]),
    dict(LOGLINEAR, n=10, terms=[{"weight": 5.0, "f": "individual_edge", "u": 0, "v": 50},
                                 {"weight": -1.0, "f": "individual_edge", "u": -1, "v": 3}]),
    dict(LOGLINEAR, terms=[{"weight": 1.0, "f": "individual_edge", "u": -1, "v": 3}]),
    {"type": "er", "n": True, "p": 0.5},
    {"type": "er", "n": 6.9, "p": 0.5},
    {"type": "er", "n": "7", "p": 0.5},
    {"type": "powerlaw", "n": 10, "alpha": 3.0, "d_min": 1.9},
    dict(SBM, k=2.7),
    dict(SBM, membership=[0, 1] * 4 + [0.5, 1]),
    dict(LOGLINEAR, terms=[{"weight": 1.0, "f": "degree_count", "d": 1.5}]),
    dict(LOGLINEAR, terms=[{"weight": 1.0, "f": "individual_edge", "u": 0.9, "v": 3}]),
    {"type": "powerlaw", "n": 6, "alpha": 3, "d_mn": 3},
    {"type": "er", "n": 10, "p": {"point": "0.5"}},
    {"type": "er", "n": 10, "p": {"point": True}},
    dict(SBM, p_in=True),
    {"type": "sbm", "n": 10, "K": 2, "p_in": 0.5, "p_out": 0.1},
    {"type": "er", "n": 10},
    {"type": "er", "n": 10, "p": {"uniform": [0.1, 10 ** 400]}},
    dict(LOGLINEAR, terms=[{"weight": "1", "f": "edge_count"}]),
], ids=["powerlaw_infinite_alpha", "sbm_infinite_k", "powerlaw_infinite_grid_value",
        "infinite_grid_weight", "thin_string", "thin_float",
        "thin_bool", "negative_burn_in", "nan_lambda", "nan_weight",
        "er_nan_point", "powerlaw_nan_point", "powerlaw_infinite_point",
        "sbm_nan_point_k", "sbm_infinite_point_k", "sbm_huge_grid_k", "sbm_k_above_n",
        "dirichlet_nan", "dirichlet_infinite", "membership_above_least_grid_k",
        "individual_edge_outside_n", "individual_edge_negative_u",
        "n_bool", "n_float", "n_string", "powerlaw_float_d_min", "sbm_float_k",
        "membership_float_label", "degree_count_float_d", "individual_edge_float_u",
        "misspelled_d_min", "point_string", "point_bool", "p_in_bool", "sbm_K_alias",
        "er_without_p", "uniform_bound_beyond_float_range", "term_weight_string"])
def test_generate_rejects_bad_spec_numbers(tmp_path, capsys, spec):
    """Numbers of the right JSON type but unusable value fail when the spec is
    parsed (exit 2), not with a traceback or a silently meaningless draw."""
    path = write_json(tmp_path / "spec.json", spec)
    assert run_cli(["generate", "--model", path, "--samples", 1,
                    "--seed", 0, "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x").exists()


def test_generate_that_fails_leaves_no_out_directory(tmp_path, er_spec):
    assert run_cli(["generate", "--model", er_spec, "--samples", 0,
                    "--out", tmp_path / "x"]) == 2
    assert not (tmp_path / "x").exists()


# --------------------------------------------------------------------------
# features
# --------------------------------------------------------------------------

def test_features_table_for_k3(tmp_path, er_spec, capsys):
    out = tmp_path / "g"
    run_cli(["generate", "--model", er_spec, "--samples", 1, "--seed", 0,
             "--out", out])
    data = out / "sample_00000.tsv"
    assert run_cli(["features", "--data", data, "--features",
                    "link_density,degree_entropy,triangle_count,diameter"]) == 0
    rows = {r["kind"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
    assert rows["link_density"]["value"] == 1.0
    assert rows["degree_entropy"]["value"] == 0.0
    assert rows["triangle_count"]["value"] == 1
    assert rows["diameter"]["value"] == 1


def test_features_null_marker_on_undefined(tmp_path, capsys):
    data = tmp_path / "empty.tsv"
    data.write_text("# n=4\n")
    assert run_cli(["features", "--data", data,
                    "--features", "power_law_exponent"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert row["value"] is None
    assert "error" in row


def test_features_csv_format(tmp_path, capsys):
    data = tmp_path / "empty.tsv"
    data.write_text("# n=4\n")
    assert run_cli(["features", "--data", data, "--format", "csv",
                    "--features", "link_density,power_law_exponent"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "kind,value,discrete"
    assert lines[1].startswith("link_density,0.0")
    assert lines[2] == "power_law_exponent,NA,False"


@pytest.mark.parametrize("kind", [{"kind": "block_count", "k_max": 2.5},
                                  {"kind": "power_law_exponent", "d_min": True}],
                         ids=["float_k_max", "bool_d_min"])
def test_a_non_integer_feature_parameter_in_a_config_is_an_input_error(tmp_path, capsys,
                                                                       kind):
    data = tmp_path / "g.tsv"
    data.write_text("# n=3\n0\t1\n")
    cfg = write_json(tmp_path / "cfg.json", {"features": [kind]})
    assert run_cli(["features", "--config", cfg, "--data", data]) == 2
    assert "must be an integer" in capsys.readouterr().err


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------

def make_data_graph(tmp_path, spec_obj, seed=0):
    spec = write_json(tmp_path / "data_spec.json", spec_obj)
    out = tmp_path / "datagen"
    assert run_cli(["generate", "--model", spec, "--samples", 1,
                    "--seed", seed, "--out", out]) == 0
    return out / "sample_00000.tsv"


def test_compare_self_is_indeterminate(tmp_path):
    data = make_data_graph(tmp_path, {"type": "er", "n": 15, "p": 0.4})
    m = write_json(tmp_path / "m.json", {"type": "er", "n": 15, "p": 0.4})
    report_path = tmp_path / "report.json"
    assert run_cli(["compare", "--data", data, "--model", m, "--model2", m,
                    "--features", "triangle_count,degree_entropy",
                    "--loss", "quadratic", "--samples", 40, "--seed", 3,
                    "--out", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert report["decision"] == "indeterminate"
    assert report["combined_ratio"] == 1.0
    for fc in report["features"]:
        assert fc["bayes_factor"] == 1.0
        assert fc["loss_ratio"] == 1.0


def test_compare_report_schema(tmp_path):
    data = make_data_graph(tmp_path, {"type": "er", "n": 15, "p": 0.4})
    m1 = write_json(tmp_path / "m1.json", {"type": "er", "n": 15, "p": 0.35})
    m2 = write_json(tmp_path / "m2.json", {"type": "er", "n": 15, "p": 0.6})
    report_path = tmp_path / "report.json"
    assert run_cli(["compare", "--data", data, "--model", m1, "--model2", m2,
                    "--features", "triangle_count", "--loss", "absolute",
                    "--samples", 30, "--seed", 5, "--out", report_path]) == 0
    report = json.loads(report_path.read_text())
    for key in ("model_1", "model_2", "n_samples", "master_seed", "features",
                "combined_ratio", "posterior_odds", "decision",
                "decision_rule", "block_count_method"):
        assert key in report
    feature_row = report["features"][0]
    for key in ("kind", "evidence_1", "evidence_2", "bayes_factor",
                "el_1", "el_2", "loss_ratio"):
        assert key in feature_row
    assert report["model_1"] == "m1"
    assert report["block_count_method"] == "bethe_hessian"


def test_compare_csv_export(tmp_path, capsys):
    data = make_data_graph(tmp_path, {"type": "er", "n": 12, "p": 0.5})
    m1 = write_json(tmp_path / "m1.json", {"type": "er", "n": 12, "p": 0.4})
    assert run_cli(["compare", "--data", data, "--model", m1, "--model2", m1,
                    "--features", "link_density", "--samples", 20,
                    "--seed", 1, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ("kind,observed,evidence_1,evidence_2,bayes_factor,el_1,el_2,loss_ratio,"
                        "log_evidence_1,log_evidence_2,log_bayes_factor")
    assert len(lines) == 2
    assert run_cli(["compare", "--data", data, "--model", m1, "--model2", m1,
                    "--features", "link_density", "--samples", 20,
                    "--seed", 1]) == 0
    [row] = json.loads(capsys.readouterr().out)["features"]
    cells = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert cells.pop("kind") == row["kind"]
    assert cells == {key: repr(float(row[key])) for key in cells}


@pytest.mark.parametrize("features", [
    "triangle_count,triangle_count",
    ["triangle_count", "link_density", {"kind": "triangle_count", "d_min": 2}],
], ids=["same_token", "same_kind_other_ignored_parameter"])
def test_compare_rejects_a_repeated_feature(tmp_path, capsys, features):
    # The posterior odds multiply per-feature evidences, so a repeat would
    # count one feature's evidence twice and could flip the decision.
    data = make_data_graph(tmp_path, {"type": "er", "n": 10, "p": 0.5})
    m = write_json(tmp_path / "m.json", {"type": "er", "n": 10, "p": 0.5})
    cfg = write_json(tmp_path / "cfg.json", {"features": features})
    assert run_cli(["compare", "--config", cfg, "--data", data, "--model", m,
                    "--model2", m, "--samples", 5, "--seed", 0]) == 2
    assert "each feature may be given once" in capsys.readouterr().err


def test_compare_rerun_is_byte_identical(tmp_path):
    data = make_data_graph(tmp_path, {"type": "sbm", "n": 20, "k": 2,
                                      "p_in": 0.6, "p_out": 0.1})
    m1 = write_json(tmp_path / "m1.json", {"type": "er", "n": 20, "p": 0.3})
    m2 = write_json(tmp_path / "m2.json",
                    {"type": "sbm", "n": 20, "k": 2, "p_in": 0.6, "p_out": 0.1})
    bodies = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        assert run_cli(["compare", "--data", data, "--model", m1,
                        "--model2", m2, "--features",
                        "triangle_count,degree_entropy", "--samples", 30,
                        "--seed", 9, "--out", path]) == 0
        bodies.append(path.read_bytes())
    assert bodies[0] == bodies[1]


def test_compare_indeterminate_evidence_exit_code(tmp_path):
    # Observed density 1.0 sits hundreds of bandwidths from both models'
    # samples, so both KDE evidences underflow to zero.
    data = make_data_graph(tmp_path, {"type": "er", "n": 40, "p": 1.0})
    m1 = write_json(tmp_path / "m1.json", {"type": "er", "n": 40, "p": 0.2})
    m2 = write_json(tmp_path / "m2.json", {"type": "er", "n": 40, "p": 0.3})
    assert run_cli(["compare", "--data", data, "--model", m1, "--model2", m2,
                    "--features", "link_density", "--samples", 50,
                    "--seed", 2]) == 3


def test_compare_saturates_posterior_odds_beyond_float_range(tmp_path):
    # The two features together favour model_1 by more than ~709 nats, so
    # exp(log evidence ratio) overflows a float; the odds saturate to inf.
    data = tmp_path / "data.tsv"
    data.write_text(write_edge_list(generate_er(60, 0.8, np.random.default_rng(3))))
    m1 = write_json(tmp_path / "m1.json", {"type": "er", "n": 60, "p": {"uniform": [0.75, 0.85]}})
    m2 = write_json(tmp_path / "m2.json", {"type": "er", "n": 60, "p": {"uniform": [0.3, 0.42]}})
    report_path = tmp_path / "report.json"
    assert run_cli(["compare", "--data", data, "--model", m1, "--model2", m2,
                    "--features", "link_density,global_clustering",
                    "--samples", 200, "--seed", 3, "--out", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert report["posterior_odds"] == "inf"
    assert report["decision"] == "model_1"


def test_compare_keeps_finite_log_odds_where_evidences_underflow(tmp_path):
    """Model_2's evidences are about 1e-220 at p=0.8 and below the least
    float at p=0.9; the log keys stay finite in both cases."""
    m1 = write_json(tmp_path / "m1.json", {"type": "er", "n": 60, "p": {"uniform": [0.75, 0.85]}})
    m2 = write_json(tmp_path / "m2.json", {"type": "er", "n": 60, "p": {"uniform": [0.3, 0.42]}})
    reports = {}
    for p in (0.8, 0.9):
        data = tmp_path / f"data_{p}.tsv"
        data.write_text(write_edge_list(generate_er(60, p, np.random.default_rng(1))))
        out = tmp_path / f"report_{p}.json"
        assert run_cli(["compare", "--data", data, "--model", m1, "--model2", m2,
                        "--features", "link_density,global_clustering",
                        "--samples", 200, "--seed", 3, "--out", out]) == 0
        reports[p] = json.loads(out.read_text())
    low, high = reports[0.8], reports[0.9]
    assert low["posterior_odds"] == "inf"
    assert low["log_posterior_odds"] == pytest.approx(1025.3, abs=0.05)
    assert [fc["evidence_2"] for fc in high["features"]] == [0.0, 0.0]
    assert [fc["log_evidence_2"] for fc in high["features"]] == pytest.approx(
        [-837.6, -817.8], abs=0.05)
    assert high["log_posterior_odds"] == pytest.approx(1643.3, abs=0.05)
    assert high["decision"] == "model_1"
    for report in reports.values():
        assert report["log_posterior_odds"] == pytest.approx(
            sum(fc["log_bayes_factor"] for fc in report["features"]), rel=1e-12)


def test_compare_names_the_draw_with_an_undefined_feature(tmp_path, capsys):
    # Sparse ER draws often have no node of degree >= 4, so the power-law
    # fit with d_min=4 is undefined for them; the error names the first one.
    spec = {"type": "er", "n": 30, "p": {"uniform": [0.03, 0.3]}}
    first = next(i for i in range(100) if sample_graph(
        parse_model_spec(spec), np.random.default_rng(derive_seed(5, i))
    ).degrees.max() < 4)
    assert first > 0  # the failing draw is not simply the first one
    data = make_data_graph(tmp_path, {"type": "er", "n": 30, "p": 0.5})
    model = write_json(tmp_path / "sparse.json", spec)
    config = write_json(tmp_path / "config.json", {
        "features": [{"kind": "power_law_exponent", "d_min": 4}]})
    for threads in (1, 2):
        assert run_cli(["compare", "--config", config, "--data", data,
                        "--model", model, "--model2", model, "--samples", 100,
                        "--seed", 5, "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert "no value reaches d_min=4" in err
        assert f"sample {first}, seed {derive_seed(5, first)})" in err
        assert '"type": "er"' in err


def test_compare_degenerate_loss_exit_code(tmp_path):
    # block_count is identically 1 on small dense ER graphs, so model_2's
    # expected loss against the matching observation is exactly zero.
    data = make_data_graph(tmp_path, {"type": "er", "n": 20, "p": 0.5})
    m = write_json(tmp_path / "m.json", {"type": "er", "n": 20, "p": 0.5})
    assert run_cli(["compare", "--data", data, "--model", m, "--model2", m,
                    "--features", "block_count", "--samples", 30,
                    "--seed", 4]) == 3


def test_compare_plot_data(tmp_path):
    data = make_data_graph(tmp_path, {"type": "er", "n": 12, "p": 0.5})
    m1 = write_json(tmp_path / "m1.json", {"type": "er", "n": 12, "p": 0.4})
    m2 = write_json(tmp_path / "m2.json", {"type": "er", "n": 12, "p": 0.6})
    plots = tmp_path / "plots"
    assert run_cli(["compare", "--data", data, "--model", m1, "--model2", m2,
                    "--features", "link_density,triangle_count",
                    "--samples", 20, "--seed", 1,
                    "--out", tmp_path / "r.json", "--plot-data", plots]) == 0
    names = {f.name for f in plots.iterdir()}
    assert "link_density_m1_density.csv" in names
    assert "triangle_count_m2_hist.csv" in names
    body = (plots / "link_density_m1_density.csv").read_text()
    assert body.startswith("x,density\n")


def test_compare_plot_data_keeps_two_specs_of_one_file_name_apart(tmp_path):
    """Both spec files are named m.json, so the models get the ids m_1 and
    m_2, and each feature gets four files: two per model."""
    data = make_data_graph(tmp_path, {"type": "er", "n": 12, "p": 0.5})
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    m1 = write_json(tmp_path / "a" / "m.json", {"type": "er", "n": 12, "p": 0.1})
    m2 = write_json(tmp_path / "b" / "m.json", {"type": "er", "n": 12, "p": 0.9})
    plots = tmp_path / "plots"
    assert run_cli(["compare", "--data", data, "--model", m1, "--model2", m2,
                    "--features", "link_density,triangle_count", "--samples", 20,
                    "--seed", 1, "--out", tmp_path / "r.json", "--plot-data", plots]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert (report["model_1"], report["model_2"]) == ("m_1", "m_2")
    assert sorted(f.name for f in plots.iterdir()) == sorted(
        f"{feature}_{model}_{kind}.csv" for feature in ("link_density", "triangle_count")
        for model in ("m_1", "m_2") for kind in ("density", "hist"))
    sparse = (plots / "link_density_m_1_hist.csv").read_text()
    assert sparse != (plots / "link_density_m_2_hist.csv").read_text()


def test_compare_plot_data_draws_each_ensemble_once(tmp_path, monkeypatch):
    import netselect.inference as inference
    data = make_data_graph(tmp_path, {"type": "er", "n": 12, "p": 0.5})
    m1 = write_json(tmp_path / "m1.json", {"type": "er", "n": 12, "p": 0.4})
    m2 = write_json(tmp_path / "m2.json", {"type": "er", "n": 12, "p": 0.6})
    draws = []

    def counted(spec, rng):
        draws.append(spec)
        return sample_graph(spec, rng)

    monkeypatch.setattr(inference, "sample_graph", counted)
    assert run_cli(["compare", "--data", data, "--model", m1, "--model2", m2,
                    "--features", "link_density,triangle_count",
                    "--samples", 20, "--seed", 1, "--out", tmp_path / "r.json",
                    "--plot-data", tmp_path / "plots"]) == 0
    assert len(draws) == 2 * 20


def test_repeated_compares_in_one_process_keep_memory_flat(tmp_path):
    """Fifty more compares after three warm ones leave under 256 KB more
    traced memory behind: module-level memos are bounded, and no graph,
    feature matrix or report outlives its call. tracemalloc sees numpy
    buffers, and starts before the warm-up so that a memo replaced later
    counts both its old and its new buffer."""
    data = make_data_graph(tmp_path, {"type": "sbm", "n": 200, "k": 4,
                                      "p_in": 0.1, "p_out": 0.01})
    m1 = write_json(tmp_path / "m1.json", {"type": "sbm", "n": 200, "k": 4,
                                           "p_in": 0.1, "p_out": 0.01})
    m2 = write_json(tmp_path / "m2.json", {"type": "er", "n": 200,
                                           "p": {"uniform": [0.02, 0.05]}})

    def compare(seed):
        assert run_cli(["compare", "--data", data, "--model", m1, "--model2", m2,
                        "--features", "diameter,triangle_count,global_clustering",
                        "--samples", 20, "--seed", seed, "--out", tmp_path / "r.json"]) == 0

    tracemalloc.start()
    try:
        for seed in range(3):
            compare(seed)
        gc.collect()
        warm = tracemalloc.get_traced_memory()[0]
        for seed in range(3, 53):
            compare(seed)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - warm
    finally:
        tracemalloc.stop()
    assert grown < 256 * 1024


# --------------------------------------------------------------------------
# elicit
# --------------------------------------------------------------------------

def test_elicit_full_and_empty_ranges(tmp_path, capsys):
    m = write_json(tmp_path / "m.json", {"type": "er", "n": 12, "p": 0.4})
    assert run_cli(["elicit", "--model", m,
                    "--range", "link_density:0:1",
                    "--range", "link_density:2:3",
                    "--samples", 40, "--seed", 4]) == 0
    out = json.loads(capsys.readouterr().out)
    probs = [r["per_model"]["m"]["probability"] for r in out["ranges"]]
    assert probs == [1.0, 0.0]


def test_elicit_alpha_window_shape(tmp_path, capsys):
    m = write_json(tmp_path / "ba.json",
                   {"type": "powerlaw", "n": 60, "alpha": {"point": 3.0},
                    "d_min": 1})
    assert run_cli(["elicit", "--model", m,
                    "--range", "power_law_exponent:2.9:3.1",
                    "--samples", 50, "--seed", 6]) == 0
    row = json.loads(capsys.readouterr().out)["ranges"][0]
    assert row["feature"] == "power_law_exponent"
    assert 0.0 <= row["per_model"]["ba"]["probability"] <= 1.0
    assert row["per_model"]["ba"]["std_error"] >= 0.0


def test_elicit_pairwise_ratios(tmp_path, capsys):
    m1 = write_json(tmp_path / "m1.json", {"type": "er", "n": 12, "p": 0.2})
    m2 = write_json(tmp_path / "m2.json", {"type": "er", "n": 12, "p": 0.25})
    assert run_cli(["elicit", "--model", m1, "--model2", m2,
                    "--range", "link_density:0:1",
                    "--samples", 30, "--seed", 7]) == 0
    row = json.loads(capsys.readouterr().out)["ranges"][0]
    assert row["ratios"]["m1/m2"] == 1.0


def test_elicit_keeps_two_specs_of_one_file_name_apart(tmp_path, capsys):
    """ER(12, 0.1) and ER(12, 0.9), both in files named m.json: ids m_1 and
    m_2, each with its own probability of a density up to 0.5."""
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    m1 = write_json(tmp_path / "a" / "m.json", {"type": "er", "n": 12, "p": 0.1})
    m2 = write_json(tmp_path / "b" / "m.json", {"type": "er", "n": 12, "p": 0.9})
    args = ["elicit", "--model", m1, "--model2", m2, "--range", "link_density:0:0.5",
            "--samples", 10, "--seed", 1]
    assert run_cli(args) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["models"] == ["m_1", "m_2"]
    row = out["ranges"][0]
    assert {k: v["probability"] for k, v in row["per_model"].items()} == {"m_1": 1.0, "m_2": 0.0}
    assert row["ratios"] == {"m_1/m_2": "inf"}
    assert run_cli([*args, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "link_density,0.0,0.5,m_1,1.0,0.0,0.7224672001371107,1.0",
        "link_density,0.0,0.5,m_2,0.0,0.0,0.0,0.27753279986288926"]


def test_elicit_zero_hits_carry_a_positive_upper_bound(tmp_path, capsys):
    """No draw of ER(200, U(0.02, 0.05)) or SBM(200, 4, 0.1, 0.01) has a link
    density in [0.2, 0.3]: each reads probability 0.0 with std_error 0.0, and
    the Wilson bounds [0, z^2 / (100 + z^2)] say how little 100 draws rule out,
    in JSON and CSV."""
    er = write_json(tmp_path / "er.json", {"type": "er", "n": 200, "p": {"uniform": [0.02, 0.05]}})
    sbm = write_json(tmp_path / "sbm.json",
                     {"type": "sbm", "n": 200, "k": 4, "p_in": 0.1, "p_out": 0.01})
    args = ["elicit", "--model", er, "--model2", sbm, "--range", "link_density:0.2:0.3",
            "--samples", 100, "--seed", 0]
    assert run_cli(args) == 0
    per_model = json.loads(capsys.readouterr().out)["ranges"][0]["per_model"]
    hi = 1.959963984540054 ** 2 / (100 + 1.959963984540054 ** 2)
    for entry in per_model.values():
        assert entry["probability"] == entry["std_error"] == entry["probability_lo"] == 0.0
        assert entry["probability_hi"] == pytest.approx(hi, rel=1e-12)
    assert run_cli([*args, "--format", "csv"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "feature,lo,hi,model,probability,std_error,probability_lo,probability_hi"
    assert [row.split(",")[4:7] for row in rows] == [["0.0", "0.0", "0.0"]] * 2


@pytest.mark.parametrize("labels, ids", [
    (["a/m.json", "b/m.json"], ["m_1", "m_2"]),
    (["x.json", "a/m.json", "b/m.json"], ["x", "m_2", "m_3"]),
    (["m.json", "m.json", "m_2.json"], ["m_1", "m_2_2", "m_2_3"]),
    (["m1.json", {"type": "er"}], ["m1", "model_2"]),
])
def test_model_ids_differ_and_distinct_labels_stay(labels, ids):
    from netselect.cli import _model_ids
    assert _model_ids(labels) == ids


def test_elicit_rejects_inverted_range(tmp_path):
    m = write_json(tmp_path / "m.json", {"type": "er", "n": 12, "p": 0.4})
    assert run_cli(["elicit", "--model", m,
                    "--range", "link_density:0.5:0.1",
                    "--samples", 10, "--seed", 0]) == 2


@pytest.mark.parametrize("bounds", ["diameter:nan:1", "diameter:-inf:inf", "link_density:0:inf"])
def test_elicit_rejects_non_finite_range_bounds(tmp_path, capsys, bounds):
    m = write_json(tmp_path / "m.json", {"type": "er", "n": 12, "p": 0.4})
    assert run_cli(["elicit", "--model", m, "--range", bounds, "--samples", 5]) == 2
    assert "range needs finite lo <= hi" in capsys.readouterr().err


def test_non_finite_range_and_window_bounds_in_a_config_are_input_errors(tmp_path, capsys):
    m = write_json(tmp_path / "m.json", {"type": "er", "n": 12, "p": 0.4})
    cfg = write_json(tmp_path / "cfg.json", {"ranges": [{"feature": "diameter",
                                                         "lo": math.nan, "hi": 1}]})
    assert run_cli(["elicit", "--config", cfg, "--model", m, "--samples", 5]) == 2
    assert "range needs finite lo <= hi" in capsys.readouterr().err
    study = json.loads(Path(study_config(tmp_path, n=30, samples=5)).read_text())
    study["windows"][0]["lo"] = math.nan
    assert run_cli(["simulate", "--config", write_json(tmp_path / "s.json", study)]) == 2
    assert "window needs finite lo <= hi" in capsys.readouterr().err


def test_simulate_refuses_two_windows_of_one_label(tmp_path, capsys):
    study = json.loads(Path(study_config(tmp_path, n=30, samples=5)).read_text())
    study["windows"] = [{"param": "alpha", "lo": 0.1, "hi": 0.15},
                        {"param": "alpha", "lo": 0.1000001, "hi": 0.15}]
    out = tmp_path / "table.csv"
    assert run_cli(["simulate", "--config", write_json(tmp_path / "s.json", study),
                    "--out", out]) == 2
    assert "window label may be given once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("param", ["beta", "p"])
def test_simulate_refuses_a_window_over_a_parameter_no_family_grids(tmp_path, capsys, param):
    study = json.loads(Path(study_config(tmp_path, n=30, samples=5)).read_text())
    study["windows"].append({"param": param, "lo": 0, "hi": 10})
    out = tmp_path / "table.csv"
    assert run_cli(["simulate", "--config", write_json(tmp_path / "s.json", study),
                    "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"window P({param} in [0..10]) is over '{param}'" in err and "'alpha', 'k'" in err
    assert not out.exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_a_negative_master_seed_is_an_input_error(tmp_path, capsys, threads):
    data = make_data_graph(tmp_path, {"type": "er", "n": 12, "p": 0.4})
    m = write_json(tmp_path / "m.json", {"type": "er", "n": 12, "p": 0.4})
    capsys.readouterr()
    assert run_cli(["compare", "--data", data, "--model", m, "--model2", m,
                    "--features", "link_density", "--samples", 4, "--seed", -5,
                    "--threads", threads]) == 2
    assert "master seed must be a non-negative integer, got -5" in capsys.readouterr().err
    study = json.loads(Path(study_config(tmp_path, n=30, samples=5)).read_text())
    study["seed"] = -1
    assert run_cli(["simulate", "--config", write_json(tmp_path / "s.json", study),
                    "--threads", threads]) == 2
    assert "master seed must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config", [(["--threads", "0"], None), (["--threads", "-5"], None),
                                          ([], {"threads": 0})])
def test_a_thread_count_below_one_is_an_input_error(tmp_path, capsys, argv, config):
    m = write_json(tmp_path / "m.json", {"type": "er", "n": 12, "p": 0.4})
    if config is not None:
        argv = ["--config", write_json(tmp_path / "cfg.json", config)]
    out = tmp_path / "out"
    assert run_cli(["generate", "--model", m, "--samples", 2, "--out", out, *argv]) == 2
    assert "threads must be >= 1" in capsys.readouterr().err and not out.exists()


def test_elicit_rerun_is_byte_identical(tmp_path):
    m = write_json(tmp_path / "m.json", {"type": "er", "n": 15, "p": 0.3})
    outs = []
    for name in ("e1.json", "e2.json"):
        path = tmp_path / name
        assert run_cli(["elicit", "--model", m,
                        "--range", "degree_entropy:0.5:2.0",
                        "--samples", 30, "--seed", 8, "--out", path]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def study_config(tmp_path, n=60, samples=25, seed=17):
    return write_json(tmp_path / "study.json", {
        "n_samples": samples,
        "seed": seed,
        "candidates": [
            {"id": "alpha",
             "spec": {"type": "powerlaw", "n": n,
                      "alpha": {"grid": {"values": [2.9, 3.0, 3.1, 3.3, 3.5]}},
                      "d_min": 1}},
            {"id": "k",
             "spec": {"type": "sbm", "n": n,
                      "k": {"grid": {"values": [8, 9, 10, 12]}},
                      "p_in": 0.3, "p_out": 0.03}},
        ],
        "windows": [{"param": "alpha", "lo": 2.9, "hi": 3.1},
                    {"param": "k", "lo": 9, "hi": 9}],
        "rows": [
            {"data": {"id": "alpha",
                      "spec": {"type": "powerlaw", "n": n,
                               "alpha": {"point": 3.2}, "d_min": 1}},
             "features": ["power_law_exponent"],
             "losses": ["quadratic", "absolute"]},
        ],
    })


def test_simulate_emits_table_csv(tmp_path, capsys):
    cfg = study_config(tmp_path)
    assert run_cli(["simulate", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ("real_param,loss,features,loss_ratio,"
                        "P(alpha in [2.9..3.1]),P(k in [9..9])")
    assert len(lines) == 3  # quadratic + absolute rows
    assert lines[1].startswith("alpha,quadratic,power_law_exponent,")


def test_simulate_rerun_identical(tmp_path):
    cfg = study_config(tmp_path)
    outs = []
    for name in ("s1.csv", "s2.csv"):
        path = tmp_path / name
        assert run_cli(["simulate", "--config", cfg, "--out", path]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_requires_config(tmp_path):
    assert run_cli(["simulate"]) == 2


def test_simulate_reads_out_and_format_from_its_config(tmp_path):
    study = json.loads(Path(study_config(tmp_path, n=30, samples=5)).read_text())
    out = tmp_path / "table.json"
    cfg = write_json(tmp_path / "cfg.json", dict(study, out=str(out), format="json", seed=None))
    assert run_cli(["simulate", "--config", cfg]) == 0
    table = json.loads(out.read_text())
    assert table["n_samples"] == 5 and table["seed"] == 0  # a null key counts as absent
    cfg = write_json(tmp_path / "cfg.json", dict(study, out=str(tmp_path / "x"), format="xml"))
    assert run_cli(["simulate", "--config", cfg]) == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("n_samples", [True, 3.7, "5"])
def test_simulate_rejects_a_non_integer_n_samples_in_its_config(tmp_path, capsys, n_samples):
    study = json.loads(Path(study_config(tmp_path, n=30, samples=5)).read_text())
    cfg = write_json(tmp_path / "cfg.json", dict(study, n_samples=n_samples))
    assert run_cli(["simulate", "--config", cfg]) == 2
    assert "config 'n_samples' has the wrong type" in capsys.readouterr().err


def test_simulate_json_is_strict_when_a_loss_ratio_is_infinite(tmp_path, capsys):
    # The generating SBM draws exactly 2 blocks every time, so its expected
    # block_count loss is 0 and the loss ratio is infinite.
    cfg = write_json(tmp_path / "study.json", {
        "n_samples": 10, "seed": 1,
        "candidates": [
            {"id": "alpha", "spec": {"type": "powerlaw", "n": 60,
                                     "alpha": {"grid": {"values": [2.5, 3.0]}}}},
            {"id": "k", "spec": {"type": "sbm", "n": 60, "p_in": 0.6, "p_out": 0.01,
                                 "k": {"grid": {"values": [2]}}}}],
        "rows": [{"data": {"id": "k", "spec": {"type": "sbm", "n": 60, "k": 2,
                                               "p_in": 0.6, "p_out": 0.01}},
                  "features": ["block_count"], "losses": ["zero_one", "quadratic"]}],
    })
    assert run_cli(["simulate", "--config", cfg, "--format", "json"]) == 0

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    rows = json.loads(capsys.readouterr().out, parse_constant=reject)["rows"]
    assert [row["loss_ratio"] for row in rows] == ["inf", "inf"]


def test_simulate_with_both_losses_zero_is_indeterminate(tmp_path, capsys):
    # Every draw of both families, and the data, has one block (p_in = p_out),
    # so both expected block_count losses are zero and neither family is
    # favoured: the study row exits 3, as compare does, instead of reading inf.
    sbm = {"type": "sbm", "n": 20, "p_in": 0.9, "p_out": 0.9}
    cfg = write_json(tmp_path / "study.json", {
        "n_samples": 20, "seed": 1,
        "candidates": [
            {"id": "alpha", "spec": {"type": "powerlaw", "n": 20,
                                     "alpha": {"grid": {"values": [3.5]}}}},
            {"id": "k", "spec": dict(sbm, k={"grid": {"values": [2]}})}],
        "rows": [{"data": {"id": "k", "spec": dict(sbm, k=2)}, "features": ["block_count"]}],
    })
    assert run_cli(["simulate", "--config", cfg]) == 3
    assert ("both expected losses are zero for block_count in study row 0"
            in capsys.readouterr().err)


def test_every_command_is_byte_equal_at_one_and_two_threads(tmp_path):
    data = make_data_graph(tmp_path, {"type": "sbm", "n": 30, "k": 3,
                                      "p_in": 0.4, "p_out": 0.05})
    m1 = write_json(tmp_path / "m1.json", {"type": "sbm", "n": 30, "k": 3,
                                           "p_in": 0.4, "p_out": 0.05})
    m2 = write_json(tmp_path / "m2.json", {"type": "er", "n": 30,
                                           "p": {"uniform": [0.1, 0.3]}})
    study = study_config(tmp_path, n=40, samples=9)
    outputs = {}
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        common = ["--samples", 13, "--seed", 3, "--threads", threads]
        assert run_cli(["generate", "--model", m2, *common, "--out", out / "gen"]) == 0
        assert run_cli(["compare", "--data", data, "--model", m1, "--model2", m2,
                        "--features", "triangle_count,degree_entropy", *common,
                        "--out", out / "compare.json", "--plot-data", out / "plots"]) == 0
        assert run_cli(["elicit", "--model", m1, "--model2", m2,
                        "--range", "link_density:0.1:0.2", *common,
                        "--out", out / "elicit.json"]) == 0
        assert run_cli(["simulate", "--config", study, "--seed", 3,
                        "--threads", threads, "--out", out / "simulate.csv"]) == 0
        outputs[threads] = {str(f.relative_to(out)): f.read_bytes()
                            for f in sorted(out.rglob("*")) if f.is_file()}
    assert len(outputs[1]) == 13 + 1 + 1 + 8 + 1 + 1
    assert outputs[1] == outputs[2]


# --------------------------------------------------------------------------
# graph loading and label remapping
# --------------------------------------------------------------------------

def test_load_remaps_string_labels(tmp_path):
    data = tmp_path / "named.tsv"
    data.write_text("alice\tbob\nbob\tcarol\n")
    g = load_graph_file(str(data))
    assert g.node_count == 3 and g.edge_count == 2
    mapping = json.loads((tmp_path / "named.tsv.mapping.json").read_text())
    assert mapping == {"alice": 0, "bob": 1, "carol": 2}


def test_load_remaps_sparse_integer_labels_numerically(tmp_path):
    data = tmp_path / "sparse.tsv"
    data.write_text("10\t2\n2\t0\n")
    g = load_graph_file(str(data))
    mapping = json.loads((tmp_path / "sparse.tsv.mapping.json").read_text())
    assert mapping == {"0": 0, "2": 1, "10": 2}
    assert g.has_edge(1, 2) and g.has_edge(0, 1)


def test_load_canonical_writes_no_sidecar(tmp_path):
    data = tmp_path / "plain.tsv"
    data.write_text("# n=3\n0\t1\n")
    load_graph_file(str(data))
    assert not os.path.exists(str(data) + ".mapping.json")


def test_load_rejects_self_loop_labels(tmp_path):
    data = tmp_path / "loop.tsv"
    data.write_text("a\ta\n")
    assert run_cli(["features", "--data", data, "--features", "link_density"]) == 2


def test_load_remaps_labels_under_a_comment_that_is_not_a_header(tmp_path):
    # "n=" inside another comment does not declare a node count
    data = tmp_path / "labelled.tsv"
    data.write_text("# exported from run=3\na\tb\nb\tc\n")
    g = load_graph_file(str(data))
    assert g.node_count == 3 and g.edge_count == 2
    mapping = json.loads((tmp_path / "labelled.tsv.mapping.json").read_text())
    assert mapping == {"a": 0, "b": 1, "c": 2}


def test_load_never_remaps_files_with_header(tmp_path):
    # An explicit node count marks the file canonical; its errors surface
    # instead of triggering a silent relabeling.
    data = tmp_path / "bad.tsv"
    data.write_text("# n=3\n0\t5\n")
    assert run_cli(["features", "--data", data, "--features", "link_density"]) == 2
    assert not os.path.exists(str(data) + ".mapping.json")


# --------------------------------------------------------------------------
# config file merging
# --------------------------------------------------------------------------

def test_config_file_supplies_flags(tmp_path, capsys):
    data = make_data_graph(tmp_path, {"type": "er", "n": 10, "p": 0.5})
    cfg = write_json(tmp_path / "cfg.json", {
        "data": str(data),
        "features": ["link_density"],
        "samples": 15,
        "seed": 3,
    })
    assert run_cli(["features", "--config", cfg]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[0]["kind"] == "link_density"


def test_flags_override_config(tmp_path, capsys):
    data = make_data_graph(tmp_path, {"type": "er", "n": 10, "p": 0.5})
    cfg = write_json(tmp_path / "cfg.json", {
        "data": str(data),
        "features": ["link_density"],
    })
    assert run_cli(["features", "--config", cfg,
                    "--features", "triangle_count"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[0]["kind"] == "triangle_count"


def test_grid_and_range_are_flags_only(tmp_path, capsys):
    m = write_json(tmp_path / "m.json", {"type": "er", "n": 12, "p": 0.4})
    cfg = write_json(tmp_path / "cfg.json", {"grid": ["p:0.9"], "range": ["link_density:2:3"],
                                             "ranges": ["link_density:0:0.6"]})
    assert run_cli(["elicit", "--config", cfg, "--model", m, "--samples", 10]) == 0
    assert json.loads(capsys.readouterr().out)["ranges"][0]["per_model"]["m"][
        "probability"] == 1.0


@pytest.mark.parametrize("config, message", [
    ([{"features": ["link_density"]}], "must hold a JSON object"),
    ({"model_priors": 0.5}, "model_priors"),
    ({"features": 5}, "'features'"),
    ({"model_priors": [0, 0]}, "model_priors"),
    ({"format": "xml"}, "format must be json or csv"),
    ({"loss": {"kind": "zero_one", "tolerance": math.nan}}, "tolerance"),
    ({"loss": {"kind": "zero_one", "tolerance": []}}, "cannot parse loss"),
    ({"loss": {"kind": "zero_one", "tolerance": 10 ** 400}}, "cannot parse loss"),
    ({"model_priors": [10 ** 400, 1]}, "model_priors"),  # beyond float range
    ({"samples": 5, "sed": 9}, "did you mean 'seed'?"),
    ({"windws": []}, "did you mean 'windows'?"),
    ({"loss": {"kind": "zero_one", "tolerence": 0.5}}, "did you mean 'tolerance'?"),
    ({"loss": {"kind": "zero_one", "tolerance": True}}, "cannot parse loss"),
    ({"loss": {"kind": "zero_one", "tolerance": "0.5"}}, "cannot parse loss"),
    ({"model_priors": [0.5, True]}, "model_priors"),
])
def test_malformed_config_is_an_input_error(tmp_path, capsys, config, message):
    data = make_data_graph(tmp_path, {"type": "er", "n": 10, "p": 0.5})
    m = write_json(tmp_path / "m.json", {"type": "er", "n": 10, "p": 0.5})
    cfg = write_json(tmp_path / "cfg.json", config)
    assert run_cli(["compare", "--config", cfg, "--data", data, "--model", m,
                    "--model2", m, "--features", "link_density", "--samples", 5,
                    "--seed", 0]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command, obj, fragments", [
    ("generate", {"type": "powerlaw", "n": 6, "alpha": 3, "d_mn": 3},
     ["powerlaw spec has no key 'd_mn'", "did you mean 'd_min'?"]),
    ("simulate", {"windws": []}, ["has no key 'windws'", "did you mean 'windows'?"]),
    ("features", {"samples": 5, "sed": 9}, ["config has no key 'sed'", "did you mean 'seed'?"]),
    ("generate", {"type": "er", "n": 6, "p": {"point": "0.5"}}, ["'p' 'point'", "'0.5'"]),
    ("generate", {"type": "er", "n": 6, "p": {"point": True}}, ["'p' 'point'", "True"]),
    ("generate", dict(SBM, p_in=True), ["sbm spec 'p_in'", "True"]),
    ("compare", {"loss": {"kind": "zero_one", "tolerence": 0.5}},
     ["loss has no key 'tolerence'", "did you mean 'tolerance'?"]),
    ("generate", {"type": "er", "n": 6}, ["er spec needs 'p'"]),
], ids=["spec_d_mn", "study_windws", "config_sed", "point_string", "point_bool", "p_in_bool",
        "loss_tolerence", "er_without_p"])
def test_a_rejected_json_key_is_named_and_a_misspelling_gets_a_hint(tmp_path, capsys, command,
                                                                    obj, fragments):
    data = tmp_path / "g.tsv"
    data.write_text("# n=3\n0\t1\n")
    m = write_json(tmp_path / "m.json", {"type": "er", "n": 3, "p": 0.5})
    if command == "generate":
        argv = ["generate", "--model", write_json(tmp_path / "spec.json", obj),
                "--out", tmp_path / "x"]
    elif command == "simulate":
        study = json.loads(Path(study_config(tmp_path, n=30, samples=5)).read_text())
        argv = ["simulate", "--config", write_json(tmp_path / "s.json", {**study, **obj})]
    else:
        argv = [command, "--config", write_json(tmp_path / "cfg.json", obj), "--data", data,
                "--features", "link_density"]
        if command == "compare":
            argv += ["--model", m, "--model2", m, "--samples", 5]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(f in err for f in fragments), err


def test_readme_model_spec_key_table_matches_the_reader():
    """The README's per-family table lists each family's keys in the reader's
    table order, split into required keys and optional ones."""
    from netselect.generators import _SPECS

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Model spec JSON", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*?) \| (.*?) \|$", section, re.MULTILINE)
    documented = {family: (re.findall(r"`(\w+)`", required), re.findall(r"`(\w+)`", optional))
                  for family, required, optional in rows}
    assert documented == {
        family: ([key for key, (_, default) in fields.items() if default is ...],
                 [key for key, (_, default) in fields.items() if default is not ...])
        for family, (_, fields) in _SPECS.items()}


@pytest.mark.parametrize("argv", [
    ["generate", "--features", "link_density"],
    ["features", "--threads", "4"],
    ["compare", "--range", "link_density:0:1"],
    ["elicit", "--loss", "absolute"],
    ["simulate", "--model", "m.json"],
], ids=lambda argv: argv[0])
def test_a_flag_the_command_does_not_read_is_an_input_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_readme_flag_table_matches_the_parser():
    """The README's per-command table lists exactly each command's flags, and
    among its config keys every option its flags set (bar the flag-only ones)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*?) \| (.*?) \|$", section, re.MULTILINE)
    documented = {cmd: (set(re.findall(r"`(--[\w-]+)`", flags)),
                        set(re.findall(r"`(\w+)`", keys))) for cmd, flags, keys in rows}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert documented.keys() == sub.choices.keys()
    for cmd, parser in sub.choices.items():
        actions = [a for a in parser._actions if a.option_strings != ["-h", "--help"]]
        flags, keys = documented[cmd]
        assert flags == {a.option_strings[0] for a in actions}, cmd
        assert keys >= {a.dest for a in actions} - {"config", "grid", "range"}, cmd


def test_the_kept_parser_carries_no_values_between_calls():
    assert build_parser() is build_parser()
    first = build_parser().parse_args(["elicit", "--grid", "alpha:2.9,3.5",
                                       "--range", "link_density:0:1", "--seed", "4"])
    second = build_parser().parse_args(["elicit", "--range", "diameter:1:2"])
    assert (first.grid, first.range, first.seed) == (["alpha:2.9,3.5"], ["link_density:0:1"], 4)
    assert (second.grid, second.range, second.seed) == (None, ["diameter:1:2"], None)
    bare = vars(build_parser().parse_args(["compare"]))
    assert bare.pop("command") == "compare" and set(bare.values()) == {None}


@pytest.mark.parametrize("flag", ["--config", "--model"])
def test_a_json_file_nested_too_deeply_is_an_input_error(tmp_path, capsys, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)  # beyond what json.dumps can build
    argv = {"--config": ["features", "--config", deep, "--data", "g.tsv"],
            "--model": ["generate", "--model", deep, "--out", tmp_path / "x"]}[flag]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(deep) in err


def test_a_node_count_beyond_int64_pair_keys_is_an_input_error(tmp_path, capsys):
    data = tmp_path / "huge.tsv"
    data.write_text("# n=99999999999999999999999\n")
    assert run_cli(["features", "--data", data, "--features", "link_density"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "99999999999999999999999" in err


@pytest.mark.parametrize("where", ["grid_flag", "point_spec", "study_grid"])
def test_a_fractional_block_count_is_an_input_error(tmp_path, capsys, where):
    """``fix_grid_point`` pins k as an integer, so a point or grid value of k
    that is not one would be drawn as another value than the one reported."""
    if where == "study_grid":
        study = json.loads(Path(study_config(tmp_path, n=30, samples=5)).read_text())
        study["candidates"][1]["spec"]["k"] = {"grid": {"values": [2.5, 3.5]}}
        argv = ["simulate", "--config", write_json(tmp_path / "s.json", study)]
    else:
        k = {"point": 2.5} if where == "point_spec" else 3
        argv = ["generate", "--model", write_json(tmp_path / "m.json", dict(SBM, k=k)),
                "--out", tmp_path / "x"]
        argv += ["--grid", "k:2.5"] if where == "grid_flag" else []
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "block count" in err and "2.5" in err


def test_missing_file_is_config_error():
    assert run_cli(["features", "--data", "/nonexistent/file.tsv",
                    "--features", "link_density"]) == 2


def test_grid_flag_replaces_prior(tmp_path, capsys):
    m = write_json(tmp_path / "ba.json",
                   {"type": "powerlaw", "n": 30, "alpha": {"point": 3.0},
                    "d_min": 1})
    assert run_cli(["elicit", "--model", m, "--grid", "alpha:2.9,3.5",
                    "--range", "power_law_exponent:-10:10",
                    "--samples", 20, "--seed", 1]) == 0
    assert json.loads(capsys.readouterr().out)["ranges"][0]["per_model"][
        "ba"]["probability"] == 1.0


# --------------------------------------------------------------------------
# inputs too large for memory
# --------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"
#: Address-space limit of the child interpreter: 1.5 GB, as `ulimit -v 1500000`.
CHILD_LIMIT = 1_500_000 * 1024


def run_limited_cli(args):
    """``netselect args`` in a fresh interpreter under CHILD_LIMIT bytes of
    address space; returns (exit code, stdout, stderr)."""
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_LIMIT}, {CHILD_LIMIT}))\n"
            "from netselect.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("feature, value", [("diameter", 1), ("triangle_count", 0)])
def test_bitset_kernels_on_two_edges_among_a_million_nodes(tmp_path, feature, value):
    """Only the four nodes with an edge get a bitset row: one of n bits per
    node would take 116 GiB."""
    data = tmp_path / "g.tsv"
    data.write_text("# n=1000000\n0\t1\n999998\t999999\n")
    code, out, err = run_limited_cli(["features", "--data", data, "--features", feature])
    assert (code, "Traceback" in err) == (0, False), err
    assert json.loads(out)["rows"] == [{"kind": feature, "value": value, "discrete": True}]


@pytest.mark.parametrize("threads", [1, 2])
def test_a_model_too_large_for_memory_is_an_input_error(tmp_path, threads):
    """ER(200000, 0.5) lists its 2e10 node pairs: that fails to allocate, in
    a pool worker too, and the command exits 2 with a message, not a traceback."""
    data = make_data_graph(tmp_path, {"type": "er", "n": 12, "p": 0.5})
    m = write_json(tmp_path / "huge.json", {"type": "er", "n": 200000, "p": 0.5})
    code, _, err = run_limited_cli(["compare", "--data", data, "--model", m, "--model2", m,
                                    "--features", "link_density", "--samples", 2,
                                    "--threads", threads])
    assert (code, "Traceback" in err) == (2, False), err
    assert err.startswith("error: out of memory in compare: ")
