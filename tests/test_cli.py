import json
import math
import os

import numpy as np
import pytest

from netselect import derive_seed, generate_er, parse_model_spec, sample_graph, write_edge_list
from netselect.cli import load_graph_file, main


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
    from netselect.cli import DEFAULT_SAMPLES
    from netselect.study import DEFAULT_STUDY_SAMPLES
    assert DEFAULT_SAMPLES == 100 and DEFAULT_STUDY_SAMPLES == 100


def test_generate_rejects_bad_spec(tmp_path):
    bad = write_json(tmp_path / "bad.json", {"type": "er", "n": 5})
    assert run_cli(["generate", "--model", bad, "--samples", 1,
                    "--seed", 0, "--out", tmp_path / "x"]) == 2


LOGLINEAR = {"type": "loglinear", "n": 8, "lambda": 1.0, "burn_in": 40, "thin": 4,
             "terms": [{"weight": -1.0, "f": "edge_count"}]}


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
], ids=["powerlaw_infinite_alpha", "sbm_infinite_k", "powerlaw_infinite_grid_value",
        "infinite_grid_weight", "thin_string", "thin_float",
        "thin_bool", "negative_burn_in", "nan_lambda", "nan_weight"])
def test_generate_rejects_bad_spec_numbers(tmp_path, capsys, spec):
    """Numbers of the right JSON type but unusable value fail when the spec is
    parsed (exit 2), not with a traceback or a silently meaningless draw."""
    path = write_json(tmp_path / "spec.json", spec)
    assert run_cli(["generate", "--model", path, "--samples", 1,
                    "--seed", 0, "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
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
    assert lines[0] == \
        "kind,observed,evidence_1,evidence_2,bayes_factor,el_1,el_2,loss_ratio"
    assert len(lines) == 2


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


def test_elicit_rejects_inverted_range(tmp_path):
    m = write_json(tmp_path / "m.json", {"type": "er", "n": 12, "p": 0.4})
    assert run_cli(["elicit", "--model", m,
                    "--range", "link_density:0.5:0.1",
                    "--samples", 10, "--seed", 0]) == 2


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


@pytest.mark.parametrize("config, message", [
    ([{"features": ["link_density"]}], "must hold a JSON object"),
    ({"model_priors": 0.5}, "model_priors"),
    ({"features": 5}, "'features'"),
])
def test_malformed_config_is_an_input_error(tmp_path, capsys, config, message):
    data = make_data_graph(tmp_path, {"type": "er", "n": 10, "p": 0.5})
    m = write_json(tmp_path / "m.json", {"type": "er", "n": 10, "p": 0.5})
    cfg = write_json(tmp_path / "cfg.json", config)
    assert run_cli(["compare", "--config", cfg, "--data", data, "--model", m,
                    "--model2", m, "--samples", 5, "--seed", 0]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


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
