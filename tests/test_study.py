import math
from dataclasses import replace

import pytest

from netselect import (
    Candidate,
    ErdosRenyi,
    FeatureKind,
    GridPrior,
    InvalidSpec,
    LossKind,
    PointPrior,
    PowerLaw,
    Sbm,
    StudyConfig,
    StudyRow,
    Window,
    parse_study_config,
    run_study,
    run_study_row,
    study_results_csv,
)
from netselect.inference import LOG_VANISHING
from conftest import study_config_to_json


def small_config(features=("power_law_exponent",), losses=("quadratic",), n=50):
    return StudyConfig(
        candidates=(
            Candidate("alpha", PowerLaw(n, GridPrior((2.9, 3.1, 3.5)), d_min=1)),
            Candidate("k", Sbm(n, GridPrior((2.0, 4.0)), p_in=0.4, p_out=0.05)),
        ),
        windows=(Window("alpha", 2.9, 3.1), Window("k", 4, 4)),
        rows=(
            StudyRow("alpha", PowerLaw(n, PointPrior(3.2), d_min=1),
                     tuple(FeatureKind(f) for f in features),
                     tuple(LossKind(l) for l in losses)),
        ),
        n_samples=20,
        master_seed=55,
    )


def test_study_config_round_trip():
    config = small_config(losses=("quadratic", "absolute"))
    assert parse_study_config(study_config_to_json(config)) == config


def test_study_requires_two_candidates():
    config = small_config()
    with pytest.raises(InvalidSpec):
        StudyConfig(config.candidates[:1], config.windows, config.rows)


def test_study_row_data_id_must_match_a_candidate():
    config = small_config()
    bad_row = StudyRow("other", config.rows[0].data_spec,
                       config.rows[0].features, config.rows[0].losses)
    with pytest.raises(InvalidSpec):
        StudyConfig(config.candidates, config.windows, (bad_row,))


def test_window_rejects_inverted_bounds():
    with pytest.raises(InvalidSpec):
        Window("alpha", 3.1, 2.9)


@pytest.mark.parametrize("lo, hi", [(math.nan, 3.1), (2.9, math.nan), (-math.inf, math.inf)])
def test_window_rejects_non_finite_bounds(lo, hi):
    with pytest.raises(InvalidSpec, match="finite"):
        Window("alpha", lo, hi)


def test_a_study_refuses_two_windows_of_one_label():
    # ``:g`` prints both lower bounds as 0.1, so the two windows would share
    # one CSV header cell and one JSON key, and the second would hide the first
    windows = (Window("k", 0.1, 0.15), Window("k", 0.1000001, 0.15))
    assert windows[0].label == windows[1].label
    with pytest.raises(InvalidSpec, match="window label may be given once"):
        replace(small_config(), windows=windows)
    obj = study_config_to_json(small_config())
    obj["windows"].append(dict(obj["windows"][0]))
    with pytest.raises(InvalidSpec, match="window label may be given once"):
        parse_study_config(obj)


@pytest.mark.parametrize("param", ["beta", "p"])
def test_a_study_row_refuses_a_window_over_a_parameter_no_family_grids(monkeypatch, param):
    # "beta" is a typo; "p" is a parameter, but neither family grids it. Each
    # would read 0.0 on every row, so the row refuses before drawing anything.
    import netselect.study as study

    def no_draw(*args):
        raise AssertionError("a refused window must cost no simulation")

    monkeypatch.setattr(study, "sample_graph", no_draw)
    monkeypatch.setattr(study, "grid_feature_matrices", no_draw)
    config = replace(small_config(), windows=(Window("alpha", 2.9, 3.1), Window(param, 0, 10)))
    with pytest.raises(InvalidSpec, match=rf"window P\({param} in \[0\.\.10\]\).*'alpha', 'k'"):
        run_study_row(config.rows[0], config, 0)


def test_run_study_structure_and_normalization():
    config = small_config(losses=("quadratic", "absolute"))
    results = run_study(config)
    assert len(results) == 2  # one per loss kind
    for res in results:
        assert res.data_id == "alpha"
        assert len(res.window_probabilities) == 2
        assert all(0 <= p <= 1 for p in res.window_probabilities)
        assert sum(res.posterior.posterior_weights) == pytest.approx(1.0)
        assert res.loss_ratio >= 0


def test_run_study_is_deterministic():
    config = small_config()
    a = study_results_csv(config, run_study(config))
    b = study_results_csv(config, run_study(config))
    assert a == b


def test_multi_feature_ratio_is_mean_of_single_feature_ratios():
    # Same row index => same seeds => the combined row sees exactly the
    # per-feature ratios of the single-feature rows.
    single_1 = small_config(features=("power_law_exponent",))
    single_2 = small_config(features=("degree_entropy",))
    both = small_config(features=("power_law_exponent", "degree_entropy"))
    r1 = run_study_row(single_1.rows[0], single_1, 0)[0].loss_ratio
    r2 = run_study_row(single_2.rows[0], single_2, 0)[0].loss_ratio
    r12 = run_study_row(both.rows[0], both, 0)[0].loss_ratio
    assert r12 == pytest.approx((r1 + r2) / 2, rel=1e-12)


def test_csv_shape():
    config = small_config(losses=("quadratic", "absolute"))
    text = study_results_csv(config, run_study(config))
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["real_param", "loss", "features", "loss_ratio"]
    assert header[4:] == ["P(alpha in [2.9..3.1])", "P(k in [4..4])"]
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "quadratic"
    assert lines[2].split(",")[1] == "absolute"


def test_workers_do_not_change_results():
    config = small_config()
    serial = study_results_csv(config, run_study(config, workers=1))
    parallel = study_results_csv(config, run_study(config, workers=2))
    assert serial == parallel


def test_study_row_pools_two_families_under_a_flat_prior():
    config = StudyConfig(
        candidates=(Candidate("a", ErdosRenyi(10, GridPrior((0.2,)))),
                    Candidate("b", ErdosRenyi(10, GridPrior((0.8,))))),
        windows=(Window("p", 0.0, 0.5),),
        rows=(StudyRow("a", ErdosRenyi(10, PointPrior(0.2)), (FeatureKind("triangle_count"),),
                       (LossKind("quadratic"),)),),
        n_samples=50,
        master_seed=3,
    )
    [res] = run_study_row(config.rows[0], config, 0)
    post = res.posterior
    assert post.params == ("p", "p") and post.values == (0.2, 0.8)
    # equal priors cancel: each point's weight is its share of the evidence
    evidences = [math.exp(e) for e in post.log_evidences]
    assert post.posterior_weights == pytest.approx([e / sum(evidences) for e in evidences])
    assert sum(post.posterior_weights) == pytest.approx(1.0)
    assert res.window_probabilities == (post.posterior_weights[0],)


@pytest.mark.parametrize("kinds", [
    (FeatureKind("triangle_count"), FeatureKind("triangle_count")),
    (FeatureKind("triangle_count"), FeatureKind("triangle_count", k_max=3)),
], ids=["same_kind", "same_kind_other_ignored_parameter"])
def test_a_study_row_rejects_a_repeated_feature(kinds):
    # Grid evidences multiply across a row's features, so a repeat would
    # count one feature's evidence twice.
    row = StudyRow("alpha", PowerLaw(50, PointPrior(3.2)), kinds, (LossKind("quadratic"),))
    with pytest.raises(InvalidSpec, match="given once"):
        replace(small_config(), rows=(row,))


def test_family_whose_evidences_all_underflow_keeps_the_pooled_posterior():
    # Every grid point of the dense family puts zero evidence on the sparse
    # data; the row must pool it with the sparse family, not normalise it alone.
    config = StudyConfig(
        candidates=(Candidate("low", ErdosRenyi(60, GridPrior((0.04, 0.05, 0.06)))),
                    Candidate("high", ErdosRenyi(60, GridPrior((0.8, 0.9))))),
        windows=(Window("p", 0.04, 0.06),),
        rows=(StudyRow("low", ErdosRenyi(60, PointPrior(0.05)),
                       (FeatureKind("link_density"), FeatureKind("global_clustering")),
                       (LossKind("quadratic"),)),),
        n_samples=30,
        master_seed=5,
    )
    [res] = run_study(config)
    logs = res.posterior.log_evidences
    assert [math.exp(e) for e in logs[:3]] == pytest.approx(
        (0.34206949851809465, 802.1556878969701, 325.2058504792653), rel=1e-12)
    assert max(logs[3:]) < LOG_VANISHING  # a float evidence reads 0 at both points
    assert res.window_probabilities == (1.0,)
    assert res.posterior.posterior_weights[3:] == (0.0, 0.0)


def test_a_family_whose_feature_products_underflow_keeps_weights_by_its_log_sums():
    """Each feature's evidence is positive at every point of family "b" (each
    log is above LOG_VANISHING), but their three-feature product underflows
    at each of them. Its points keep the weights of their log sums, where a
    product of linear evidences would read 0 for the whole family."""
    features = (FeatureKind("link_density"), FeatureKind("global_clustering"),
                FeatureKind("degree_entropy"))

    def posterior(kinds):
        config = StudyConfig(
            candidates=(Candidate("a", ErdosRenyi(60, GridPrior((0.37, 0.38)))),
                        Candidate("b", ErdosRenyi(60, GridPrior((0.3, 0.305, 0.32))))),
            windows=(Window("p", 0.3, 0.32),),
            rows=(StudyRow("a", ErdosRenyi(60, PointPrior(0.5)), kinds,
                           (LossKind("quadratic"),)),),
            n_samples=30, master_seed=4)
        [res] = run_study(config)
        return res

    # the draws do not depend on the row's features, so one-feature rows give
    # the columns that the three-feature row sums
    columns = [posterior((kind,)).posterior.log_evidences for kind in features]
    assert min(min(c) for c in columns) > LOG_VANISHING
    res = posterior(features)
    logs, weights = res.posterior.log_evidences, res.posterior.posterior_weights
    assert logs == pytest.approx([sum(c) for c in zip(*columns)], rel=1e-12)
    assert max(logs[2:]) < LOG_VANISHING
    assert min(weights[2:]) > 0
    for i, j in ((2, 3), (2, 4), (3, 4)):
        assert weights[i] / weights[j] == pytest.approx(math.exp(logs[i] - logs[j]), rel=1e-9)
    assert res.window_probabilities == (pytest.approx(sum(weights[2:]), rel=1e-12),)
    assert sum(weights) == pytest.approx(1.0)
