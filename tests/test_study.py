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
    study_config_to_json,
    study_results_csv,
)


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
    evidences = res.posterior.evidences
    assert evidences[:3] == pytest.approx((0.34206949851809465, 802.1556878969701,
                                           325.2058504792653), rel=1e-12)
    assert evidences[3:] == (0.0, 0.0)
    assert res.window_probabilities == (1.0,)
    assert res.posterior.posterior_weights[3:] == (0.0, 0.0)
