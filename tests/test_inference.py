import itertools
import math

import numpy as np
import pytest

from netselect import (
    Decision,
    DegenerateRatio,
    DiscretePmf,
    ErdosRenyi,
    FeatureKind,
    FeatureSamples,
    GridPrior,
    InvalidInput,
    Kde,
    LossKind,
    PointPrior,
    UndefinedBayesFactor,
    UndefinedPosterior,
    bayes_factor,
    build_graph,
    combined_loss_ratio,
    compare_models,
    consensus_merge,
    decide,
    estimate_density,
    evidence,
    expected_loss,
    generate_er,
    param_posterior,
    pool_posteriors,
    posterior_model_probs,
    range_probability,
    report_from_json,
    report_to_json,
    shard_cells,
    silverman_bandwidth,
    simulate_feature_matrix,
)


def discrete_samples(values, kind="triangle_count"):
    return FeatureSamples(FeatureKind(kind), np.asarray(values, dtype=float))


def continuous_samples(values):
    return FeatureSamples(FeatureKind("degree_entropy"), np.asarray(values, dtype=float))


# --------------------------------------------------------------------------
# Density estimation and evidence
# --------------------------------------------------------------------------

def test_discrete_density_counts():
    density = estimate_density(discrete_samples([1, 1, 2]))
    assert isinstance(density, DiscretePmf)
    assert density.counts == {1.0: 2, 2.0: 1}
    assert density.n == 3


def test_zero_variance_continuous_degrades_to_point_mass():
    density = estimate_density(continuous_samples([0.0]))
    assert isinstance(density, DiscretePmf)
    assert evidence(density, 0.0) == 1.0


def test_degenerate_continuous_pmf_accepts_non_integral_observations():
    # e.g. a model whose sampled graphs are all regular has entropy 0.0 for
    # every draw; a non-integral observed entropy is still a valid query.
    density = estimate_density(continuous_samples([0.0, 0.0, 0.0]))
    assert isinstance(density, DiscretePmf)
    assert 0 < evidence(density, 0.6365) < 1


def test_kde_matches_normal_density_at_zero():
    values = np.random.default_rng(42).normal(size=10 ** 4)
    density = estimate_density(continuous_samples(values))
    assert isinstance(density, Kde)
    assert abs(evidence(density, 0.0) - 0.3989) < 0.02


def test_smoothed_evidence_seen_value():
    density = estimate_density(discrete_samples([1, 1, 2]))
    assert evidence(density, 1) == pytest.approx((2 + 0.5) / (3 + 0.5 * 2))
    assert evidence(density, 1) == pytest.approx(0.625)


def test_smoothed_evidence_unseen_value():
    density = estimate_density(discrete_samples([1, 1, 2]))
    assert evidence(density, 3) == pytest.approx(0.5 / (3 + 0.5 * 3))
    assert evidence(density, 3) == pytest.approx(0.111, abs=1e-3)


def test_single_kernel_evidence():
    h = 0.7
    density = Kde(np.array([0.0]), bandwidth=h)
    assert evidence(density, 0.0) == pytest.approx(1 / (h * math.sqrt(2 * math.pi)))


def test_evidence_variant_mismatch():
    density = estimate_density(discrete_samples([1, 1, 2]))
    with pytest.raises(InvalidInput):
        evidence(density, 2.5)


def test_empty_samples_rejected():
    with pytest.raises(InvalidInput):
        continuous_samples([])


def test_discrete_kind_rejects_fractional_samples():
    with pytest.raises(InvalidInput):
        discrete_samples([1.0, 2.5])


def test_discrete_evidence_is_proper_pmf():
    density = estimate_density(discrete_samples([0, 1, 1, 3, 3, 3, 7]))
    masses = [evidence(density, v) for v in (0, 1, 3, 7)]
    assert all(0 < m < 1 for m in masses)
    assert sum(masses) <= 1.0 + 1e-12


def test_kde_evidence_integrates_to_one():
    values = np.random.default_rng(7).normal(2.0, 0.5, size=400)
    density = estimate_density(continuous_samples(values))
    h = density.bandwidth
    xs = np.linspace(values.min() - 6 * h, values.max() + 6 * h, 4001)
    ys = [density.evaluate(x) for x in xs]
    assert np.trapezoid(ys, xs) == pytest.approx(1.0, abs=1e-3)


def test_silverman_bandwidth_formula():
    values = np.random.default_rng(1).normal(size=500)
    sd = np.std(values, ddof=1)
    iqr = np.subtract(*np.percentile(values, [75, 25]))
    expected = 0.9 * min(sd, iqr / 1.34) * 500 ** -0.2
    assert silverman_bandwidth(values) == pytest.approx(expected)


# --------------------------------------------------------------------------
# Bayes factors and posteriors
# --------------------------------------------------------------------------

def test_bayes_factor_identity():
    assert bayes_factor(0.4, 0.4) == 1.0


def test_bayes_factor_infinite_marker():
    assert bayes_factor(0.2, 0.0) == math.inf


def test_bayes_factor_undefined_when_both_zero():
    with pytest.raises(UndefinedBayesFactor):
        bayes_factor(0.0, 0.0)


def test_bayes_factor_exact_enumeration_3_nodes():
    # n=3, edge count 3: only K3, so evidence is p^3 and BF = (0.5/0.9)^3.
    kind = FeatureKind("triangle_count")  # placeholder kind; values are edge counts
    exact = (0.5 / 0.9) ** 3
    rng_counts = []
    for p, seed in ((0.5, 1), (0.9, 2)):
        counts = [generate_er(3, p, np.random.default_rng((seed << 20) + i)).edge_count
                  for i in range(4000)]
        rng_counts.append(FeatureSamples(kind, np.asarray(counts, dtype=float)))
    ev = [evidence(estimate_density(s), 3) for s in rng_counts]
    assert bayes_factor(ev[0], ev[1]) == pytest.approx(exact, abs=0.05)


def test_posterior_probs_flat():
    assert posterior_model_probs([0.2, 0.2]) == [0.5, 0.5]


def test_posterior_probs_prior_cancels_evidence():
    probs = posterior_model_probs([0.1, 0.9], [0.9, 0.1])
    assert probs == pytest.approx([0.5, 0.5])


def test_posterior_probs_zero_evidence():
    assert posterior_model_probs([0.3, 0.0]) == [1.0, 0.0]


def test_posterior_undefined_when_all_zero():
    with pytest.raises(UndefinedPosterior):
        posterior_model_probs([0.0, 0.0])


# --------------------------------------------------------------------------
# Losses and decisions
# --------------------------------------------------------------------------

def test_expected_loss_quadratic_and_absolute():
    samples = discrete_samples([1, 2, 3])
    assert expected_loss(samples, 2, LossKind("quadratic")) == pytest.approx(2 / 3)
    assert expected_loss(samples, 2, LossKind("absolute")) == pytest.approx(2 / 3)


def test_expected_loss_zero_when_matched():
    samples = discrete_samples([4, 4, 4])
    for loss in ("quadratic", "absolute", "zero_one"):
        assert expected_loss(samples, 4, LossKind(loss)) == 0.0


def test_zero_one_loss_tolerance():
    samples = continuous_samples([1.0, 1.05, 2.0])
    assert expected_loss(samples, 1.0, LossKind("zero_one", tolerance=0.1)) == \
        pytest.approx(1 / 3)


def test_combined_ratio_single_pair():
    assert combined_loss_ratio([(3.0, 6.0)]) == 0.5


def test_combined_ratio_is_mean():
    assert combined_loss_ratio([(2.0, 1.0), (4.0, 1.0), (6.0, 1.0)]) == 4.0


def test_combined_ratio_matched_models():
    assert combined_loss_ratio([(0.3, 0.3), (7.0, 7.0)]) == 1.0


def test_combined_ratio_rescale_invariance():
    pairs = [(0.2, 0.5), (3.0, 1.5), (0.01, 0.04)]
    base = combined_loss_ratio(pairs)
    for idx, c in ((0, 17.0), (1, 1e-6), (2, 300.0)):
        scaled = list(pairs)
        scaled[idx] = (pairs[idx][0] * c, pairs[idx][1] * c)
        assert abs(combined_loss_ratio(scaled) - base) < 1e-12


def test_combined_ratio_degenerate():
    with pytest.raises(DegenerateRatio):
        combined_loss_ratio([(1.0, 0.0)])


def test_decide_rule():
    assert decide(0.5, 1.0) is Decision.MODEL_1
    assert decide(2.0, 1.0) is Decision.MODEL_2
    assert decide(1.0, 1.0) is Decision.INDETERMINATE


def test_decide_flips_exactly_once():
    odds = 1.7
    decisions = [decide(x, odds) for x in np.linspace(0.01, 4.0, 200)]
    flips = sum(1 for a, b in zip(decisions, decisions[1:]) if a != b)
    assert flips == 1
    assert decisions[0] is Decision.MODEL_1 and decisions[-1] is Decision.MODEL_2


def test_decide_with_infinite_odds():
    assert decide(5.0, math.inf) is Decision.MODEL_1
    assert decide(math.inf, math.inf) is Decision.INDETERMINATE


# --------------------------------------------------------------------------
# Range probabilities
# --------------------------------------------------------------------------

def test_range_probability_full_and_empty():
    samples = continuous_samples([1.0, 2.0, 3.0])
    assert range_probability(samples, 0.0, 10.0) == (1.0, 0.0)
    assert range_probability(samples, 5.0, 6.0) == (0.0, 0.0)


def test_range_probability_infinite_proxies():
    samples = continuous_samples(np.random.default_rng(3).normal(size=50))
    p, _ = range_probability(samples, -math.inf, math.inf)
    assert p == 1.0


def test_range_probability_standard_error():
    samples = continuous_samples([1.0, 2.0, 3.0, 4.0])
    p, se = range_probability(samples, 1.5, 3.5)
    assert p == 0.5
    assert se == pytest.approx(math.sqrt(0.25 / 4))


def test_range_rejects_inverted_bounds():
    with pytest.raises(InvalidInput):
        range_probability(continuous_samples([1.0]), 2.0, 1.0)


# --------------------------------------------------------------------------
# Parameter posteriors
# --------------------------------------------------------------------------

def test_param_posterior_single_point():
    spec = ErdosRenyi(10, GridPrior((0.3,)))
    post = param_posterior(5.0, FeatureKind("triangle_count"), spec,
                           n_per_point=30, master_seed=1)
    assert post.posterior_weights == (1.0,)


def test_param_posterior_identical_points_split_evenly():
    # Two grid points with the same value share the per-sample seed stream,
    # so their evidences match exactly.
    spec = ErdosRenyi(10, GridPrior((0.3, 0.3)))
    post = param_posterior(5.0, FeatureKind("triangle_count"), spec,
                           n_per_point=30, master_seed=1)
    assert post.posterior_weights == (0.5, 0.5)


def test_param_posterior_window_probability():
    spec = ErdosRenyi(12, GridPrior((0.1, 0.2, 0.8)))
    observed = float(generate_er(12, 0.15, np.random.default_rng(0)).edge_count)
    post = param_posterior(observed, FeatureKind("triangle_count"), spec,
                           n_per_point=40, master_seed=2)
    total = post.window_probability("p", 0.0, 1.0)
    assert total == pytest.approx(1.0)
    low = post.window_probability("p", 0.0, 0.3)
    assert 0.0 <= low <= 1.0


def test_pool_posteriors_joint_grid():
    spec_a = ErdosRenyi(10, GridPrior((0.2,)))
    spec_b = ErdosRenyi(10, GridPrior((0.8,)))
    kind = FeatureKind("triangle_count")
    observed = float(generate_er(10, 0.2, np.random.default_rng(5)).edge_count)
    post_a = param_posterior(observed, kind, spec_a, 50, master_seed=3)
    post_b = param_posterior(observed, kind, spec_b, 50, master_seed=4)
    pooled = pool_posteriors([post_a, post_b])
    assert len(pooled.values) == 2
    assert sum(pooled.posterior_weights) == pytest.approx(1.0)
    assert pooled.prior_weights == (0.5, 0.5)


# --------------------------------------------------------------------------
# Exact-enumeration oracle for Monte Carlo evidence
# --------------------------------------------------------------------------

def enumerate_er_feature_pmf(n, p, feature):
    pairs = list(itertools.combinations(range(n), 2))
    pmf = {}
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = [pair for pair, b in zip(pairs, bits) if b]
        g = build_graph(n, edges)
        weight = p ** len(edges) * (1 - p) ** (len(pairs) - len(edges))
        pmf[feature(g)] = pmf.get(feature(g), 0.0) + weight
    return pmf


def test_mc_evidence_matches_exact_enumeration():
    n, p, n_samples = 4, 0.35, 3000
    from netselect import count_triangles
    features = {
        "edge_count": lambda g: g.edge_count,
        "triangle_count": count_triangles,
    }
    graphs = [generate_er(n, p, np.random.default_rng(900 + i))
              for i in range(n_samples)]
    for name, fn in features.items():
        exact = enumerate_er_feature_pmf(n, p, fn)
        values = np.array([fn(g) for g in graphs], dtype=float)
        samples = FeatureSamples(FeatureKind("triangle_count"), values)
        density = estimate_density(samples)
        for observed, truth in exact.items():
            se = math.sqrt(truth * (1 - truth) / n_samples)
            assert abs(evidence(density, observed) - truth) < 3 * se + 1e-3


# --------------------------------------------------------------------------
# Sharding and consensus merging
# --------------------------------------------------------------------------

def test_shard_sizes():
    g = generate_er(25, 0.2, np.random.default_rng(1))
    shards = shard_cells(g, 10)
    assert [s.node_count for s in shards] == [10, 10, 5]


def test_shard_identity_when_cell_covers_graph():
    g = generate_er(8, 0.3, np.random.default_rng(2))
    shards = shard_cells(g, 20)
    assert len(shards) == 1 and shards[0] == g


def test_shards_partition_nodes():
    g = generate_er(23, 0.2, np.random.default_rng(3))
    shards = shard_cells(g, 7)
    assert sum(s.node_count for s in shards) == 23


def test_consensus_single_shard_identity():
    draws = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(consensus_merge([draws]), draws)


def test_consensus_equal_variances_is_mean():
    a = np.array([1.0, 2.0, 3.0])
    b = a + 10.0  # same sample variance
    merged = consensus_merge([a, b])
    assert np.allclose(merged, (a + b) / 2, atol=1e-12)


def test_consensus_inverse_variance_weights():
    a = np.array([-1.0, 0.0, 1.0])       # sample variance 1
    b = np.array([-2.0, 0.0, 2.0])       # sample variance 4
    merged = consensus_merge([a, b])
    expected = (a + 0.25 * b) / 1.25
    assert np.allclose(merged, expected, atol=1e-12)


def test_consensus_identical_shards_unchanged():
    a = np.array([0.3, 0.9, 0.1, 0.5])
    merged = consensus_merge([a, a.copy(), a.copy()])
    assert np.allclose(merged, a, atol=1e-12)


def test_consensus_zero_variance_capped():
    a = np.array([2.0, 2.0, 2.0])
    b = np.array([0.0, 1.0, 5.0])
    merged = consensus_merge([a, b])
    assert np.allclose(merged, a, atol=1e-5)  # constant shard dominates


def test_consensus_needs_two_draws():
    with pytest.raises(InvalidInput):
        consensus_merge([[1.0]])


# --------------------------------------------------------------------------
# Comparison pipeline and reports
# --------------------------------------------------------------------------

def test_self_comparison_is_indeterminate():
    spec = ErdosRenyi(12, PointPrior(0.4))
    data = generate_er(12, 0.4, np.random.default_rng(11))
    report = compare_models(
        data, spec, spec,
        [FeatureKind("triangle_count"), FeatureKind("degree_entropy")],
        LossKind("quadratic"), n_samples=40, master_seed=5)
    for fc in report.features:
        assert fc.bayes_factor == 1.0
        assert fc.loss_ratio == 1.0
    assert report.combined_ratio == 1.0
    assert report.posterior_odds == 1.0
    assert report.decision is Decision.INDETERMINATE


def test_shared_seed_stream_bf_exactly_one():
    spec = ErdosRenyi(50, PointPrior(0.3))
    data = generate_er(50, 0.3, np.random.default_rng(77))
    report = compare_models(data, spec, spec, [FeatureKind("triangle_count")],
                            LossKind("absolute"), n_samples=120, master_seed=9)
    assert report.features[0].bayes_factor == 1.0


def test_independent_streams_bf_near_one():
    # Edge-count evidence under two independent simulations of the same model.
    spec = ErdosRenyi(50, PointPrior(0.3))
    kind = FeatureKind("triangle_count")  # integer-valued; edge counts used below
    data = generate_er(50, 0.3, np.random.default_rng(100))
    observed = float(data.edge_count)
    ev = []
    counts = []
    for seed in (101, 202):
        values = np.array([
            generate_er(50, 0.3, np.random.default_rng((seed << 22) + i)).edge_count
            for i in range(1000)], dtype=float)
        density = estimate_density(FeatureSamples(kind, values))
        ev.append(evidence(density, observed))
        counts.append(np.sum(values == observed))
    bf = bayes_factor(ev[0], ev[1])
    rel_se = math.sqrt(sum(1 / max(c, 1) for c in counts))
    assert abs(bf - 1.0) < 3 * rel_se


def test_compare_direction_powerlaw_data_vs_block_model():
    from netselect import PowerLaw, Sbm, sample_graph
    from netselect.seeds import spawn_rng

    data = sample_graph(PowerLaw(100, PointPrior(3.2), d_min=1), spawn_rng(31))
    report = compare_models(
        data,
        PowerLaw(100, PointPrior(3.0), d_min=1),
        Sbm(100, 10, p_in=0.3, p_out=0.03),
        [FeatureKind("power_law_exponent")],
        LossKind("quadratic"), n_samples=60, master_seed=13)
    fc = report.features[0]
    assert fc.loss_ratio < 0.1          # the power-law side loses far less
    assert fc.bayes_factor > 1.0        # and carries far more evidence
    assert report.decision is Decision.MODEL_1


def test_combined_ratio_is_mean_over_three_features():
    spec1 = ErdosRenyi(20, PointPrior(0.3))
    spec2 = ErdosRenyi(20, PointPrior(0.5))
    data = generate_er(20, 0.35, np.random.default_rng(17))
    report = compare_models(
        data, spec1, spec2,
        [FeatureKind("link_density"), FeatureKind("degree_entropy"),
         FeatureKind("triangle_count")],
        LossKind("quadratic"), n_samples=40, master_seed=8)
    assert len(report.features) == 3
    assert report.combined_ratio == pytest.approx(
        np.mean([fc.loss_ratio for fc in report.features]), rel=1e-12)


def test_report_json_round_trip():
    spec1 = ErdosRenyi(10, PointPrior(0.2))
    spec2 = ErdosRenyi(10, PointPrior(0.6))
    data = generate_er(10, 0.25, np.random.default_rng(8))
    report = compare_models(data, spec1, spec2,
                            [FeatureKind("triangle_count")],
                            LossKind("quadratic"), n_samples=30, master_seed=2)
    assert report_from_json(report_to_json(report)) == report


def test_simulate_feature_matrix_worker_independence():
    spec = ErdosRenyi(20, PointPrior(0.3))
    kinds = [FeatureKind("triangle_count"), FeatureKind("link_density")]
    serial = simulate_feature_matrix(spec, kinds, 16, master_seed=4, workers=1)
    parallel = simulate_feature_matrix(spec, kinds, 16, master_seed=4, workers=2)
    for kind in kinds:
        assert np.array_equal(serial[kind], parallel[kind])
