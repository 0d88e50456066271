import concurrent.futures
import decimal
import itertools
import json
import math
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netselect.generators as generators
import netselect.inference as inference
from netselect import (
    Decision,
    DegenerateRatio,
    DirichletMembership,
    DiscretePmf,
    ErdosRenyi,
    FeatureComparison,
    FeatureKind,
    FeatureSamples,
    GridPrior,
    InvalidInput,
    InvalidSpec,
    Kde,
    LossKind,
    PointPrior,
    PowerLaw,
    Sbm,
    UndefinedBayesFactor,
    UndefinedFeature,
    UndefinedPosterior,
    UniformPrior,
    bayes_factor,
    build_graph,
    combined_loss_ratio,
    compare_models,
    consensus_merge,
    decide,
    estimate_density,
    evidence,
    expected_loss,
    extract_feature,
    generate_er,
    range_probability,
    report_from_json,
    report_to_json,
    sample_graph,
    silverman_bandwidth,
    simulate_feature_matrices,
    simulate_feature_matrix,
)
from netselect.inference import (
    LOG_VANISHING,
    _normalise_logs,
    feature_samples,
    fix_grid_point,
    grid_feature_matrices,
    grid_points,
    grid_posterior,
    log_evidences,
    score,
)
from netselect.seeds import derive_seed, spawn_rng


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
    with pytest.warns(RuntimeWarning):  # z * z past the float range: -inf, not nan
        assert Kde(np.array([0.0]), 1e-300).log_density([1e10, 0.0])[0] == -math.inf


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
    ys = [evidence(density, x) for x in xs]
    assert np.trapezoid(ys, xs) == pytest.approx(1.0, abs=1e-3)


_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582")


def _decimal_log_density(values, bandwidth, x) -> float:
    """log of mean_i phi((x - v_i) / h) / h, from the kernel terms
    -((x - v_i) / h)^2 / 2 taken exactly from the floats, at 50 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        d = decimal.Decimal
        h = d(bandwidth)
        terms = [-((d(x) - d(v)) / h) ** 2 / 2 for v in values]
        top = max(terms)
        mean = sum((t - top).exp() for t in terms) / len(terms)
        return float(top + mean.ln() - (h * (2 * _PI).sqrt()).ln())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30), st.floats(1e-3, 1e3),
       st.lists(st.tuples(st.integers(0, 29), st.floats(-1e3, 1e3)), min_size=1, max_size=6))
def test_kde_log_density_equals_a_50_digit_log_mean_exp(values, bandwidth, offsets):
    """Points up to 1e3 bandwidths from a draw: past about 38.6 every kernel
    term of a point underflows in linear space, and its log still holds."""
    kde = Kde(np.array(values), bandwidth)
    xs = [values[i % len(values)] + z * bandwidth for i, z in offsets]
    for x, got in zip(xs, kde.log_density(xs)):
        want = _decimal_log_density(values, bandwidth, x)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=1, max_size=60),
       st.lists(st.integers(-3, 25), min_size=1, max_size=10))
def test_pmf_log_density_is_the_log_of_the_smoothed_mass(draws, xs):
    pmf = estimate_density(discrete_samples(draws))
    counts = Counter(draws)
    expected = [math.log((counts[x] + 0.5) / (len(draws) + 0.5 * (len(counts) + (x not in counts))))
                for x in xs]
    assert pmf.log_density(xs).tolist() == expected
    assert [evidence(pmf, x) for x in xs] == [math.exp(e) for e in expected]


def test_log_evidences_raise_only_for_a_feature_that_vanishes_under_every_point():
    ld, gc = FeatureKind("link_density"), FeatureKind("global_clustering")
    matrices = [{ld: np.array([0.10, 0.11, 0.12]), gc: np.array([0.30, 0.31, 0.33])},
                {ld: np.array([0.80, 0.81, 0.82]), gc: np.array([0.35, 0.36, 0.38])}]
    logs = log_evidences([(ld, 0.11), (gc, 0.33)], [feature_samples(m) for m in matrices])
    assert logs.shape == (2, 2)
    # link_density vanishes under the second point only: its evidence there
    # reads 0 in linear space, and no error is raised
    assert logs[1, 0] < LOG_VANISHING < logs[0, 0]
    assert evidence(estimate_density(FeatureSamples(ld, matrices[1][ld])), 0.11) == 0.0
    with pytest.raises(UndefinedBayesFactor, match="global_clustering"):
        log_evidences([(ld, 0.11), (gc, 0.9)], [feature_samples(m) for m in matrices])


#: One hypothesis: paired (triangle_count, link_density) draws.
_HYPOTHESIS = st.lists(st.tuples(st.integers(0, 8).map(float), st.floats(0, 1)),
                       min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.tuples(st.floats(0.01, 5), _HYPOTHESIS), min_size=1, max_size=4),
                min_size=1, max_size=3),
       st.integers(0, 10), st.floats(0, 0.5))
def test_score_weighs_expected_losses_left_to_right_and_logs_as_log_evidences(
        raw_groups, observed_count, tolerance):
    tc, ld = FeatureKind("triangle_count"), FeatureKind("link_density")
    # each group's weights are grid weights: normalised as a GridPrior normalises them
    groups = [list(zip(GridPrior(tuple(range(len(g))), tuple(w for w, _ in g)).weights,
                       ({tc: np.array([c for c, _ in draws]), ld: np.array([d for _, d in draws])}
                        for _, draws in g)))
              for g in raw_groups]
    # link_density is observed at a draw, so its evidence cannot vanish everywhere
    observations = [(tc, float(observed_count)), (ld, float(groups[0][0][1][ld][0]))]
    losses = [LossKind("quadratic"), LossKind("absolute"), LossKind("zero_one", tolerance)]

    logs, group_losses = score(observations, groups, losses)
    matrices = [m for group in groups for _, m in group]
    assert logs.tolist() == log_evidences(observations,
                                          [feature_samples(m) for m in matrices]).tolist()
    assert group_losses == [[[float(sum(w * expected_loss(FeatureSamples(kind, m[kind]),
                                                          observed, loss) for w, m in group))
                              for kind, observed in observations] for group in groups]
                            for loss in losses]
    _, single = score(observations, [[(1.0, m)] for m in matrices], losses)
    assert single == [[[expected_loss(FeatureSamples(kind, m[kind]), observed, loss)
                        for kind, observed in observations] for m in matrices]
                      for loss in losses]


def _percentile_bandwidth(values):
    """Silverman's rule with numpy's percentiles: the reference the one-sort
    quartiles must equal bit for bit."""
    sd = float(np.std(values, ddof=1))
    q75, q25 = np.percentile(values, [75, 25])
    iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * scale * len(values) ** -0.2


def test_silverman_bandwidth_formula():
    values = np.random.default_rng(1).normal(size=500)
    sd = np.std(values, ddof=1)
    iqr = np.subtract(*np.percentile(values, [75, 25]))
    expected = 0.9 * min(sd, iqr / 1.34) * 500 ** -0.2
    assert silverman_bandwidth(values) == expected
    assert silverman_bandwidth(values, float(sd)) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 6).map(float), st.integers(0, 10 ** 6).map(float),
                          st.floats(-1e3, 1e3)), min_size=2, max_size=300),
       st.sampled_from([1e-9, 0.37, 1.0, 7.5, 3e8]))
def test_silverman_bandwidth_equals_the_percentile_formula(raw, scale):
    """Ties, heavy tails (where the IQR term binds) and n = 2..300: every
    virtual index h = (n - 1) q, on both sides of t = 0.5."""
    values = np.array(raw) * scale
    assert silverman_bandwidth(values) == _percentile_bandwidth(values)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 128), st.lists(st.integers(0, 2 ** 63), min_size=1, max_size=3))
def test_spawn_rng_is_default_rng_of_the_derived_seed(master, key):
    a, b = np.random.SeedSequence(master, spawn_key=tuple(key)).generate_state(2, np.uint64)
    seed = (int(a) << 64) | int(b)
    assert derive_seed(master, *key) == seed
    expected = np.random.default_rng(seed).bit_generator.state
    assert spawn_rng(master, *key).bit_generator.state == expected


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
    assert _normalise_logs(np.log([0.2, 0.2])) == [0.5, 0.5]


def test_posterior_probs_prior_cancels_evidence():
    probs = _normalise_logs(np.log([0.1, 0.9]) + np.log([0.9, 0.1]))
    assert probs == pytest.approx([0.5, 0.5])


def test_posterior_probs_zero_evidence():
    assert _normalise_logs(np.array([math.log(0.3), -math.inf])) == [1.0, 0.0]


def test_posterior_undefined_when_all_zero():
    with pytest.raises(UndefinedPosterior):
        _normalise_logs(np.array([-math.inf, -math.inf]))


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
    """Only two zero losses are degenerate: a zero el_2 against a positive
    el_1 favours model_2 without bound, and a zero el_1 favours model_1."""
    with pytest.raises(DegenerateRatio):
        combined_loss_ratio([(0.0, 0.0)])
    assert combined_loss_ratio([(1.0, 0.0)]) == math.inf
    assert combined_loss_ratio([(0.0, 1.0), (2.0, 1.0)]) == 1.0


def test_decide_rule():
    assert decide(0.5, 0.0) is Decision.MODEL_1  # log odds 0: even odds
    assert decide(2.0, 0.0) is Decision.MODEL_2
    assert decide(1.0, 0.0) is Decision.INDETERMINATE
    # ties: within a relative DECISION_REL_TOL (1e-9) of the odds
    assert decide(1.0 + 1e-10, 0.0) is Decision.INDETERMINATE
    assert decide(1.0 + 1e-8, 0.0) is Decision.MODEL_2
    assert decide(1.0 - 1e-8, 0.0) is Decision.MODEL_1


def test_decide_flips_exactly_once():
    log_odds = math.log(1.7)
    decisions = [decide(x, log_odds) for x in np.linspace(0.01, 4.0, 200)]
    flips = sum(1 for a, b in zip(decisions, decisions[1:]) if a != b)
    assert flips == 1
    assert decisions[0] is Decision.MODEL_1 and decisions[-1] is Decision.MODEL_2


def test_decide_with_infinite_odds():
    assert decide(5.0, math.inf) is Decision.MODEL_1
    assert decide(math.inf, math.inf) is Decision.INDETERMINATE
    # exp(1025.3) overflows to inf, where it would tie an infinite ratio; its
    # log is finite, so an infinite ratio exceeds it
    assert decide(math.inf, 1025.3) is Decision.MODEL_2
    assert decide(0.0, -1025.3) is Decision.MODEL_1
    assert decide(0.0, -math.inf) is Decision.INDETERMINATE


def test_an_infinite_loss_ratio_orders_against_odds_past_the_float_range():
    """K_{30,30} has no triangle, and ER(60, 0.001) draws none either, so its
    triangle loss is 0 and the combined ratio inf; its link densities lie far
    below 0.5, so the log odds (about 4.2e6) overflow exp. Compared as logs
    the ratio exceeds the odds: model_2, where inf against inf tied."""
    data = build_graph(60, [(u, v) for u in range(30) for v in range(30, 60)])
    report = compare_models(data, ErdosRenyi(60, UniformPrior(0.45, 0.55)),
                            ErdosRenyi(60, PointPrior(0.001)),
                            [FeatureKind("link_density"), FeatureKind("triangle_count")],
                            LossKind("quadratic"), 50, 3)
    assert report.combined_ratio == report.posterior_odds == math.inf
    assert 1e6 < report.log_posterior_odds < math.inf
    assert report.decision is Decision.MODEL_2


# --------------------------------------------------------------------------
# Range probabilities
# --------------------------------------------------------------------------

Z95 = 1.959963984540054  # standard normal 0.975 quantile


def test_range_probability_full_and_empty():
    """Zero hits are not certainty: with N = 3 draws, no hit gives the Wilson
    upper bound z^2 / (N + z^2), and N hits the lower bound N / (N + z^2)."""
    samples = continuous_samples([1.0, 2.0, 3.0])
    p, se, p_lo, p_hi = range_probability(samples, 0.0, 10.0)
    assert (p, se, p_hi) == (1.0, 0.0, 1.0)
    assert p_lo == pytest.approx(3 / (3 + Z95 ** 2), rel=1e-12)
    p, se, p_lo, p_hi = range_probability(samples, 5.0, 6.0)
    assert (p, se, p_lo) == (0.0, 0.0, 0.0)
    assert p_hi == pytest.approx(Z95 ** 2 / (3 + Z95 ** 2), rel=1e-12)


def test_range_probability_infinite_proxies():
    samples = continuous_samples(np.random.default_rng(3).normal(size=50))
    p, *_ = range_probability(samples, -math.inf, math.inf)
    assert p == 1.0


def test_range_probability_standard_error():
    samples = continuous_samples([1.0, 2.0, 3.0, 4.0])
    p, se, *_ = range_probability(samples, 1.5, 3.5)
    assert p == 0.5
    assert se == pytest.approx(math.sqrt(0.25 / 4))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 500), data=st.data())
def test_range_probability_wilson_bounds_match_the_textbook_form(n, data):
    """The bounds equal (p + z^2/2N -+ z sqrt(p(1-p)/N + z^2/4N^2)) / (1 + z^2/N)
    and enclose p in [0, 1]; 0 hits give lo = 0 and N hits hi = 1 exactly."""
    k = data.draw(st.integers(0, n))
    samples = continuous_samples([0.0] * k + [1.0] * (n - k))
    p, se, p_lo, p_hi = range_probability(samples, -0.5, 0.5)
    z2 = Z95 ** 2
    centre = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = Z95 / (1 + z2 / n) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    assert p == k / n
    assert 0.0 <= p_lo <= p <= p_hi <= 1.0
    assert p_lo == pytest.approx(centre - half, rel=1e-12, abs=1e-15)
    assert p_hi == pytest.approx(centre + half, rel=1e-12, abs=1e-15)
    assert (p_lo == 0.0) == (k == 0) and (p_hi == 1.0) == (k == n)


def test_range_rejects_inverted_bounds():
    with pytest.raises(InvalidInput):
        range_probability(continuous_samples([1.0]), 2.0, 1.0)


# --------------------------------------------------------------------------
# Parameter posteriors
# --------------------------------------------------------------------------

def one_family_posterior(spec, observed, n_per_point, master_seed):
    """The flat-prior posterior over one gridded spec's points, given the
    triangle count ``observed``."""
    kind = FeatureKind("triangle_count")
    [(param, grid, matrices)] = grid_feature_matrices([spec], [kind], n_per_point,
                                                      [master_seed])
    return grid_posterior([param] * len(grid.values), grid.values,
                          log_evidences([(kind, observed)], [feature_samples(m) for m in matrices])
                          .sum(axis=1))


def test_grid_posterior_single_point():
    post = one_family_posterior(ErdosRenyi(10, GridPrior((0.3,))), 5.0,
                                n_per_point=30, master_seed=1)
    assert post.posterior_weights == (1.0,)


def test_grid_posterior_identical_points_split_evenly():
    # Two grid points with the same value share the per-sample seed stream,
    # so their evidences match exactly.
    post = one_family_posterior(ErdosRenyi(10, GridPrior((0.3, 0.3))), 5.0,
                                n_per_point=30, master_seed=1)
    assert post.posterior_weights == (0.5, 0.5)


def test_grid_posterior_window_probability():
    observed = float(generate_er(12, 0.15, np.random.default_rng(0)).edge_count)
    post = one_family_posterior(ErdosRenyi(12, GridPrior((0.1, 0.2, 0.8))), observed,
                                n_per_point=40, master_seed=2)
    total = post.window_probability("p", 0.0, 1.0)
    assert total == pytest.approx(1.0)
    low = post.window_probability("p", 0.0, 0.3)
    assert 0.0 <= low <= 1.0


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
# Consensus merging
# --------------------------------------------------------------------------

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


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and its shutdowns,
    runs jobs inline."""

    sizes = []
    shutdowns = []

    def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append(self)


CORES = 4


@pytest.fixture
def recording_pool(monkeypatch):
    """Pools are recording stand-ins, on a host with ``CORES`` usable cores."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "shutdowns", [])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(CORES)))
    return _RecordingPool


@pytest.mark.parametrize("n_jobs, workers", [(2, 6), (5, 3), (3, 3), (100, 500)])
def test_pool_starts_at_most_one_worker_per_job(recording_pool, n_jobs, workers):
    jobs = [(-i,) for i in range(1, n_jobs + 1)]
    for _ in range(2):  # the second call reuses the pool
        assert inference.pool_map(abs, jobs, workers) == list(range(1, n_jobs + 1))
    assert recording_pool.sizes == [min(workers, n_jobs, CORES)]
    assert recording_pool.shutdowns == []


def test_a_pool_of_another_size_replaces_the_last(recording_pool):
    jobs = [(-1,), (-2,), (-3,)]
    for workers in (2, 3, 3, 2):
        assert inference.pool_map(abs, jobs, workers) == [1, 2, 3]
    assert recording_pool.sizes == [2, 3, 2]
    assert len(recording_pool.shutdowns) == 2  # each old pool, before the next forks


def _fail_first_or_mark(directory, i):
    if i == 0:
        raise ValueError("job 0 fails")
    time.sleep(0.02)
    (Path(directory) / str(i)).touch()
    return i


def test_a_failing_job_cancels_the_jobs_not_started(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    with pytest.raises(ValueError, match="job 0 fails"):
        inference.pool_map(_fail_first_or_mark, [(str(first), i) for i in range(60)], 2)
    pool = inference._POOL
    assert inference.pool_map(_fail_first_or_mark, [(str(second), i) for i in (1, 2, 3)],
                              2) == [1, 2, 3]
    assert inference._POOL is pool
    # Only the jobs already handed to a worker ran; the rest were cancelled.
    assert len(list(first.iterdir())) < 20


def _allocate_an_exbibyte(i):
    return np.empty(1 << 60, dtype=np.uint8)


def test_a_workers_memory_error_reaches_the_caller():
    """The allocation fails at once; the worker's MemoryError is raised in
    the caller as a MemoryError, which ``cli.main`` turns into exit 2."""
    with pytest.raises(MemoryError):
        inference.pool_map(_allocate_an_exbibyte, [(0,), (1,)], 2)


def test_a_pool_whose_worker_died_is_dropped():
    jobs = [(-i,) for i in range(1, 5)]
    assert inference.pool_map(abs, jobs, 2) == [1, 2, 3, 4]
    pid, process = next(iter(inference._POOL._processes.items()))
    os.kill(pid, signal.SIGKILL)
    assert multiprocessing.connection.wait([process.sentinel], timeout=30)
    with pytest.raises(BrokenProcessPool):
        inference.pool_map(abs, jobs, 2)
    assert inference._POOL is None
    assert inference.pool_map(abs, jobs, 2) == [abs(*job) for job in jobs]


def test_pool_workers_do_not_hold_the_parents_pipes():
    # A child reading its stdin to the end: it exits only once every copy of
    # the pipe's write end is closed, pool workers' copies included.
    reader = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"],
                              stdin=subprocess.PIPE)
    try:
        assert inference.pool_map(abs, [(-1,), (-2,)], 2) == [1, 2]
        reader.stdin.close()
        assert reader.wait(timeout=30) == 0
    finally:
        reader.kill()
        reader.wait()


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


@pytest.mark.parametrize("priors", [(0.0, 0.0), (-1.0, 2.0), (math.nan, 1.0), (math.inf, 1.0)])
def test_compare_rejects_model_priors_without_a_finite_positive_sum(priors):
    spec = ErdosRenyi(12, PointPrior(0.4))
    data = generate_er(12, 0.4, np.random.default_rng(11))
    with pytest.raises(InvalidInput, match="model_priors"):
        compare_models(data, spec, spec, [FeatureKind("link_density")],
                       LossKind("quadratic"), n_samples=5, master_seed=0,
                       model_priors=priors)


def test_loss_tolerance_must_be_a_non_negative_number():
    with pytest.raises(InvalidSpec, match="tolerance"):
        LossKind("zero_one", math.nan)
    with pytest.raises(InvalidSpec, match="cannot parse loss"):
        LossKind.from_json({"kind": "zero_one", "tolerance": []})


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
    fc = report.features[0]
    infinite = replace(report, features=(replace(fc, bayes_factor=math.inf, log_evidence_2=-math.inf,
                                                  log_bayes_factor=math.inf),),
                       combined_ratio=math.inf)
    # a zero prior on model_1 is an odds of 0 with log -inf
    zero_prior = compare_models(data, spec1, spec2, [FeatureKind("triangle_count")],
                                LossKind("quadratic"), n_samples=30, master_seed=2,
                                model_priors=(0.0, 1.0))
    assert (zero_prior.posterior_odds, zero_prior.log_posterior_odds) == (0.0, -math.inf)
    assert fc.log_bayes_factor == fc.log_evidence_1 - fc.log_evidence_2
    finite = (fc.bayes_factor, fc.log_evidence_2, fc.log_bayes_factor, report.combined_ratio,
              report.log_posterior_odds)
    for original, written in ((report, finite),
                              (infinite, ("inf", "-inf", "inf", "inf", report.log_posterior_odds)),
                              (zero_prior, finite[:-1] + ("-inf",))):
        obj = json.loads(json.dumps(report_to_json(original), allow_nan=False))
        fj = obj["features"][0]
        assert (fj["bayes_factor"], fj["log_evidence_2"], fj["log_bayes_factor"],
                obj["combined_ratio"], obj["log_posterior_odds"]) == written
        assert report_from_json(obj) == original


@pytest.mark.parametrize("key, value", [
    ("n_samples", 2.7), ("master_seed", True), ("combined_ratio", "1.5"),
    ("model_priors", [0.5, "0.5"]), ("n_samples", "30"), ("posterior_odds", "1.5"),
    ("el_1", True), ("log_posterior_odds", "1.5"), ("log_evidence_1", None),
], ids=["float_count", "bool_seed", "string_ratio", "string_prior", "string_count",
        "string_odds", "bool_feature_loss", "string_log_odds", "null_log_evidence"])
def test_report_from_json_refuses_a_number_of_the_wrong_type(key, value):
    """A top-level key, or a per-feature one (``el_1``) set on the first feature."""
    report = compare_models(generate_er(10, 0.25, np.random.default_rng(8)),
                            ErdosRenyi(10, PointPrior(0.2)), ErdosRenyi(10, PointPrior(0.6)),
                            [FeatureKind("triangle_count")], LossKind("quadratic"),
                            n_samples=30, master_seed=2)
    obj = json.loads(json.dumps(report_to_json(report)))
    obj["future_key"] = {"added": 1}  # report keys are additive: an unknown one is read past
    assert report_from_json(obj) == report
    (obj if key in obj else obj["features"][0])[key] = value
    with pytest.raises(InvalidSpec, match=key):
        report_from_json(obj)


def test_every_feature_comparison_field_has_a_report_key():
    # A field without a key would be dropped from JSON and CSV reports, and
    # report_from_json could not rebuild it.
    attrs = {attr for _, attr in inference._FEATURE_KEYS}
    assert {"kind"} | attrs == {f.name for f in fields(FeatureComparison)}


def test_simulate_feature_matrix_worker_independence():
    spec = ErdosRenyi(20, PointPrior(0.3))
    kinds = [FeatureKind("triangle_count"), FeatureKind("link_density")]
    serial = simulate_feature_matrix(spec, kinds, 16, master_seed=4, workers=1)
    parallel = simulate_feature_matrix(spec, kinds, 16, master_seed=4, workers=2)
    for kind in kinds:
        assert np.array_equal(serial[kind], parallel[kind])


@pytest.mark.parametrize("workers", [1, 2])
def test_an_undefined_feature_names_its_sample_and_seed(workers):
    # Sparse ER draws often have no node of degree >= 4; under master seed 2
    # the first such draw is sample 57, which a pooled run puts in a later job.
    spec = ErdosRenyi(30, UniformPrior(0.03, 0.3))
    first = next(i for i in range(100) if sample_graph(
        spec, np.random.default_rng(derive_seed(2, i))).degrees.max() < 4)
    assert first == 57
    with pytest.raises(UndefinedFeature) as info:
        simulate_feature_matrices([spec], [FeatureKind("power_law_exponent", d_min=4)],
                                  100, 2, workers)
    assert f"sample {first}, seed {derive_seed(2, first)})" in str(info.value)


def test_jobs_are_cut_by_the_capped_pool_size(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    submitted = {}
    real = inference.pool_map

    def spy(fn, jobs, workers):
        submitted[workers] = [job[2:] for job in jobs]  # (master seed, first, stop)
        return real(fn, jobs, workers)

    monkeypatch.setattr(inference, "pool_map", spy)
    spec = PowerLaw(60, GridPrior((2.5, 3.0)))
    kind = FeatureKind("power_law_exponent")
    outputs = {workers: grid_feature_matrices([spec], [kind], 40, [7], workers)
               for workers in (2, 50)}
    assert submitted[50] == submitted[2]
    assert len(submitted[2]) == 8
    for (_, _, few), (_, _, many) in zip(outputs[2], outputs[50]):
        assert [m[kind].tobytes() for m in few] == [m[kind].tobytes() for m in many]


# --------------------------------------------------------------------------
# Shared generators and uniforms across grid points
# --------------------------------------------------------------------------

def _without_uniform_memo(monkeypatch):
    monkeypatch.setattr(generators, "_uniforms", lambda rng, size: rng.random(size))


def _fresh_point_matrices(spec, kinds, n_per_point, master_seed):
    """Per grid point, each sample drawn from a fresh generator of its seed."""
    param, grid = grid_points(spec)
    out = []
    for value in grid.values:
        point = fix_grid_point(spec, param, value)
        rows = [[float(extract_feature(sample_graph(
                    point, np.random.default_rng(derive_seed(master_seed, i))), kind))
                 for kind in kinds] for i in range(n_per_point)]
        out.append(dict(zip(kinds, np.asarray(rows).T)))
    return out


@pytest.mark.parametrize("spec", [
    ErdosRenyi(24, GridPrior((0.1, 0.25, 0.4))),
    Sbm(24, GridPrior((2.0, 3.0, 4.0)), p_in=0.5, p_out=0.1),
    Sbm(24, GridPrior((2.0, 3.0)), p_in=0.5, p_out=0.1,
        membership=DirichletMembership(1.0)),
    PowerLaw(24, GridPrior((2.5, 3.0, 3.5))),
], ids=["er", "sbm", "sbm_dirichlet", "powerlaw"])
def test_grid_draws_equal_per_point_draws_from_fresh_generators(monkeypatch, spec):
    kinds = [FeatureKind("link_density"), FeatureKind("triangle_count"),
             FeatureKind("degree_entropy")]
    shared = [grid_feature_matrices([spec, spec], kinds, 7, [3, 4], workers)
              for workers in (1, 2)]
    _without_uniform_memo(monkeypatch)
    for (_, _, matrices), master_seed in zip(shared[0], (3, 4)):
        expected = _fresh_point_matrices(spec, kinds, 7, master_seed)
        for got, want in zip(matrices, expected):
            for kind in kinds:
                assert np.array_equal(got[kind], want[kind])
    for (_, _, serial), (_, _, parallel) in zip(*shared):
        for a, b in zip(serial, parallel):
            assert all(np.array_equal(a[kind], b[kind]) for kind in kinds)


def test_grid_points_of_one_seed_share_one_read_only_uniform_vector():
    points = [ErdosRenyi(20, PointPrior(p)) for p in (0.1, 0.5)]
    rng = np.random.default_rng(derive_seed(9, 0))
    start = rng.bit_generator.state
    sample_graph(points[0], rng)
    uniforms, after = generators._LAST_UNIFORMS[2], rng.bit_generator.state
    rng.bit_generator.state = start
    sample_graph(points[1], rng)
    assert generators._LAST_UNIFORMS[2] is uniforms and not uniforms.flags.writeable
    assert rng.bit_generator.state == after


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(2, 9), st.booleans()),
                min_size=1, max_size=8))
def test_uniform_memo_never_serves_a_stale_vector(draws):
    # seeds alternate and repeat, sizes change, and some specs draw a
    # parameter before their pairs (a uniform prior on p); the last draw is
    # made twice, so the memo is hit at least once
    for seed, n, consumes in draws + draws[-1:]:
        spec = ErdosRenyi(n, UniformPrior(0.3, 0.6) if consumes else PointPrior(0.45))
        rng = np.random.default_rng(seed)
        g = sample_graph(spec, rng)
        ref = np.random.default_rng(seed)
        p = ref.uniform(0.3, 0.6) if consumes else 0.45
        iu, ju = np.triu_indices(n, 1)
        hit = ref.random(len(iu)) < p
        assert g == build_graph(n, zip(iu[hit].tolist(), ju[hit].tolist()))
        assert rng.random() == ref.random()  # the generator moved on as a fresh draw would


def _fresh_draw(spec, rng):
    """``sample_graph`` without the uniform memo."""
    with mock.patch.object(generators, "_uniforms", lambda rng, size: rng.random(size)):
        return sample_graph(spec, rng)


def _start(seed, buffered):
    """A generator of ``seed``; after ``rng.integers(2**31)`` when ``buffered``,
    so its state is one output in and holds a buffered 32-bit integer."""
    rng = np.random.default_rng(seed)
    if buffered:
        rng.integers(2**31)
    return rng


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(2, 9), st.booleans(), st.booleans()),
                min_size=1, max_size=8))
def test_uniform_memo_serves_a_shifted_vector_only_as_a_fresh_draw_would(draws):
    # per draw, as a comparison makes them from one start state: a block
    # model (no parameter draw) and an ER model that spends one output on p
    # first, in either order; seeds repeat, sizes change, and some start
    # states hold a buffered 32-bit integer
    for seed, n, er_first, buffered in draws + draws[-1:]:
        models = (Sbm(n, 2, p_in=0.5, p_out=0.2), ErdosRenyi(n, UniformPrior(0.3, 0.6)))
        rng = _start(seed, buffered)
        start = rng.bit_generator.state
        for spec in models[::-1] if er_first else models:
            rng.bit_generator.state = start
            g = sample_graph(spec, rng)
            ref = _start(seed, buffered)
            assert g == _fresh_draw(spec, ref)
            assert rng.bit_generator.state == ref.bit_generator.state


def test_uniform_memo_refuses_a_state_one_output_in_that_holds_a_buffered_integer():
    spec = ErdosRenyi(30, PointPrior(0.4))
    sample_graph(spec, np.random.default_rng(5))  # the memo starts at seed 5's start
    rng = _start(5, buffered=True)
    one_in = generators._LAST_UNIFORMS[4]
    # the memo's 128-bit state one output in, but not its buffered integer
    assert rng.bit_generator.state["state"] == one_in["state"]
    assert rng.bit_generator.state["has_uint32"] != one_in["has_uint32"]
    g = sample_graph(spec, rng)
    ref = _start(5, buffered=True)
    assert g == _fresh_draw(spec, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_compare_er_draw_after_the_block_model_draw_equals_a_fresh_draw():
    sbm = Sbm(200, 4, p_in=0.1, p_out=0.01)
    er = ErdosRenyi(200, UniformPrior(0.02, 0.05))
    rng = np.random.default_rng(derive_seed(11, 0))
    start = rng.bit_generator.state
    sample_graph(sbm, rng)
    uniforms = generators._LAST_UNIFORMS[2]
    rng.bit_generator.state = start
    g = sample_graph(er, rng)
    assert generators._LAST_UNIFORMS[2] is uniforms  # served from the block model's draw
    ref = np.random.default_rng(derive_seed(11, 0))
    assert g == _fresh_draw(er, ref)
    assert rng.bit_generator.state == ref.bit_generator.state
    _, ers = inference._draw_chunk((sbm, er), None, 11, 0, 4)
    assert ers == [_fresh_draw(er, np.random.default_rng(derive_seed(11, i))) for i in range(4)]


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox,
                                           np.random.MT19937])
def test_pair_draws_repeat_from_one_state_with_any_bit_generator(bit_generator):
    # Philox and MT19937 states hold arrays, which a state comparison must not meet
    spec = ErdosRenyi(12, PointPrior(0.4))
    rng = np.random.Generator(bit_generator(5))
    start = rng.bit_generator.state
    first = sample_graph(spec, rng)
    rng.bit_generator.state = start
    assert sample_graph(spec, rng) == first
    assert first == sample_graph(spec, np.random.Generator(bit_generator(5)))
