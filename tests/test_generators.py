import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netselect import (
    DegreeCountTerm,
    EdgeCountTerm,
    ErdosRenyi,
    GridPrior,
    IndividualEdgeTerm,
    InvalidSpec,
    LogLinear,
    PointPrior,
    PowerLaw,
    Sbm,
    TriangleCountTerm,
    UniformPrior,
    build_graph,
    equal_blocks,
    generate_er,
    mh_loglinear_sample,
    model_spec_to_json,
    parse_model_spec,
    parse_prior,
    prior_predictive,
    prior_to_json,
    sample_graph,
    sample_parameter,
    sample_powerlaw_degrees,
    write_edge_list,
)
from netselect.generators import _pair_stubs
from conftest import adjacency_sets, toggle_edge


# --------------------------------------------------------------------------
# Priors
# --------------------------------------------------------------------------

def test_point_prior_is_deterministic():
    rng = np.random.default_rng(0)
    assert sample_parameter(PointPrior(3.2), rng) == 3.2


def test_uniform_prior_stays_in_range():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = sample_parameter(UniformPrior(2.9, 3.1), rng)
        assert 2.9 <= x <= 3.1


def test_single_atom_grid():
    rng = np.random.default_rng(2)
    assert sample_parameter(GridPrior((9.0,), (1.0,)), rng) == 9.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1, max_size=12)
       .filter(lambda w: sum(w) > 0), st.integers(0, 2**64 - 1))
def test_grid_draws_match_rng_choice_in_value_and_generator_state(weights, seed):
    """The kept cdf and one uniform pick what ``rng.choice(p=weights)`` picks
    and leave the generator where it leaves it."""
    prior = GridPrior(tuple(float(i) for i in range(len(weights))), tuple(weights))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(50):
        expected = prior.values[ref.choice(len(prior.values), p=np.asarray(prior.weights))]
        assert sample_parameter(prior, rng) == expected
    assert rng.bit_generator.state == ref.bit_generator.state


def test_grid_weights_normalize():
    grid = GridPrior((1.0, 2.0), (2.0, 6.0))
    assert grid.weights == (0.25, 0.75)


def test_grid_rejects_negative_weights():
    with pytest.raises(InvalidSpec):
        GridPrior((1.0, 2.0), (0.5, -0.5))


def test_uniform_rejects_empty_range():
    with pytest.raises(InvalidSpec):
        UniformPrior(3.0, 3.0)


def test_prior_json_round_trip():
    for prior in (PointPrior(0.3), UniformPrior(2.9, 3.1),
                  GridPrior((8.0, 9.0, 10.0))):
        assert parse_prior(prior_to_json(prior)) == prior


# --------------------------------------------------------------------------
# Erdos-Renyi
# --------------------------------------------------------------------------

def test_er_p1_is_complete():
    g = generate_er(3, 1.0, np.random.default_rng(0))
    assert g.edge_count == 3


def test_er_p0_is_empty():
    g = generate_er(5, 0.0, np.random.default_rng(0))
    assert g.edge_count == 0


def test_er_mean_edge_count():
    # 1000 seeds at n=100, p=0.1: binomial mean 4950 * 0.1 = 495,
    # three standard errors of the mean = 3 * sqrt(445.5 / 1000) ~= 2.1.
    counts = [generate_er(100, 0.1, np.random.default_rng(seed)).edge_count
              for seed in range(1000)]
    assert abs(np.mean(counts) - 495.0) < 2.1


def test_er_edge_indicators_look_independent():
    # Covariance smoke test between disjoint node pairs at n=30.
    n, p, batch = 30, 0.3, 1000
    duos = [((4 * i, 4 * i + 1), (4 * i + 2, 4 * i + 3)) for i in range(7)]
    hits = np.zeros((batch, len(duos), 2))
    for b in range(batch):
        g = generate_er(n, p, np.random.default_rng(10_000 + b))
        for j, (e1, e2) in enumerate(duos):
            hits[b, j, 0] = g.has_edge(*e1)
            hits[b, j, 1] = g.has_edge(*e2)
    se = p * (1 - p) / math.sqrt(batch)
    covs = [abs(np.cov(hits[:, j, 0], hits[:, j, 1])[0, 1]) for j in range(len(duos))]
    assert max(covs) < 4.5 * se
    assert np.mean(covs) < 3 * se


# --------------------------------------------------------------------------
# SBM
# --------------------------------------------------------------------------

def test_sbm_disjoint_cliques():
    g = sample_graph(Sbm(6, 2, edge_probs=((1.0, 0.0), (0.0, 1.0))), np.random.default_rng(0))
    assert g.edge_count == 6
    assert not any(g.has_edge(u, v) for u in range(3) for v in range(3, 6))


def test_sbm_k1_equals_er_draw_for_draw():
    p = 0.37
    g_sbm = sample_graph(Sbm(8, 1, edge_probs=((p,),)), np.random.default_rng(99))
    g_er = generate_er(8, p, np.random.default_rng(99))
    assert g_sbm == g_er


def test_sbm_cross_block_edge_mean():
    # 25 cross pairs at p_out=0.2: mean 5.0, 3 SEM = 3 * sqrt(4/1000) ~= 0.19.
    z = equal_blocks(10, 2)
    spec = Sbm(10, 2, edge_probs=((0.5, 0.2), (0.2, 0.5)))
    crossings = []
    for seed in range(1000):
        g = sample_graph(spec, np.random.default_rng(seed))
        crossings.append(sum(1 for u, v in g.edges() if z[u] != z[v]))
    assert abs(np.mean(crossings) - 5.0) < 0.19


def test_sbm_rejects_asymmetric_probs():
    with pytest.raises(InvalidSpec):
        Sbm(4, 2, edge_probs=((0.5, 0.1), (0.2, 0.5)))


# --------------------------------------------------------------------------
# Power-law degrees and the erased configuration model
# --------------------------------------------------------------------------

def test_powerlaw_degrees_heavy_tail_limit():
    degrees = sample_powerlaw_degrees(100, 50.0, 1, np.random.default_rng(3))
    assert sorted(degrees)[:-1] == [1] * 99  # at most the parity fix differs
    assert degrees.sum() % 2 == 0


def test_powerlaw_degrees_match_inverse_cdf_oracle():
    degrees = sample_powerlaw_degrees(10 ** 5, 3.0, 1, np.random.default_rng(4))
    u = np.random.default_rng(12345).random(10 ** 5)
    oracle = np.floor(u ** (-1.0 / 2.0))
    assert abs(degrees.mean() - oracle.mean()) / oracle.mean() < 0.01


def test_powerlaw_degree_sum_always_even():
    for seed in range(50):
        degrees = sample_powerlaw_degrees(31, 2.5, 1, np.random.default_rng(seed))
        assert degrees.sum() % 2 == 0


def test_powerlaw_rejects_infinite_mean():
    with pytest.raises(InvalidSpec):
        sample_powerlaw_degrees(10, 2.0, 1, np.random.default_rng(0))


def test_config_model_single_edge():
    g = _pair_stubs([1, 1], np.random.default_rng(0))
    assert g.edge_count == 1 and g.has_edge(0, 1)


def test_config_model_erasure_upper_bound():
    for seed in range(20):
        g = _pair_stubs([2, 2, 2], np.random.default_rng(seed))
        assert g.edge_count <= 3


def _all_stub_matchings(stubs):
    """Every perfect matching of the stub list (stubs labeled by node)."""
    if not stubs:
        yield []
        return
    first, rest = stubs[0], stubs[1:]
    for i in range(len(rest)):
        pair = (first, rest[i])
        for tail in _all_stub_matchings(rest[:i] + rest[i + 1:]):
            yield [pair] + tail


def test_config_model_star_frequency_matches_enumeration():
    degrees = [3, 1, 1, 1]
    stubs = [node for node, d in enumerate(degrees) for _ in range(d)]
    star = frozenset({(0, 1), (0, 2), (0, 3)})
    matchings = list(_all_stub_matchings(stubs))
    exact = sum(
        1 for m in matchings
        if frozenset((min(a, b), max(a, b)) for a, b in m if a != b) == star
    ) / len(matchings)

    hits = 0
    trials = 1000
    for seed in range(trials):
        g = _pair_stubs(degrees, np.random.default_rng(seed))
        realized = g.degrees
        assert np.all(realized <= np.array(degrees))
        hits += set(g.edges()) == set(star)
    se = math.sqrt(exact * (1 - exact) / trials)
    assert abs(hits / trials - exact) < 3 * se


# --------------------------------------------------------------------------
# Log-linear MH sampler
# --------------------------------------------------------------------------

def test_mh_zero_strength_edge_frequency():
    spec = LogLinear(5, 0.0, ((1.0, EdgeCountTerm()),))
    graphs = mh_loglinear_sample(spec, count=10 ** 4, rng=np.random.default_rng(6))
    freq = np.mean([g.edge_count / 10 for g in graphs])
    assert abs(freq - 0.5) < 0.02


def test_mh_zero_strength_uniform_over_labeled_graphs():
    # n=4: 64 labeled graphs, each with probability 1/64 at zero strength.
    spec = LogLinear(4, 0.0, ((1.0, EdgeCountTerm()),))
    graphs = mh_loglinear_sample(spec, count=10 ** 5, rng=np.random.default_rng(7))
    pairs = list(itertools.combinations(range(4), 2))
    counts = np.zeros(64)
    for g in graphs:
        code = sum(1 << i for i, (u, v) in enumerate(pairs) if g.has_edge(u, v))
        counts[code] += 1
    tv = 0.5 * np.abs(counts / counts.sum() - 1.0 / 64).sum()
    assert tv < 0.05


def test_mh_respects_graph_invariants():
    spec = LogLinear(6, 0.8, ((1.0, TriangleCountTerm()), (0.5, EdgeCountTerm())),
                     burn_in=50, thin=10)
    for g in mh_loglinear_sample(spec, count=20, rng=np.random.default_rng(8)):
        sets = adjacency_sets(g)
        for v in range(6):
            assert v not in sets[v]
            for w in sets[v]:
                assert v in sets[w]


def _statistic(term, g) -> int:
    """f(G) of a concordance term, recounted from ``g``'s neighbour sets; triangles
    over all node triples."""
    nbrs = adjacency_sets(g)
    if isinstance(term, EdgeCountTerm):
        return sum(map(len, nbrs)) // 2
    if isinstance(term, TriangleCountTerm):
        return sum(b in nbrs[a] and c in nbrs[a] and c in nbrs[b]
                   for a, b, c in itertools.combinations(range(g.node_count), 3))
    if isinstance(term, DegreeCountTerm):
        return sum(len(s) == term.degree for s in nbrs)
    return int(term.v in nbrs[term.u])


def test_concordance_deltas_match_recompute():
    rng = np.random.default_rng(9)
    terms = [EdgeCountTerm(), TriangleCountTerm(), DegreeCountTerm(2),
             IndividualEdgeTerm(0, 3)]
    g = build_graph(8, [])
    for _ in range(1000):
        u, v = rng.choice(8, size=2, replace=False)
        u, v = int(u), int(v)
        toggled = toggle_edge(g, u, v)
        nbrs = adjacency_sets(g)
        sign = -1 if g.has_edge(u, v) else 1
        stats = (sign, len(nbrs[u] & nbrs[v]), int(g.degrees[u]), int(g.degrees[v]), u, v)
        for term in terms:
            assert term.delta(*stats) == pytest.approx(
                _statistic(term, toggled) - _statistic(term, g))
        g = toggled


# --------------------------------------------------------------------------
# Prior predictive
# --------------------------------------------------------------------------

def test_prior_predictive_point_mass():
    spec = ErdosRenyi(3, PointPrior(1.0))
    graphs = prior_predictive(spec, 1, master_seed=0)
    assert len(graphs) == 1 and graphs[0].edge_count == 3


def test_prior_predictive_is_deterministic():
    spec = PowerLaw(40, UniformPrior(2.5, 3.5), d_min=1)
    a = prior_predictive(spec, 20, master_seed=77)
    b = prior_predictive(spec, 20, master_seed=77)
    assert a == b


def test_prior_predictive_independent_of_workers():
    spec = Sbm(30, 3, p_in=0.4, p_out=0.05)
    serial = prior_predictive(spec, 12, master_seed=5, workers=1)
    parallel = prior_predictive(spec, 12, master_seed=5, workers=2)
    assert [write_edge_list(g) for g in serial] == \
           [write_edge_list(g) for g in parallel]


def test_prior_predictive_samples_satisfy_invariants():
    specs = [
        ErdosRenyi(20, UniformPrior(0.1, 0.5)),
        Sbm(20, 2, p_in=0.5, p_out=0.1),
        PowerLaw(20, PointPrior(3.0)),
        LogLinear(6, 0.5, ((1.0, EdgeCountTerm()),)),
    ]
    for spec in specs:
        for g in prior_predictive(spec, 5, master_seed=3):
            sets = adjacency_sets(g)
            for v in range(g.node_count):
                assert v not in sets[v]
                for w in sets[v]:
                    assert v in sets[w]
            assert sum(len(s) for s in sets) == 2 * g.edge_count


def test_sbm_with_dirichlet_membership_samples():
    from netselect import DirichletMembership
    spec = Sbm(30, 3, p_in=0.5, p_out=0.1, membership=DirichletMembership(2.0))
    g = sample_graph(spec, np.random.default_rng(0))
    assert g.node_count == 30


def test_loglinear_needs_terms():
    with pytest.raises(InvalidSpec):
        LogLinear(4, 1.0, ())


def test_powerlaw_spec_rejects_low_support():
    with pytest.raises(InvalidSpec):
        PowerLaw(10, PointPrior(1.9))


def test_model_spec_json_round_trip():
    specs = [
        ErdosRenyi(10, UniformPrior(0.1, 0.9)),
        Sbm(12, GridPrior((2.0, 3.0)), p_in=0.5, p_out=0.05),
        Sbm(4, 2, edge_probs=((0.9, 0.1), (0.1, 0.9)), membership=(0, 0, 1, 1)),
        PowerLaw(15, GridPrior((2.9, 3.1)), d_min=2),
        LogLinear(5, 0.7, ((1.0, EdgeCountTerm()), (2.0, DegreeCountTerm(3)))),
    ]
    for spec in specs:
        assert parse_model_spec(model_spec_to_json(spec)) == spec
