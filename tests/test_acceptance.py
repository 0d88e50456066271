"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with ``pytest -s`` to see them live).

The directional grid-study criteria (1-3) replicate the full pipeline 100
times with derived seeds; the remaining criteria are oracle and invariant
checks at their stated tolerances.
"""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from netselect import (
    Candidate,
    EdgeCountTerm,
    ErdosRenyi,
    FeatureKind,
    FeatureSamples,
    GridPrior,
    LogLinear,
    LossKind,
    PointPrior,
    PowerLaw,
    Sbm,
    StudyConfig,
    StudyRow,
    TriangleCountTerm,
    Window,
    bayes_factor,
    build_graph,
    combined_loss_ratio,
    compare_models,
    consensus_merge,
    count_triangles,
    degree_entropy,
    derive_seed,
    diameter,
    estimate_block_count,
    estimate_density,
    evidence,
    generate_er,
    mh_loglinear_sample,
    sample_graph,
)
from netselect.cli import main as cli_main
from netselect.study import run_study_row

SUITE_SEED = 20260811
N_NODES = 200
N_SAMPLES = 100
REPLICATIONS = 100

ALPHA_GRID = (2.9, 3.0, 3.1, 3.3, 3.5)
K_GRID = (8.0, 9.0, 10.0, 12.0)
SBM_P_IN, SBM_P_OUT = 0.3, 0.03


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _study_config(rows):
    return StudyConfig(
        candidates=(
            Candidate("alpha", PowerLaw(N_NODES, GridPrior(ALPHA_GRID), d_min=1)),
            Candidate("k", Sbm(N_NODES, GridPrior(K_GRID),
                               p_in=SBM_P_IN, p_out=SBM_P_OUT)),
        ),
        windows=(Window("alpha", 2.9, 3.1), Window("k", 9, 9)),
        rows=rows,
        n_samples=N_SAMPLES,
        master_seed=0,
    )


@pytest.fixture(scope="module")
def powerlaw_setup_results():
    """100 replications of the Table-4 power-law row (shared by criteria 1 and 3)."""
    row = StudyRow("alpha", PowerLaw(N_NODES, PointPrior(3.2), d_min=1),
                   (FeatureKind("power_law_exponent"),),
                   (LossKind("quadratic"),))
    config = _study_config((row,))
    results = []
    for rep in range(REPLICATIONS):
        cfg = replace(config, master_seed=derive_seed(SUITE_SEED, rep))
        res = run_study_row(row, cfg, 0)[0]
        results.append((res.window_probabilities[0],
                        res.window_probabilities[1],
                        res.loss_ratio))
    return results


def test_criterion_1_powerlaw_window_dominates(powerlaw_setup_results):
    wins = sum(1 for p_alpha, p_k9, _ in powerlaw_setup_results
               if p_alpha >= 10 * p_k9)
    _report(1, wins >= 90,
            f"P(alpha in [2.9,3.1]|D) >= 10*P(K=9|D) in {wins}/100 "
            "replications (need >= 90)")


def test_criterion_2_sbm_block_posterior_dominates():
    row = StudyRow("k", Sbm(N_NODES, 10, p_in=SBM_P_IN, p_out=SBM_P_OUT),
                   (FeatureKind("block_count"), FeatureKind("degree_entropy")),
                   (LossKind("quadratic"),))
    config = _study_config((row,))
    wins = 0
    for rep in range(REPLICATIONS):
        cfg = replace(config, master_seed=derive_seed(SUITE_SEED, 1000 + rep))
        res = run_study_row(row, cfg, 0)[0]
        wins += res.window_probabilities[1] > res.window_probabilities[0]
    _report(2, wins >= 90,
            f"P(K=9|D) > P(alpha in [2.9,3.1]|D) in {wins}/100 "
            "replications (need >= 90)")


def test_criterion_3_loss_ratio_direction(powerlaw_setup_results):
    wins = sum(1 for _, _, ratio in powerlaw_setup_results if ratio > 10)
    _report(3, wins >= 95,
            f"quadratic loss ratio (wrong/right) > 10 in {wins}/100 "
            "replications (need >= 95)")


def test_criterion_4_exact_enumeration_bayes_factor():
    # At n=3 the observed triangle (count 1) occurs iff all three edges are
    # present, so the exact evidence under ER(p) is p^3; the oracle below
    # recomputes it by enumerating all 2^3 labeled graphs.
    def exact_evidence(p):
        total = 0.0
        for bits in itertools.product((0, 1), repeat=3):
            edges = [e for e, b in zip(((0, 1), (0, 2), (1, 2)), bits) if b]
            g = build_graph(3, edges)
            w = p ** len(edges) * (1 - p) ** (3 - len(edges))
            if count_triangles(g) == 1:
                total += w
        return total

    exact_bf = exact_evidence(0.5) / exact_evidence(0.9)
    assert exact_bf == pytest.approx(0.1715, abs=5e-4)

    kind = FeatureKind("triangle_count")
    estimates = []
    for p, seed_base in ((0.5, 1), (0.9, 2)):
        values = np.array([
            count_triangles(generate_er(3, p, np.random.default_rng(
                derive_seed(SUITE_SEED, seed_base, i))))
            for i in range(10 ** 4)], dtype=float)
        density = estimate_density(FeatureSamples(kind, values))
        estimates.append(evidence(density, 1))
    mc_bf = bayes_factor(estimates[0], estimates[1])
    _report(4, abs(mc_bf - exact_bf) < 0.05,
            f"MC Bayes factor {mc_bf:.4f} vs exact {exact_bf:.4f} "
            "(tolerance 0.05)")


def test_criterion_5_loglinear_sampler():
    # Edge-count concordance at lambda*w = ln 3: stationary edge marginal 3/4.
    spec = LogLinear(5, math.log(3.0), ((1.0, EdgeCountTerm()),))
    graphs = mh_loglinear_sample(spec, count=10 ** 4,
                                 rng=np.random.default_rng(SUITE_SEED))
    freq = float(np.mean([g.edge_count / 10 for g in graphs]))
    ok_edges = abs(freq - 0.75) < 0.02

    # Triangle-count concordance at n=4: compare against the exact
    # distribution over all 64 labeled graphs.
    def oracle_triangles(bits, pairs):
        adj = [set() for _ in range(4)]
        for (u, v), b in zip(pairs, bits):
            if b:
                adj[u].add(v)
                adj[v].add(u)
        return sum(1 for a, b_, c in itertools.combinations(range(4), 3)
                   if b_ in adj[a] and c in adj[a] and c in adj[b_])

    pairs = list(itertools.combinations(range(4), 2))
    weights = np.array([math.exp(oracle_triangles(bits, pairs))
                        for bits in itertools.product((0, 1), repeat=6)])
    exact = weights / weights.sum()

    spec = LogLinear(4, 1.0, ((1.0, TriangleCountTerm()),))
    graphs = mh_loglinear_sample(spec, count=10 ** 5,
                                 rng=np.random.default_rng(SUITE_SEED + 1))
    counts = np.zeros(64)
    for g in graphs:
        code = sum(1 << i for i, (u, v) in enumerate(pairs) if g.has_edge(u, v))
        counts[code] += 1
    tv = 0.5 * float(np.abs(counts / counts.sum() - exact).sum())
    ok_tv = tv < 0.05
    _report(5, ok_edges and ok_tv,
            f"edge marginal {freq:.4f} (want 0.75 +- 0.02), "
            f"triangle-model TV {tv:.4f} (want < 0.05)")


def test_criterion_6_feature_extractor_oracles():
    rng = np.random.default_rng(SUITE_SEED + 2)

    # Triangle counts vs brute-force triple enumeration, 200 graphs n <= 7.
    tri_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 8))
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < rng.random()])
        brute = sum(1 for a, b, c in itertools.combinations(range(n), 3)
                    if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c))
        tri_ok &= count_triangles(g) == brute

    # Diameter vs a Floyd-Warshall all-pairs oracle, 100 graphs n <= 50.
    def fw_diameter(g):
        n = g.node_count
        inf = np.int64(10 ** 9)
        dist = np.full((n, n), inf, dtype=np.int64)
        np.fill_diagonal(dist, 0)
        for u, v in g.edges():
            dist[u, v] = dist[v, u] = 1
        for k in range(n):
            dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
        reach = dist < inf
        sizes = reach.sum(axis=1)
        biggest = sizes.max()
        return max(int(dist[u][reach[u]].max())
                   for u in range(n) if sizes[u] == biggest)

    diam_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 51))
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < 0.08])
        diam_ok &= diameter(g) == fw_diameter(g)

    # Regular graphs have exactly zero degree entropy.
    regulars = [
        build_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)]),
        build_graph(8, [(i, (i + 1) % 8) for i in range(8)]),
        build_graph(4, [(0, 1), (2, 3)]),
        build_graph(5, []),
    ]
    entropy_ok = all(degree_entropy(g) == 0.0 for g in regulars)

    # Spectral block count recovers a strongly planted K=4 partition.
    planted = Sbm(200, 4, edge_probs=tuple(map(tuple, np.full((4, 4), 0.01) + np.eye(4) * 0.49)))
    hits = sum(
        estimate_block_count(
            sample_graph(planted, np.random.default_rng(derive_seed(SUITE_SEED, 3, s))),
            8) == 4
        for s in range(100))
    block_ok = hits >= 95

    _report(6, tri_ok and diam_ok and entropy_ok and block_ok,
            f"triangles {'ok' if tri_ok else 'MISMATCH'}, "
            f"diameter {'ok' if diam_ok else 'MISMATCH'}, "
            f"regular entropy {'ok' if entropy_ok else 'NONZERO'}, "
            f"planted K=4 recovered {hits}/100 (need >= 95)")


def test_criterion_7_statistical_invariants():
    # KDE evidence integrates to 1 +- 1e-3.
    values = np.random.default_rng(SUITE_SEED + 4).normal(1.0, 2.0, size=500)
    density = estimate_density(
        FeatureSamples(FeatureKind("degree_entropy"), values))
    h = density.bandwidth
    xs = np.linspace(values.min() - 6 * h, values.max() + 6 * h, 4001)
    integral = float(np.trapezoid([evidence(density, x) for x in xs], xs))
    kde_ok = abs(integral - 1.0) < 1e-3

    # Discrete evidence is strictly positive, seen or unseen.
    pmf = estimate_density(
        FeatureSamples(FeatureKind("diameter"), np.array([2.0, 3.0, 3.0])))
    disc_ok = all(evidence(pmf, x) > 0 for x in (2, 3, 17))

    # Self-comparison under a shared seed stream: Bayes factor exactly 1.
    spec = ErdosRenyi(30, PointPrior(0.25))
    data = generate_er(30, 0.25, np.random.default_rng(SUITE_SEED + 5))
    report = compare_models(data, spec, spec,
                            [FeatureKind("triangle_count")],
                            LossKind("quadratic"), n_samples=60,
                            master_seed=SUITE_SEED + 6)
    bf_ok = report.features[0].bayes_factor == 1.0

    # Combined loss ratio: invariant to common per-feature rescaling.
    pairs = [(0.7, 0.2), (5.0, 4.0), (0.03, 0.09)]
    base = combined_loss_ratio(pairs)
    rescale_ok = True
    for idx, c in ((0, 123.0), (1, 1e-9), (2, 42.5)):
        scaled = list(pairs)
        scaled[idx] = (pairs[idx][0] * c, pairs[idx][1] * c)
        rescale_ok &= abs(combined_loss_ratio(scaled) - base) <= 1e-12

    # Consensus merge: identity and equal-weight cases exact to 1e-12.
    draws = np.array([0.4, 1.2, -0.3, 0.9])
    identity_ok = bool(np.all(np.abs(consensus_merge([draws]) - draws) <= 1e-12))
    shifted = draws + 2.0  # equal sample variance
    mean_ok = bool(np.all(np.abs(consensus_merge([draws, shifted])
                                 - (draws + shifted) / 2) <= 1e-12))

    ok = kde_ok and disc_ok and bf_ok and rescale_ok and identity_ok and mean_ok
    _report(7, ok,
            f"KDE integral {integral:.5f}, discrete evidence positive "
            f"{disc_ok}, shared-seed BF==1 {bf_ok}, rescale invariance "
            f"{rescale_ok}, consensus identity/mean {identity_ok}/{mean_ok}")


def test_criterion_8_cli_determinism_across_threads(tmp_path):
    spec1 = tmp_path / "m1.json"
    spec1.write_text(json.dumps({"type": "er", "n": 30, "p": {"point": 0.2}}))
    spec2 = tmp_path / "m2.json"
    spec2.write_text(json.dumps(
        {"type": "sbm", "n": 30, "k": 3, "p_in": 0.5, "p_out": 0.05}))
    gen_dir = tmp_path / "data"
    assert cli_main(["generate", "--model", str(spec2), "--samples", "1",
                     "--seed", "5", "--out", str(gen_dir)]) == 0
    data = gen_dir / "sample_00000.tsv"

    study = tmp_path / "study.json"
    study.write_text(json.dumps({
        "n_samples": 20,
        "seed": 13,
        "candidates": [
            {"id": "alpha", "spec": {"type": "powerlaw", "n": 50,
                                     "alpha": {"grid": {"values": [2.9, 3.1]}},
                                     "d_min": 1}},
            {"id": "k", "spec": {"type": "sbm", "n": 50,
                                 "k": {"grid": {"values": [2, 4]}},
                                 "p_in": 0.4, "p_out": 0.05}},
        ],
        "windows": [{"param": "alpha", "lo": 2.9, "hi": 3.1},
                    {"param": "k", "lo": 4, "hi": 4}],
        "rows": [{"data": {"id": "k",
                           "spec": {"type": "sbm", "n": 50, "k": 4,
                                    "p_in": 0.4, "p_out": 0.05}},
                  "features": ["block_count", "degree_entropy"],
                  "losses": ["quadratic"]}],
    }))

    compare_outputs = []
    simulate_outputs = []
    for threads in (1, 4, 8):
        rpt = tmp_path / f"report_{threads}.json"
        code = cli_main(["compare", "--data", str(data), "--model", str(spec1),
                         "--model2", str(spec2),
                         "--features", "triangle_count,degree_entropy",
                         "--loss", "quadratic", "--samples", "40",
                         "--seed", "21", "--threads", str(threads),
                         "--out", str(rpt)])
        assert code == 0
        compare_outputs.append(rpt.read_bytes())

        csv = tmp_path / f"study_{threads}.csv"
        code = cli_main(["simulate", "--config", str(study),
                         "--threads", str(threads), "--out", str(csv)])
        assert code == 0
        simulate_outputs.append(csv.read_bytes())

    cmp_ok = compare_outputs[0] == compare_outputs[1] == compare_outputs[2]
    sim_ok = simulate_outputs[0] == simulate_outputs[1] == simulate_outputs[2]
    _report(8, cmp_ok and sim_ok,
            f"byte-identical across --threads 1/4/8: compare {cmp_ok}, "
            f"simulate {sim_ok}")
