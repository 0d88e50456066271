"""netselect: simulation-based selection between random-network models.

Random-network models (Erdos-Renyi, stochastic block models, power-law degree
models, log-linear concordance models) are compared on scalar graph features:
prior-predictive ensembles give each model a feature distribution, the
observed feature's evidence under each model gives a Bayes factor, and
expected-loss ratios penalize models whose simulated features sit far from
the observation. The ``netselect`` CLI wraps the library in five workflows:
generate, features, compare, elicit and simulate.
"""

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
from .graph import (
    Graph,
    build_graph,
    connected_components,
    degree_sequence,
    induced_subgraph,
    read_edge_list,
    shortest_path_distances,
    toggle_edge,
    write_edge_list,
)
from .generators import (
    DirichletMembership,
    EdgeCountTerm,
    ErdosRenyi,
    GridPrior,
    IndividualEdgeTerm,
    LogLinear,
    PointPrior,
    PowerLaw,
    Sbm,
    DegreeCountTerm,
    TriangleCountTerm,
    UniformPrior,
    equal_blocks,
    generate_er,
    generate_from_degrees,
    generate_sbm,
    mh_loglinear_sample,
    model_spec_to_json,
    parse_model_spec,
    parse_prior,
    prior_to_json,
    sample_graph,
    sample_parameter,
    sample_powerlaw_degrees,
)
from .features import (
    BLOCK_COUNT_METHOD,
    FeatureKind,
    count_triangles,
    degree_entropy,
    density_and_clustering,
    diameter,
    estimate_block_count,
    extract_feature,
    fit_power_law_mle,
    power_law_mle,
)
from .inference import (
    ComparisonReport,
    Decision,
    DiscretePmf,
    FeatureComparison,
    FeatureSamples,
    Kde,
    LossKind,
    ParamPosterior,
    bayes_factor,
    combined_loss_ratio,
    compare_models,
    consensus_merge,
    decide,
    estimate_density,
    evidence,
    expected_loss,
    param_posterior,
    pool_posteriors,
    posterior_model_probs,
    prior_predictive,
    range_probability,
    report_features_csv,
    report_from_json,
    report_to_json,
    shard_cells,
    silverman_bandwidth,
    simulate_feature_matrices,
    simulate_feature_matrix,
)
from .seeds import derive_seed, spawn_rng
from .study import (
    Candidate,
    StudyConfig,
    StudyRow,
    StudyRowResult,
    Window,
    parse_study_config,
    run_study,
    run_study_row,
    study_config_to_json,
    study_results_csv,
    study_results_json,
)

__version__ = "0.1.0"
