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
    read_edge_list,
    shortest_path_distances,
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
    diameter,
    estimate_block_count,
    extract_feature,
    global_clustering,
    link_density,
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
    prior_predictive,
    range_probability,
    report_features_csv,
    report_from_json,
    report_to_json,
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
    study_results_csv,
    study_results_json,
)

__version__ = "0.1.0"
