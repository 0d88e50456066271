"""Every JSON writer's output reads back to an equal object: model specs (all
four families, with memberships, edge_probs matrices, all four concordance
terms and burn_in/thin), priors, feature kinds and losses; and the study-config
reader reads back what the tests' ``study_config_to_json`` writes. Each
object also passes through ``json.dumps``/``json.loads``, as a file would."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from netselect import (
    Candidate,
    DegreeCountTerm,
    DirichletMembership,
    EdgeCountTerm,
    ErdosRenyi,
    FeatureKind,
    GridPrior,
    IndividualEdgeTerm,
    LogLinear,
    LossKind,
    PointPrior,
    PowerLaw,
    Sbm,
    StudyConfig,
    StudyRow,
    TriangleCountTerm,
    UniformPrior,
    Window,
    model_spec_to_json,
    parse_model_spec,
    parse_prior,
    parse_study_config,
    prior_to_json,
)
from conftest import study_config_to_json

TOKENS = ["degree_entropy", "power_law_exponent", "block_count", "triangle_count",
          "diameter", "link_density", "global_clustering"]


def through_a_file(obj):
    return json.loads(json.dumps(obj))


def finite(lo=-1e6, hi=1e6):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def priors(draw, lo=0.0, hi=1.0):
    """A point, uniform or grid prior with support in [lo, hi]."""
    kind = draw(st.sampled_from(["point", "uniform", "grid"]))
    if kind == "point":
        return PointPrior(draw(finite(lo, hi)))
    if kind == "uniform":
        a, b = sorted(draw(st.lists(finite(lo, hi), min_size=2, max_size=2, unique=True)))
        return UniformPrior(a, b)
    values = tuple(draw(st.lists(finite(lo, hi), min_size=1, max_size=4)))
    weights = draw(st.one_of(st.just(()), st.lists(finite(0.01, 10.0), min_size=len(values),
                                                   max_size=len(values)).map(tuple)))
    return GridPrior(values, weights)


@st.composite
def terms(draw, n):
    kind = draw(st.sampled_from(["edge_count", "triangle_count", "degree_count",
                                 "individual_edge"]))
    if kind == "edge_count":
        term = EdgeCountTerm()
    elif kind == "triangle_count":
        term = TriangleCountTerm()
    elif kind == "degree_count":
        term = DegreeCountTerm(draw(st.integers(0, n)))
    else:
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        term = IndividualEdgeTerm(u, v)
    return draw(finite(-5, 5)), term


@st.composite
def specs(draw):
    family = draw(st.sampled_from(["er", "sbm", "powerlaw", "loglinear"]))
    n = draw(st.integers(2, 12))
    if family == "er":
        return ErdosRenyi(n, draw(priors()))
    if family == "powerlaw":
        return PowerLaw(n, draw(priors(2.01, 6.0)), d_min=draw(st.integers(1, 4)))
    if family == "loglinear":
        return LogLinear(n, draw(finite(-3, 3)),
                         tuple(draw(st.lists(terms(n), min_size=1, max_size=4))),
                         burn_in=draw(st.none() | st.integers(0, 500)),
                         thin=draw(st.none() | st.integers(1, 50)))
    k = draw(st.integers(1, n))
    if draw(st.booleans()):  # a full symmetric matrix needs a fixed k
        rows = draw(st.lists(st.lists(finite(0, 1), min_size=k, max_size=k),
                             min_size=k, max_size=k))
        shape = dict(edge_probs=tuple(tuple(rows[max(i, j)][min(i, j)] for j in range(k))
                                      for i in range(k)))
    else:
        if draw(st.booleans()):
            k = GridPrior(tuple(float(x) for x in draw(st.lists(st.integers(1, n),
                                                                 min_size=1, max_size=3))))
        shape = dict(p_in=draw(finite(0, 1)), p_out=draw(finite(0, 1)))
    k_least = k if isinstance(k, int) else int(min(k.values))
    membership = draw(st.one_of(
        st.none(),
        st.builds(DirichletMembership, finite(0.01, 10)),
        st.lists(st.integers(0, k_least - 1), min_size=n, max_size=n).map(tuple)))
    return Sbm(n, k, membership=membership, **shape)


@settings(max_examples=300, deadline=None)
@given(specs())
def test_a_written_spec_reads_back_equal(spec):
    assert parse_model_spec(through_a_file(model_spec_to_json(spec))) == spec


@settings(max_examples=200, deadline=None)
@given(priors(-1e6, 1e6))
def test_a_written_prior_reads_back_equal(prior):
    assert parse_prior(through_a_file(prior_to_json(prior))) == prior


feature_kinds = st.builds(FeatureKind, st.sampled_from(TOKENS), st.integers(1, 9),
                          st.integers(1, 40))
losses = st.builds(LossKind, st.sampled_from(["quadratic", "absolute", "zero_one"]),
                   finite(0, 10))


@settings(max_examples=100, deadline=None)
@given(feature_kinds, losses)
def test_a_written_feature_kind_and_loss_read_back_equal(kind, loss):
    assert FeatureKind.from_json(through_a_file(kind.to_json())) == kind
    assert LossKind.from_json(through_a_file(loss.to_json())) == loss


@st.composite
def study_configs(draw):
    ids = draw(st.lists(st.text("abcxyz", min_size=1, max_size=4), min_size=2, max_size=2,
                        unique=True))
    windows = draw(st.lists(st.builds(lambda p, a, b: Window(p, min(a, b), max(a, b)),
                                      st.sampled_from(["p", "k", "alpha"]), finite(), finite()),
                            max_size=3, unique_by=lambda w: w.label))  # a label is a column
    rows = draw(st.lists(st.builds(
        lambda data_id, spec, kinds, row_losses: StudyRow(data_id, spec, tuple(kinds),
                                                          tuple(row_losses)),
        st.sampled_from(ids), specs(),
        st.lists(feature_kinds, min_size=1, max_size=3, unique=True),
        st.lists(losses, min_size=1, max_size=2)), min_size=1, max_size=2))
    return StudyConfig(tuple(Candidate(i, draw(specs())) for i in ids), tuple(windows),
                       tuple(rows), n_samples=draw(st.integers(1, 500)),
                       master_seed=draw(st.integers(0, 2 ** 64)))


@settings(max_examples=100, deadline=None)
@given(study_configs())
def test_a_written_study_config_reads_back_equal(config):
    assert parse_study_config(through_a_file(study_config_to_json(config))) == config
