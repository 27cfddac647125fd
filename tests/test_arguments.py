"""Every public count, seed, real number, name list and config keeps one rule per kind.

A count is an integer at or above its least value, a seed an integer >= 0,
a positive number finite and > 0, and a fraction or floor a finite real
number in its range. A bool is none of these, and numpy integers and floats
pass as their Python counterparts. A list of names is distinct nonempty
strings, never a bare string; stop words and a document's terms may repeat.
A fit's config is None or a ``FitConfig``, whose ``inner`` is a
``FistaConfig``.
"""

import math
import re

import numpy as np
import pytest

from conceptfit import (
    Corpus,
    FactorState,
    FistaConfig,
    FitConfig,
    FitReport,
    GradedResponseSet,
    HyperParams,
    ModelArchive,
    StopWordList,
    ValidationError,
    WordCountMatrix,
    association_graph,
    bernoulli_nll,
    build_vocabulary,
    c_column_subproblem,
    cross_validate,
    fit,
    fit_responses_only,
    holdout_split,
    initialize,
    mean_predicted_likelihood,
    predict_response_prob,
    simulate,
    top_keywords,
)

RESPONSES = GradedResponseSet(
    3, 4, [(i, j, (i + j) % 2) for i in range(3) for j in range(4)])
STATE = FactorState(np.ones((3, 2)), np.zeros(3), np.ones((2, 4)), np.ones((2, 2)))
CORPUS = Corpus((("q1", "alpha beta alpha"), ("q2", "beta gamma")))
HYPER = dict(lam=0.3, gamma=0.3, eta=0.3, tau=2.0, num_concepts=2, epsilon=1e-6)


def hyper(name):
    return lambda v: HyperParams(**{**HYPER, name: v})


def cv_threads(n_threads):
    no_words = WordCountMatrix(3, (), np.zeros((3, 0)))
    config = FitConfig(max_outer_iterations=1)
    cross_validate(RESPONSES, no_words, [HyperParams(**HYPER)], config, 0.25, n_threads)


# (where, the name its message gives, kind, call with the value, a numpy value it takes)
SITES = [
    ("FistaConfig", "max_iterations", "count",
     lambda v: FistaConfig(max_iterations=v), np.int64(3)),
    ("FitConfig", "max_outer_iterations", "count",
     lambda v: FitConfig(max_outer_iterations=v), np.int64(0)),
    ("HyperParams", "num_concepts", "count", hyper("num_concepts"), np.int64(3)),
    ("GradedResponseSet", "num_questions", "count",
     lambda v: GradedResponseSet(v, 2, [(0, 0, 1)]), np.int64(2)),
    ("GradedResponseSet", "num_learners", "count",
     lambda v: GradedResponseSet(2, v, [(0, 0, 1)]), np.int64(2)),
    ("WordCountMatrix", "num_questions", "count",
     lambda v: WordCountMatrix(v, ["a"], np.ones((2, 1))), np.int64(2)),
    ("initialize", "num_questions", "count",
     lambda v: initialize(v, 4, 5, 2, 0), np.int64(3)),
    ("initialize", "num_learners", "count",
     lambda v: initialize(3, v, 5, 2, 0), np.int64(4)),
    ("initialize", "num_words", "count",
     lambda v: initialize(3, 4, v, 2, 0), np.int64(0)),
    ("initialize", "num_concepts", "count",
     lambda v: initialize(3, 4, 5, v, 0), np.int64(2)),
    ("simulate", "num_questions", "count",
     lambda v: simulate(v, 5, 4, 2, 1, 1.0), np.int64(6)),
    ("simulate", "num_learners", "count",
     lambda v: simulate(6, v, 4, 2, 1, 1.0), np.int64(5)),
    ("simulate", "num_words", "count",
     lambda v: simulate(6, 5, v, 2, 1, 1.0), np.int64(4)),
    ("simulate", "num_concepts", "count",
     lambda v: simulate(6, 5, 4, v, 1, 1.0), np.int64(2)),
    ("simulate", "sparsity", "count",
     lambda v: simulate(6, 5, 4, 2, v, 1.0), np.int64(2)),
    ("cross_validate", "n_threads", "count", cv_threads, np.int64(1)),
    ("FitReport", "outer_iterations", "count",
     lambda v: FitReport((), False, v, 0.0), np.int64(0)),
    ("top_keywords", "k_words", "count",
     lambda v: top_keywords(STATE, ["a", "b"], v), np.int64(1)),
    ("build_vocabulary", "min_count", "count",
     lambda v: build_vocabulary(CORPUS, StopWordList(frozenset()), v), np.int64(2)),
    ("FitConfig", "rng_seed", "seed", lambda v: FitConfig(rng_seed=v), np.int64(7)),
    ("initialize", "rng_seed", "seed", lambda v: initialize(3, 4, 5, 2, v), np.int64(7)),
    ("holdout_split", "seed", "seed",
     lambda v: holdout_split(RESPONSES, 0.25, v), np.int64(7)),
    ("simulate", "seed", "seed",
     lambda v: simulate(6, 5, 4, 2, 1, 1.0, seed=v), np.int64(7)),
    ("HyperParams", "lam", "positive", hyper("lam"), np.float64(0.5)),
    ("HyperParams", "gamma", "positive", hyper("gamma"), np.float64(0.5)),
    ("HyperParams", "eta", "positive", hyper("eta"), np.float64(0.5)),
    ("HyperParams", "tau", "positive", hyper("tau"), np.float64(0.5)),
    ("HyperParams", "epsilon", "positive", hyper("epsilon"), np.float64(0.5)),
    ("FistaConfig", "relative_tolerance", "positive",
     lambda v: FistaConfig(relative_tolerance=v), np.float64(0.5)),
    ("FitConfig", "outer_relative_tolerance", "positive",
     lambda v: FitConfig(outer_relative_tolerance=v), np.float64(0.5)),
    ("bernoulli_nll", "tau", "positive", lambda v: bernoulli_nll(1, 0.5, v),
     np.float64(0.5)),
    ("predict_response_prob", "tau", "positive",
     lambda v: predict_response_prob(STATE, 0, 1, v), np.float64(0.5)),
    ("mean_predicted_likelihood", "tau", "positive",
     lambda v: mean_predicted_likelihood(STATE, [(0, 1, 1)], v), np.float64(0.5)),
    ("simulate", "tau", "positive", lambda v: simulate(6, 5, 4, 2, 1, v),
     np.float64(0.5)),
    ("c_column_subproblem", "tau", "positive",
     lambda v: c_column_subproblem([0.0, 1.0], np.ones((2, 1)), np.zeros(2), 0.4, v),
     np.float64(0.5)),
]

REJECTED = {
    "count": (True, 2.5),
    "seed": (-1, True),
    "positive": (0, math.nan, math.inf, True, "0.3", None, 10**400),
}


def site_id(site):
    return f"{site[0]}-{site[1]}"


@pytest.mark.parametrize("name, kind, call, value", [
    pytest.param(*site[1:4], bad, id=f"{site_id(site)}-{bad!r}")
    for site in SITES for bad in REJECTED[site[2]]
])
def test_a_value_outside_its_kind_is_rejected(name, kind, call, value):
    # True ran one sweep as max_outer_iterations, 2.5 made a 2-question
    # response set, a seed of -1 escaped from numpy as a ValueError, True
    # was stored as a FitReport's outer_iterations, a string or None for a
    # positive number escaped from math.isfinite as a TypeError, and 10**400
    # as an OverflowError
    message = (f"^{name} must be finite and > 0, got" if kind == "positive"
               else f"^{name} must be an integer >= {0 if kind == 'seed' else ''}")
    with pytest.raises(ValidationError, match=message):
        call(value)


@pytest.mark.parametrize("call, value", [site[3:] for site in SITES],
                         ids=[site_id(site) for site in SITES])
def test_a_numpy_number_is_taken(call, value):
    # HyperParams refused np.int64(3) as num_concepts
    call(value)


def test_a_numpy_count_is_stored_as_an_int():
    Y = GradedResponseSet(np.int64(2), np.int64(3), [(0, 0, 1)])
    assert type(Y.num_questions) is int and type(Y.num_learners) is int
    assert type(WordCountMatrix(np.int64(2), ["a"], np.ones((2, 1))).num_questions) is int


# (where, the name its message gives, the range its message gives, call with the
# value, a numpy value it takes)
RANGE_SITES = [
    ("holdout_split", "fraction", "in (0, 1)", lambda v: holdout_split(RESPONSES, v, 0),
     np.float64(0.25)),
    ("simulate", "missing_fraction", "in [0, 1)",
     lambda v: simulate(6, 5, 4, 2, 1, 1.0, missing_fraction=v), np.float64(0.2)),
    ("association_graph", "weight_floor", "finite and >= 0",
     lambda v: association_graph(STATE, v), np.float64(0.1)),
]


@pytest.mark.parametrize("name, rule, call, value", [
    pytest.param(*site[1:4], bad, id=f"{site_id(site)}-{bad!r}")
    for site in RANGE_SITES
    for bad in ("0.2", True, None, math.nan, math.inf, -1.0, 10**400)
    if not (bad is None and site[1] == "weight_floor")  # None asks for the default
])
def test_a_value_outside_its_range_or_no_real_number_is_rejected(name, rule, call,
                                                                 value):
    # a string escaped from the comparison as a TypeError, and True passed
    # association_graph as a floor of 1.0; an int too large for a float
    # escaped math.isfinite as an OverflowError
    message = re.escape(f"{name} must be {rule}, got")
    with pytest.raises(ValidationError, match=f"^{message}"):
        call(value)


@pytest.mark.parametrize("call, value", [site[3:] for site in RANGE_SITES],
                         ids=[site_id(site) for site in RANGE_SITES])
def test_a_numpy_real_in_range_is_taken(call, value):
    call(value)


def archive_with(**names):
    ids = dict(vocabulary=["a", "b"], question_ids=["q1", "q2", "q3"],
               learner_ids=["s1", "s2", "s3", "s4"])
    return ModelArchive(STATE, None, **{**ids, **names},
                        report=FitReport((), False, 0, 0.0))


# (where, the name its message gives, names that pass, call with the names)
NAME_SITES = [
    ("WordCountMatrix", "vocabulary", ["a", "b"],
     lambda v: WordCountMatrix(3, v, np.ones((3, 2)))),
    ("Corpus", "question_ids", ["q1", "q2"],
     lambda v: Corpus(tuple((q, "alpha beta") for q in v))),
    ("ModelArchive", "vocabulary", ["a", "b"], lambda v: archive_with(vocabulary=v)),
    ("ModelArchive", "question_ids", ["q1", "q2", "q3"],
     lambda v: archive_with(question_ids=v)),
    ("ModelArchive", "learner_ids", ["s1", "s2", "s3", "s4"],
     lambda v: archive_with(learner_ids=v)),
    ("top_keywords", "vocabulary", ["a", "b"], lambda v: top_keywords(STATE, v, 2)),
    ("StopWordList", "stop words", ["a", "b"], lambda v: StopWordList(v)),
    ("Corpus", "terms for 'q1'", ["x", "y"], lambda v: Corpus((("q1", v),))),
]
# sites whose names may repeat: stop words, and the terms of a document
REPEATABLE = {"stop words", "terms for 'q1'"}


def bad_names(site):
    """Each way ``site``'s good names can break the rule, by id."""
    where, name, good, _ = site
    bad = {} if name in REPEATABLE else {"repeated": good[:-1] + good[:1]}
    bad.update({"empty": good[:-1] + [""], "non-string": good[:-1] + [1]})
    if where != "Corpus":  # a document's bare string is its text
        bad["bare-string"] = "x" * len(good)
    if site_id(site) != "Corpus-question_ids":  # a corpus's ids come from its documents
        bad["number"] = 5
    return bad.items()


@pytest.mark.parametrize("name, call, value", [
    pytest.param(site[1], site[3], value, id=f"{site_id(site)}-{kind}")
    for site in NAME_SITES for kind, value in bad_names(site)
])
def test_a_list_of_names_outside_the_rule_is_rejected(name, call, value):
    # a repeated or empty id passed a model archive, a bare string of the
    # right length was split into one name per character, and a number as a
    # document's terms escaped as a TypeError
    with pytest.raises(ValidationError, match=f"^{name} "):
        call(value)


@pytest.mark.parametrize("call, value", [(site[3], site[2]) for site in NAME_SITES],
                         ids=[site_id(site) for site in NAME_SITES])
def test_distinct_nonempty_names_are_taken(call, value):
    call(value)


@pytest.mark.parametrize("call, value", [(site[3], site[2] + site[2][:1])
                                         for site in NAME_SITES if site[1] in REPEATABLE],
                         ids=[site_id(site) for site in NAME_SITES
                              if site[1] in REPEATABLE])
def test_stop_words_and_terms_may_repeat(call, value):
    call(value)


def test_a_bare_string_is_no_stop_word_list_and_no_vocabulary():
    # "the" was the stop words {'t', 'h', 'e'}, and "ab" the vocabulary ['a', 'b']
    with pytest.raises(ValidationError, match="^stop words must be a list of strings"):
        StopWordList("the")
    with pytest.raises(ValidationError, match="^vocabulary must be a list of strings"):
        top_keywords(STATE, "ab", 2)


NO_WORDS = WordCountMatrix(3, (), np.zeros((3, 0)))


@pytest.mark.parametrize("value", [None, "x", 5, {}, FistaConfig, FitConfig()],
                         ids=repr)
def test_an_inner_config_that_is_no_fista_config_is_rejected(value):
    # each was taken, and the fit then died with an AttributeError
    with pytest.raises(ValidationError, match="^inner must be a FistaConfig, got"):
        FitConfig(inner=value)


@pytest.mark.parametrize("fit_call", [
    lambda config: fit(RESPONSES, NO_WORDS, HyperParams(**HYPER), config),
    lambda config: fit_responses_only(RESPONSES, HyperParams(**HYPER), config),
], ids=["fit", "fit_responses_only"])
@pytest.mark.parametrize("value", [{}, 0, False, "", {"rng_seed": 3}, FistaConfig(),
                                   FitConfig], ids=repr)
def test_a_fit_config_that_is_no_fit_config_is_rejected(fit_call, value):
    # {}, 0, False and "" silently ran the default config, and a dict of
    # fields raised an AttributeError
    with pytest.raises(ValidationError, match="^config must be a FitConfig or None, got"):
        fit_call(value)
