"""Holdout scoring, hyperparameter grid search, and concept interpretation."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConceptfitError,
    DivergenceError,
    InfeasibleSplitError,
    ValidationError,
)
from .estimator import fit
from .model import (_check_count, _check_positive, _check_real, _entry_arrays,
                    bernoulli_nll, inverse_logit, observed_slacks)

__all__ = [
    "HoldoutSplit",
    "CvScore",
    "ConceptSummary",
    "AssociationGraph",
    "holdout_split",
    "mean_predicted_likelihood",
    "cross_validate",
    "top_keywords",
    "association_graph",
]


@dataclass(frozen=True)
class HoldoutSplit:
    """Disjoint sorted entry-index tuples partitioning the observed grades."""

    train_entries: tuple
    test_entries: tuple
    fraction: float
    seed: int


def _coverage_ok(responses, test_idx):
    q_total = np.bincount(responses.question_idx, minlength=responses.num_questions)
    l_total = np.bincount(responses.learner_idx, minlength=responses.num_learners)
    q_test = np.bincount(
        responses.question_idx[test_idx], minlength=responses.num_questions
    )
    l_test = np.bincount(
        responses.learner_idx[test_idx], minlength=responses.num_learners
    )
    q_ok = np.all((q_total - q_test >= 1) | (q_total == 0))
    l_ok = np.all((l_total - l_test >= 1) | (l_total == 0))
    return bool(q_ok and l_ok)


def holdout_split(responses, fraction, seed):
    """Deterministic uniform split of the observed entries.

    The test side gets round(fraction * observed) entries: a greedy pass over
    a seeded shuffle of the entries takes each one whose question and learner
    would still keep a training entry. Whenever the first round(fraction *
    observed) entries of the shuffle leave every question and learner one,
    the pass takes exactly those, a uniform draw. Raises ValidationError for
    a seed that is not an integer >= 0 and when the fraction rounds to no
    test entry at all, and InfeasibleSplitError when the pass cannot reach
    the target size.
    """
    fraction = _check_real("fraction", fraction, "in (0, 1)", lambda v: 0 < v < 1)
    total = responses.num_observed
    if total < 2:
        raise ValidationError("need at least two observed entries to split")
    n_test = int(round(fraction * total))
    if n_test == 0:
        raise ValidationError(
            f"holdout fraction {fraction} of {total} observed grades holds out "
            "no entry; use a larger fraction")
    order = np.random.default_rng(_check_count("seed", seed, 0)).permutation(total)
    qi, lj = responses.question_idx, responses.learner_idx
    # Python lists: the pass reads one entry at a time
    remaining_q = np.bincount(qi, minlength=responses.num_questions).tolist()
    remaining_l = np.bincount(lj, minlength=responses.num_learners).tolist()
    picked = []
    for idx, i, j in zip(order.tolist(), qi[order].tolist(), lj[order].tolist()):
        if len(picked) == n_test:
            break
        if remaining_q[i] >= 2 and remaining_l[j] >= 2:
            picked.append(idx)
            remaining_q[i] -= 1
            remaining_l[j] -= 1
    if len(picked) < n_test:
        raise InfeasibleSplitError(
            f"could only hold out {len(picked)} of {n_test} entries without "
            "starving a question or learner; try a smaller fraction"
        )
    test = np.array(picked)
    keep = np.ones(total, dtype=bool)
    keep[test] = False
    return HoldoutSplit(tuple(np.flatnonzero(keep).tolist()),
                        tuple(np.sort(test).tolist()), float(fraction), int(seed))


def _mean_likelihood(state, qi, lj, y, tau, log=False):
    """Mean predicted likelihood of the grades y at index arrays qi and lj."""
    z = observed_slacks(state, qi, lj)
    if log:
        return -float(np.mean(bernoulli_nll(y, z, tau)))
    p = inverse_logit(tau * z)
    return float(np.mean(np.where(y == 1, p, 1.0 - p)))


def mean_predicted_likelihood(state, test_entries, tau, log=False):
    """Mean probability the model assigns to the held-out grades.

    Each entry (i, j, y) contributes p if y == 1 else 1 - p, with p the
    predicted correct-response probability. ``log=True`` switches to the
    mean log-likelihood, -bernoulli_nll, finite even where 1 - p underflows.
    Both raise ValidationError for a tau that is not finite and > 0, and for
    entries that are not triples of integers with a grade of 0 or 1 inside
    the state's question x learner grid.
    """
    _check_positive("tau", tau)
    qi, lj, y = _entry_arrays(test_entries, state.num_questions, state.num_learners,
                              "test entry")
    return _mean_likelihood(state, qi, lj, y, tau, log)


@dataclass(frozen=True)
class CvScore:
    """One grid point's outcome; score is None when the fit diverged."""

    params: object
    score: object
    converged: bool


def _make_folds(responses, folds_or_fraction, seed):
    """(train, test) entry-index arrays of the holdout or of each fold."""
    if isinstance(folds_or_fraction, (bool, np.bool_)):
        raise ValidationError("folds_or_fraction must be a fraction or a fold count")
    if isinstance(folds_or_fraction, (float, np.floating)):
        split = holdout_split(responses, float(folds_or_fraction), seed)
        return [(np.array(split.train_entries), np.array(split.test_entries))]
    if isinstance(folds_or_fraction, (int, np.integer)):
        k = int(folds_or_fraction)
        total = responses.num_observed
        if k < 2 or k > total:
            raise ValidationError("fold count must be in [2, num observed entries]")
        order = np.random.default_rng(seed).permutation(total)
        folds = []
        for f in range(k):
            test = np.sort(order[f::k])
            if not _coverage_ok(responses, test):
                raise InfeasibleSplitError(f"fold {f + 1} of {k} would starve a "
                                           "question or learner; try fewer folds")
            keep = np.ones(total, dtype=bool)
            keep[test] = False
            train = np.nonzero(keep)[0]
            folds.append((train, test))
        return folds
    raise ValidationError("folds_or_fraction must be a float fraction or an int >= 2")


def _score_point(job):
    """Fit and score one grid point across all folds; None score on divergence."""
    responses, word_counts, params, config, folds = job
    scores = []
    converged = True
    for train_idx, test_idx in folds:
        try:
            state, report = fit(responses.subset(train_idx), word_counts, params, config)
        except DivergenceError:
            return None, False
        converged = converged and report.converged
        scores.append(_mean_likelihood(
            state, responses.question_idx[test_idx], responses.learner_idx[test_idx],
            responses.grades[test_idx], params.tau))
    return float(np.mean(scores)), converged


def cross_validate(responses, word_counts, grid, config, folds_or_fraction=0.2,
                   n_threads=1):
    """Score every grid point on held-out grades and pick the best.

    Every grid point fits from scratch on the training portion(s) defined
    by ``folds_or_fraction`` (a float for one random holdout, an int >= 2
    for k folds) and is scored by mean predicted likelihood. Ties are
    broken toward larger lam (sparser associations), then smaller tau, then
    grid order. With ``n_threads`` > 1 the grid points are fitted in that
    many spawned worker processes, with the same scores as a serial run.
    Returns (best params, full score table). Raises ValidationError unless
    ``n_threads`` is an integer >= 1, and InfeasibleSplitError when the
    holdout or any fold would leave a question or learner without a
    training entry.
    """
    _check_count("n_threads", n_threads, 1)
    grid = list(grid)
    if not grid:
        raise ValidationError("hyperparameter grid is empty")
    folds = _make_folds(responses, folds_or_fraction, config.rng_seed)
    jobs = [(responses, word_counts, params, config, folds) for params in grid]
    if n_threads > 1:
        # spawn, not fork: forking a process whose BLAS has started threads
        # can deadlock the child
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=n_threads, mp_context=spawn) as pool:
            outcomes = list(pool.map(_score_point, jobs))
    else:
        outcomes = [_score_point(job) for job in jobs]
    table = [
        CvScore(params, score, converged)
        for params, (score, converged) in zip(grid, outcomes)
    ]
    scored = [(row, idx) for idx, row in enumerate(table) if row.score is not None]
    if not scored:
        raise ConceptfitError("every grid point diverged; nothing to select")
    best_row, _ = min(
        scored, key=lambda ri: (-ri[0].score, -ri[0].params.lam, ri[0].params.tau, ri[1])
    )
    return best_row.params, table


@dataclass(frozen=True)
class ConceptSummary:
    """Top keywords attached to one concept."""

    concept_index: int
    keywords: tuple


def top_keywords(state, vocabulary, k_words):
    """Per concept, the k_words vocabulary entries with the largest weight.

    Sorted by descending weight (ties by vocabulary order); zero-weight
    words are never listed, so a concept's list may be shorter than
    k_words or empty. Raises ValidationError unless k_words is an integer
    >= 1 (a bool is not one).
    """
    _check_count("k_words", k_words, 1)
    vocabulary = list(vocabulary)
    if len(vocabulary) != state.num_words:
        raise ValidationError("vocabulary length does not match the state")
    summaries = []
    for k in range(state.num_concepts):
        row = state.T[k]
        order = np.argsort(-row, kind="stable")
        kws = []
        for v in order:
            if len(kws) == k_words or row[v] <= 0:
                break
            kws.append((vocabulary[v], float(row[v])))
        summaries.append(ConceptSummary(k, tuple(kws)))
    return summaries


@dataclass(frozen=True)
class AssociationGraph:
    """Bipartite question/concept graph with difficulty-annotated questions."""

    question_nodes: tuple  # (question index, difficulty)
    concept_nodes: tuple  # concept indices
    edges: tuple  # (question index, concept index, weight)


def association_graph(state, weight_floor=None):
    """Edges (i, k) wherever the association weight exceeds the floor.

    With ``weight_floor=None`` the floor defaults to 5% of the mean positive
    association weight. That prunes noise edges while staying meaningful for
    heavy-tailed weights, where a fraction of the largest single weight would
    silence entire questions. Raises ValidationError for a floor that is
    not finite and >= 0.
    """
    if weight_floor is None:
        positive = state.W[state.W > 0]
        weight_floor = 0.05 * float(positive.mean()) if positive.size else 0.0
    weight_floor = _check_real("weight_floor", weight_floor, "finite and >= 0",
                               lambda v: v >= 0)
    pairs = np.argwhere(state.W > weight_floor)
    edges = tuple(
        (int(i), int(k), float(state.W[i, k])) for i, k in pairs
    )
    questions = tuple(
        (i, float(state.mu[i])) for i in range(state.num_questions)
    )
    return AssociationGraph(questions, tuple(range(state.num_concepts)), edges)
