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
from .model import bernoulli_nll, inverse_logit, observed_slacks

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
    """Disjoint entry-index lists partitioning the observed grades."""

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

    The test side gets round(fraction * observed) entries. A plain uniform
    draw is tried first; if it would leave some question or learner with no
    training entry, a greedy pass over the same shuffled order skips
    disqualifying picks instead. Raises InfeasibleSplitError when even the
    greedy pass cannot reach the target size.
    """
    if not 0 < fraction < 1:
        raise ValidationError("fraction must be in (0, 1)")
    total = responses.num_observed
    if total < 2:
        raise ValidationError("need at least two observed entries to split")
    n_test = int(round(fraction * total))
    rng = np.random.default_rng(seed)
    order = rng.permutation(total)

    test = order[:n_test]
    if _coverage_ok(responses, test):
        train = order[n_test:]
        return HoldoutSplit(
            tuple(sorted(int(k) for k in train)),
            tuple(sorted(int(k) for k in test)),
            float(fraction),
            int(seed),
        )

    remaining_q = np.bincount(
        responses.question_idx, minlength=responses.num_questions
    )
    remaining_l = np.bincount(
        responses.learner_idx, minlength=responses.num_learners
    )
    picked = []
    for idx in order:
        if len(picked) == n_test:
            break
        i = responses.question_idx[idx]
        j = responses.learner_idx[idx]
        if remaining_q[i] >= 2 and remaining_l[j] >= 2:
            picked.append(int(idx))
            remaining_q[i] -= 1
            remaining_l[j] -= 1
    if len(picked) < n_test:
        raise InfeasibleSplitError(
            f"could only hold out {len(picked)} of {n_test} entries without "
            "starving a question or learner; try a smaller fraction"
        )
    test_set = set(picked)
    train = [k for k in range(total) if k not in test_set]
    return HoldoutSplit(
        tuple(train), tuple(sorted(picked)), float(fraction), int(seed)
    )


def mean_predicted_likelihood(state, test_entries, tau, log=False):
    """Mean probability the model assigns to the held-out grades.

    Each entry (i, j, y) contributes p if y == 1 else 1 - p, with p the
    predicted correct-response probability. ``log=True`` switches to the
    mean log-likelihood, -bernoulli_nll, finite even where 1 - p underflows.
    """
    entries = list(test_entries)
    if not entries:
        raise ValidationError("test set is empty")
    arr = np.asarray(entries, dtype=np.int64)
    qi, lj, y = arr[:, 0], arr[:, 1], arr[:, 2]
    if qi.min() < 0 or qi.max() >= state.num_questions:
        raise ValidationError("test entry question index out of range")
    if lj.min() < 0 or lj.max() >= state.num_learners:
        raise ValidationError("test entry learner index out of range")
    z = observed_slacks(state, qi, lj)
    if log:
        return -float(np.mean(bernoulli_nll(y, z, tau)))
    p = inverse_logit(tau * z)
    return float(np.mean(np.where(y == 1, p, 1.0 - p)))


@dataclass(frozen=True)
class CvScore:
    """One grid point's outcome; score is None when the fit diverged."""

    params: object
    score: object
    converged: bool


def _make_folds(responses, folds_or_fraction, seed):
    if isinstance(folds_or_fraction, bool):
        raise ValidationError("folds_or_fraction must be a fraction or a fold count")
    if isinstance(folds_or_fraction, float):
        split = holdout_split(responses, folds_or_fraction, seed)
        return [(split.train_entries, responses.triples(split.test_entries))]
    if isinstance(folds_or_fraction, int):
        k = folds_or_fraction
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
            folds.append((tuple(int(v) for v in train), responses.triples(test)))
        return folds
    raise ValidationError("folds_or_fraction must be a float fraction or an int >= 2")


def _score_point(job):
    """Fit and score one grid point across all folds; None score on divergence."""
    responses, word_counts, params, config, folds = job
    scores = []
    converged = True
    for train_idx, test_triples in folds:
        try:
            state, report = fit(responses.subset(train_idx), word_counts, params, config)
        except DivergenceError:
            return None, False
        converged = converged and report.converged
        scores.append(mean_predicted_likelihood(state, test_triples, params.tau))
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
    Returns (best params, full score table). Raises InfeasibleSplitError
    when the holdout or any fold would leave a question or learner without
    a training entry.
    """
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
    """Top keywords (and optionally questions) attached to one concept."""

    concept_index: int
    keywords: tuple
    questions: tuple = ()


def top_keywords(state, vocabulary, k_words):
    """Per concept, the k_words vocabulary entries with the largest weight.

    Sorted by descending weight (ties by vocabulary order); zero-weight
    words are never listed, so a concept's list may be shorter than
    k_words or empty.
    """
    if k_words < 1:
        raise ValidationError("k_words must be >= 1")
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
    silence entire questions.
    """
    if weight_floor is None:
        positive = state.W[state.W > 0]
        weight_floor = 0.05 * float(positive.mean()) if positive.size else 0.0
    if weight_floor < 0:
        raise ValidationError("weight_floor must be >= 0")
    pairs = np.argwhere(state.W > weight_floor)
    edges = tuple(
        (int(i), int(k), float(state.W[i, k])) for i, k in pairs
    )
    questions = tuple(
        (i, float(state.mu[i])) for i in range(state.num_questions)
    )
    return AssociationGraph(questions, tuple(range(state.num_concepts)), edges)
