"""Core statistical model: domain types, likelihoods, objective, prediction.

Three factor matrices tie two observation channels together. The grade of
learner j on question i is Bernoulli with success probability
``inverse_logit(tau * (w_i . c_j + mu_i))``, evaluated only over the
observed entries. The count of word v in the text of question i is Poisson
with rate ``w_i . t_v``, floored at a small epsilon. The fit objective adds
both negative log-likelihoods to an l1 penalty on the question-concept
weights W and ridge penalties on the knowledge profiles C and the word
profiles T. The per-question difficulty mu rides along as an extra column
of W during optimization but is neither penalized nor sign-constrained.

Each channel's formulas are written once: ``bernoulli_nll``/``bernoulli_slope``
and ``poisson_nll``/``poisson_slope`` give value and derivative, and the
objective, held-out scoring and every subproblem in ``solvers`` call them.

All values here are immutable once constructed and safe to share across
threads; every operation is a pure function of its inputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError

__all__ = [
    "GradedResponseSet",
    "WordCountMatrix",
    "FactorState",
    "HyperParams",
    "FitReport",
    "inverse_logit",
    "bernoulli_nll",
    "bernoulli_slope",
    "poisson_nll",
    "poisson_slope",
    "observed_slacks",
    "objective",
    "predict_response_prob",
]


def _readonly(arr):
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


class GradedResponseSet:
    """Sparse binary grades over an observed subset of the question/learner grid.

    Entries are (question index, learner index, grade) triples with grades in
    {0, 1}. Pairs absent from the entry list are unobserved, not incorrect.
    ``cells`` holds each entry's row-major flat index into the question x
    learner grid, ``question_idx * num_learners + learner_idx``.
    """

    def __init__(self, num_questions, num_learners, entries):
        if num_questions < 1 or num_learners < 1:
            raise ValidationError("num_questions and num_learners must be >= 1")
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValidationError("entries must be (question, learner, grade) triples")
        if arr.shape[0] == 0:
            raise ValidationError("at least one observed entry is required")
        if not np.all(arr == np.floor(arr)):
            raise ValidationError("entry indices and grades must be integers")
        arr = arr.astype(np.int64)
        qi, lj, y = arr[:, 0], arr[:, 1], arr[:, 2]
        if qi.min() < 0 or qi.max() >= num_questions:
            raise ValidationError("question index out of range")
        if lj.min() < 0 or lj.max() >= num_learners:
            raise ValidationError("learner index out of range")
        bad = ~np.isin(y, (0, 1))
        if bad.any():
            raise ValidationError(f"grades must be 0 or 1, got {y[bad][0]}")
        cells = qi * num_learners + lj
        if np.unique(cells).size != cells.size:
            raise ValidationError("duplicate (question, learner) pair in entries")
        self.num_questions = int(num_questions)
        self.num_learners = int(num_learners)
        self.question_idx = qi
        self.learner_idx = lj
        self.grades = y
        self.cells = cells
        for a in (self.question_idx, self.learner_idx, self.grades, self.cells):
            a.setflags(write=False)

    @property
    def num_observed(self):
        return self.grades.size

    @property
    def entries(self):
        """All observed entries as a list of (i, j, y) int tuples."""
        return self.triples()

    def triples(self, indices=None):
        """Observed entries, optionally restricted to the given entry indices."""
        if indices is None:
            sel = slice(None)
        else:
            sel = np.asarray(indices, dtype=np.int64)
        return [
            (int(i), int(j), int(y))
            for i, j, y in zip(
                self.question_idx[sel], self.learner_idx[sel], self.grades[sel]
            )
        ]

    def subset(self, indices):
        """New response set over the same grid keeping only the given entries."""
        sel = np.asarray(indices, dtype=np.int64)
        stacked = np.stack(
            [self.question_idx[sel], self.learner_idx[sel], self.grades[sel]], axis=1
        )
        return GradedResponseSet(self.num_questions, self.num_learners, stacked)


class WordCountMatrix:
    """Bag-of-words counts per question over an ordered vocabulary."""

    def __init__(self, num_questions, vocabulary, counts):
        if num_questions < 1:
            raise ValidationError("num_questions must be >= 1")
        vocab = tuple(vocabulary)
        if any(not isinstance(w, str) or not w for w in vocab):
            raise ValidationError("vocabulary words must be nonempty strings")
        if len(set(vocab)) != len(vocab):
            raise ValidationError("vocabulary words must be unique")
        arr = np.asarray(counts)
        if arr.shape != (num_questions, len(vocab)):
            raise DimensionMismatchError(
                "counts", (num_questions, len(vocab)), arr.shape
            )
        if arr.size and not np.all(arr == np.floor(arr)):
            raise ValidationError("counts must be integers")
        arr = arr.astype(np.int64)
        if arr.size and arr.min() < 0:
            raise ValidationError("counts must be nonnegative")
        arr.setflags(write=False)
        self.num_questions = int(num_questions)
        self.vocabulary = vocab
        self.counts = arr

    @property
    def num_words(self):
        return len(self.vocabulary)


class FactorState:
    """The four estimated factors.

    W (questions x concepts) and T (concepts x words) are entrywise
    nonnegative; mu (per-question difficulty) and C (concepts x learners)
    are unconstrained in sign.
    """

    def __init__(self, W, mu, C, T):
        W = _readonly(W)
        mu = _readonly(mu)
        C = _readonly(C)
        T = _readonly(T)
        if W.ndim != 2 or W.shape[1] < 1:
            raise ValidationError("W must be a Q x K matrix with K >= 1")
        Q, K = W.shape
        if mu.shape != (Q,):
            raise DimensionMismatchError("questions", Q, mu.shape)
        if C.ndim != 2 or C.shape[0] != K:
            raise DimensionMismatchError("concepts", K, C.shape)
        if T.ndim != 2 or T.shape[0] != K:
            raise DimensionMismatchError("concepts", K, T.shape)
        if W.size and W.min() < 0:
            raise ValidationError("W must be entrywise nonnegative")
        if T.size and T.min() < 0:
            raise ValidationError("T must be entrywise nonnegative")
        self.W, self.mu, self.C, self.T = W, mu, C, T

    @property
    def num_questions(self):
        return self.W.shape[0]

    @property
    def num_concepts(self):
        return self.W.shape[1]

    @property
    def num_learners(self):
        return self.C.shape[1]

    @property
    def num_words(self):
        return self.T.shape[1]

    def permuted(self, order):
        """Relabel concepts: new concept k is old concept order[k]."""
        order = np.asarray(order, dtype=np.int64)
        if sorted(order.tolist()) != list(range(self.num_concepts)):
            raise ValidationError("order must be a permutation of the concept indices")
        return FactorState(
            self.W[:, order], self.mu, self.C[order, :], self.T[order, :]
        )


@dataclass(frozen=True)
class HyperParams:
    """Regularization weights, precision, rate floor, and the concept count."""

    lam: float
    gamma: float
    eta: float
    tau: float
    num_concepts: int
    epsilon: float = 1e-6

    def __post_init__(self):
        for name in ("lam", "gamma", "eta", "tau", "epsilon"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be > 0")
        if not (isinstance(self.num_concepts, int) and self.num_concepts >= 1):
            raise ValidationError("num_concepts must be an integer >= 1")


@dataclass(frozen=True)
class FitReport:
    """Objective value after each outer sweep plus convergence bookkeeping."""

    objective_trace: tuple
    converged: bool
    outer_iterations: int
    wall_time: float

    def __post_init__(self):
        object.__setattr__(
            self, "objective_trace", tuple(float(v) for v in self.objective_trace)
        )
        if len(self.objective_trace) != self.outer_iterations:
            raise ValidationError("objective_trace must have one value per iteration")
        if self.wall_time < 0:
            raise ValidationError("wall_time must be >= 0")


def inverse_logit(x):
    """Logistic map 1 / (1 + exp(-x)).

    With e = exp(-|x|) it is 1 / (1 + e) for x >= 0 and e / (1 + e) below,
    so exp never sees a positive argument and cannot overflow; safe well past
    |x| = 700. NaN in gives NaN out. Both branches are computed for the whole
    array and picked with ``np.where``, which keeps every call on numpy's
    vectorised ``exp`` loop instead of gathering through boolean masks.
    """
    arr = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(out) if out.ndim == 0 else out


def bernoulli_nll(y, z, tau):
    """Negative log-likelihood of grade y given slack z at precision tau.

    softplus(-tau*z) + (1 - y)*tau*z, with the softplus written as
    max(-tau*z, 0) + log1p(exp(-|tau*z|)): exp never sees a positive
    argument, and numpy runs ``exp`` and ``log1p`` on its vectorised loops,
    where its ``logaddexp`` runs a scalar one.
    """
    if not tau > 0:
        raise ValidationError("tau must be > 0")
    tz = tau * np.asarray(z, dtype=float)
    val = (np.maximum(-tz, 0.0) + np.log1p(np.exp(-np.abs(tz)))
           + (1.0 - np.asarray(y, dtype=float)) * tz)
    return val if isinstance(val, np.ndarray) else float(val)


def bernoulli_slope(y, z, tau):
    """Derivative of ``bernoulli_nll`` in z: the tau-scaled logistic residual."""
    val = tau * (inverse_logit(tau * np.asarray(z, dtype=float)) - y)
    return val if isinstance(val, np.ndarray) else float(val)


def _floored_rate(a_raw, epsilon):
    return np.maximum(np.asarray(a_raw, dtype=float), epsilon)


def poisson_nll(b, a_raw, epsilon=1e-6):
    """Poisson negative log-likelihood up to the data constant log(b!).

    The rate is floored at epsilon before use, so a zero or negative raw
    rate never produces infinities. The dropped log(b!) term does not
    affect minimization; values are comparable only within this package.
    """
    a = _floored_rate(a_raw, epsilon)
    val = a - np.asarray(b, dtype=float) * np.log(a)
    return val if isinstance(val, np.ndarray) else float(val)


def poisson_slope(b, a_raw, epsilon=1e-6):
    """Derivative of ``poisson_nll`` in the raw rate above the floor, 1 - b / a.

    The rate a is floored as in the value, so the slope is finite everywhere.
    """
    val = 1.0 - b / _floored_rate(a_raw, epsilon)
    return val if isinstance(val, np.ndarray) else float(val)


def _check_dims(responses, word_counts, state, params):
    if state.num_questions != responses.num_questions:
        raise DimensionMismatchError(
            "questions", responses.num_questions, state.num_questions
        )
    if state.num_learners != responses.num_learners:
        raise DimensionMismatchError(
            "learners", responses.num_learners, state.num_learners
        )
    if params.num_concepts != state.num_concepts:
        raise DimensionMismatchError("concepts", params.num_concepts, state.num_concepts)
    if word_counts.num_questions != responses.num_questions:
        raise DimensionMismatchError(
            "questions", responses.num_questions, word_counts.num_questions
        )
    if state.num_words != word_counts.num_words:
        raise DimensionMismatchError(
            "vocabulary", word_counts.num_words, state.num_words
        )


def observed_slacks(state, question_idx, learner_idx):
    """Slacks w_i . c_j + mu_i of the given (question, learner) pairs."""
    return (
        np.einsum("mk,km->m", state.W[question_idx], state.C[:, learner_idx])
        + state.mu[question_idx]
    )


def _bernoulli_sum(responses, state, tau):
    z = observed_slacks(state, responses.question_idx, responses.learner_idx)
    return float(np.sum(bernoulli_nll(responses.grades, z, tau)))


def _penalties(state, params):
    return (
        params.lam * float(np.sum(np.abs(state.W)))
        + 0.5 * params.gamma * float(np.sum(state.C**2))
        + 0.5 * params.eta * float(np.sum(state.T**2))
    )


def objective(responses, word_counts, state, params):
    """The full fit objective at the given state.

    Bernoulli NLL over observed grades + Poisson NLL over every
    question/word cell + l1 on W + ridge on C and T. Unobserved grades are
    skipped entirely, never imputed. mu contributes to the slacks but not
    to the l1 term. Over a vocabulary of zero words (a K x 0 T) the Poisson
    and T terms are zero and this is the grades-only objective.
    """
    _check_dims(responses, word_counts, state, params)
    pois = float(np.sum(poisson_nll(word_counts.counts, state.W @ state.T,
                                    params.epsilon)))
    return _bernoulli_sum(responses, state, params.tau) + pois + _penalties(state, params)


def predict_response_prob(state, i, j, tau):
    """Probability of a correct response by learner j on question i."""
    if not 0 <= i < state.num_questions:
        raise ValidationError(
            f"question index {i} out of range [0, {state.num_questions})"
        )
    if not 0 <= j < state.num_learners:
        raise ValidationError(
            f"learner index {j} out of range [0, {state.num_learners})"
        )
    z = float(state.W[i] @ state.C[:, j] + state.mu[i])
    return inverse_logit(tau * z)
