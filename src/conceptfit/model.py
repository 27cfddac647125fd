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

Each channel's formulas are written once, in the private helpers below.
The block builders in ``solvers`` call those helpers directly, so that one
pass gives a point's per-row values and its slopes from shared
intermediates. ``objective`` calls them too, through ``_objective_of``, the
kernel a fit forms once and evaluates after every sweep.
``bernoulli_nll`` and ``poisson_nll`` are the public per-cell kernels, for
held-out scoring and callers outside the fit.

The Bernoulli channel works on signed margins. With the signed precision
m = tau * (2y - 1), formed once per grade set, the margin u = m * z is the
log-odds of the observed grade, so the value is softplus(-u) = log1p(e) -
min(u, 0) with e = exp(-|u|), and the slope in z is -m * sigmoid(-u). One
formula serves both grades, exp never sees a positive argument, and no term
cancels another, where softplus(-tau * z) + (1 - y) * tau * z cancels two
terms near |tau * z| for y = 0 and tau * z < 0.

The Poisson channel's slope enters the solvers as the ratio r = b / a, a
the floored rate: the slope 1 - r multiplied into a factor is that factor's
constant column sums minus its product with r, which spares the solvers
the Q x V pass 1 - r per evaluation.

``objective`` and ``poisson_nll`` floor every cell's rate at epsilon. The
solvers' values floor every rate at the smallest normal float instead
(``solvers._RATE_FLOOR``). A cell with a count is then scored at its raw
rate, so a rate driven to 0 under a count is costly rather than flat, and
a cell with no count costs its raw rate, a linear value that matches the
unit slope the solvers use there. The two agree wherever every rate is at
least epsilon. Below it, a cell with no count costs less than epsilon below
the objective's value, and, for an epsilon of at most 1, a cell with a
count costs more. Their slopes keep the epsilon floor.

All values here are immutable once constructed and safe to share across
threads; every public operation is a pure function of its inputs. The
exception is the private kernel that ``_objective_of`` returns: it
evaluates into work arrays of its own, so it serves one thread at a time.
"""

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import repeat
from numbers import Real

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
    "poisson_nll",
    "observed_slacks",
    "objective",
    "predict_response_prob",
]


def _check_count(name, value, least):
    """value as an int if it is an integer >= least (a numpy one passes, a bool not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_real(name, value, rule, within=lambda v: True):
    """value as a float if it is a finite real number (no bool) and ``within`` holds.

    Else ValidationError saying that ``name`` must be ``rule``.
    """
    try:
        ok = not isinstance(value, (bool, np.bool_)) and isinstance(value, Real) \
            and math.isfinite(value) and within(value)
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise ValidationError(f"{name} must be {rule}, got {value!r}")
    return float(value)


def _check_positive(name, value):
    """Reject a bool, and any value that is not a finite number > 0, such as a string.

    For tau: a negative tau flips every probability, zero or NaN gives 0.5,
    and inf gives 0 or 1.
    """
    _check_real(name, value, "finite and > 0", lambda v: v > 0)


def _check_names(name, values, distinct=True):
    """values as a tuple of distinct nonempty strings; else ValidationError naming ``name``.

    The one rule for a vocabulary, for question and learner ids, and, with
    ``distinct=False`` (a name may repeat), for stop words and a document's
    terms. A bare string is no list of names: ``tuple("ab")`` is
    ``('a', 'b')``.
    """
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ValidationError(f"{name} must be a list of strings, got {values!r}")
    names = tuple(values)
    if not all(map(isinstance, names, repeat(str))):
        bad = next(v for v in names if not isinstance(v, str))
        raise ValidationError(f"{name} must hold only strings, got {bad!r}")
    if "" in names:
        raise ValidationError(f"{name} must not hold an empty name")
    if distinct and len(set(names)) != len(names):
        repeated = next(v for v, n in Counter(names).items() if n > 1)
        raise ValidationError(f"{name} repeats the name {repeated!r}")
    return names


def _readonly(name, arr):
    """arr as a read-only float array, if every entry is finite."""
    arr = np.array(arr, dtype=float)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite")
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
        self.num_questions = _check_count("num_questions", num_questions, 1)
        self.num_learners = _check_count("num_learners", num_learners, 1)
        qi, lj, y = _entry_arrays(entries, self.num_questions, self.num_learners, "entry")
        cells = qi * self.num_learners + lj
        if np.unique(cells).size != cells.size:
            raise ValidationError("duplicate (question, learner) pair in entries")
        self.question_idx = qi
        self.learner_idx = lj
        self.grades = y
        self.cells = cells
        for a in (self.question_idx, self.learner_idx, self.grades, self.cells):
            a.setflags(write=False)

    @property
    def num_observed(self):
        return self.grades.size

    def triples(self, indices=None):
        """Observed entries as (i, j, y) int tuples, optionally only the given ones.

        Indices must be integers in [0, num_observed); see ``_checked_index``.
        """
        sel = slice(None) if indices is None else _checked_index(
            indices, self.num_observed, "entry")
        return list(zip(self.question_idx[sel].tolist(), self.learner_idx[sel].tolist(),
                        self.grades[sel].tolist()))

    entries = property(triples, doc="All observed entries as a list of (i, j, y) int tuples.")

    def subset(self, indices):
        """New response set over the same grid keeping the given entries.

        Indices are checked as in ``triples``.
        """
        sel = _checked_index(indices, self.num_observed, "entry")
        stacked = np.stack(
            [self.question_idx[sel], self.learner_idx[sel], self.grades[sel]], axis=1
        )
        return GradedResponseSet(self.num_questions, self.num_learners, stacked)


def _entry_arrays(entries, num_questions, num_learners, label):
    """Checked question, learner and grade int64 arrays of (i, j, y) triples.

    The one check of entry triples; ``label`` names an entry in its messages.
    Integral floats pass, and every check runs before the cast to int64. A
    bool is no integer; ``np.asarray`` would cast one among ints to 0 or 1,
    so the values of a list are scanned for bools, while an array is taken
    by its dtype.
    """
    listed = not isinstance(entries, np.ndarray)
    rows = list(entries) if listed else entries
    try:
        arr = np.asarray(rows)
    except ValueError:  # ragged
        arr = None
    if arr is not None and not arr.size:
        raise ValidationError(f"at least one {label} is required")
    if arr is None or arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError(f"{label} rows must be (question, learner, grade) triples")
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all() \
            or (arr != np.floor(arr)).any() or (listed and any(
                isinstance(v, (bool, np.bool_)) for row in rows for v in row)):
        raise ValidationError(f"{label} indices and grades must be integers")
    qi, lj, y = arr[:, 0], arr[:, 1], arr[:, 2]
    bad = (y != 0) & (y != 1)
    if bad.any():
        raise ValidationError(f"{label} grade must be 0 or 1, got {y[bad][0]}")
    for idx, size, axis in ((qi, num_questions, "question"), (lj, num_learners, "learner")):
        if idx.min() < 0 or idx.max() >= size:
            raise ValidationError(f"{label} {axis} index out of range [0, {size})")
    arr = arr.astype(np.int64)
    return arr[:, 0], arr[:, 1], arr[:, 2]


class WordCountMatrix:
    """Bag-of-words counts per question over an ordered vocabulary.

    Owns its fields' rules: a count >= 1 of questions, a vocabulary of
    distinct nonempty strings (``_check_names``), and nonnegative integer
    counts of shape (num_questions, vocabulary size), each finite and below
    2**63 so that it fits in an int64; real numbers only, so a string or an
    integer too large for numpy's integers is refused before any cast.
    """

    def __init__(self, num_questions, vocabulary, counts):
        self.num_questions = _check_count("num_questions", num_questions, 1)
        vocab = _check_names("vocabulary", vocabulary)
        arr = np.asarray(counts)
        if arr.shape != (self.num_questions, len(vocab)):
            raise DimensionMismatchError(
                "counts", (self.num_questions, len(vocab)), arr.shape
            )
        if arr.dtype.kind not in "biuf":  # strings, and objects such as ints past int64
            raise ValidationError(f"counts must be numbers, got an array of {arr.dtype}")
        if arr.size:
            if not np.all(arr == np.floor(arr)):  # nan fails, and -inf and inf below
                raise ValidationError("counts must be integers")
            if arr.min() < 0:
                raise ValidationError("counts must be nonnegative")
            if arr.max().item() >= 2**63:  # a Python number compares exactly
                raise ValidationError("counts must be below 2**63")
        arr = arr.astype(np.int64)
        arr.setflags(write=False)
        self.vocabulary = vocab
        self.counts = arr

    @property
    def num_words(self):
        return len(self.vocabulary)


class FactorState:
    """The four estimated factors.

    W (questions x concepts) and T (concepts x words) are entrywise
    nonnegative; mu (per-question difficulty) and C (concepts x learners)
    are unconstrained in sign. Owns the factors' rules: a Q x K matrix W
    with K >= 1 and shapes that agree with it (else DimensionMismatchError),
    finite entries (else ValidationError), nonnegative W and T (else
    ValidationError).
    """

    def __init__(self, W, mu, C, T):
        W, mu, C, T = map(_readonly, ("W", "mu", "C", "T"), (W, mu, C, T))
        if W.ndim != 2 or W.shape[1] < 1:
            raise DimensionMismatchError("concepts", "a Q x K matrix W with K >= 1",
                                         W.shape)
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
        """Relabel concepts: new concept k is old concept order[k].

        ``order`` is an integer index array (``_checked_index``: no float and
        no bool) that holds each concept index once; else ValidationError.
        """
        order = _checked_index(order, self.num_concepts, "concept")
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
            _check_positive(name, getattr(self, name))
        _check_count("num_concepts", self.num_concepts, 1)


@dataclass(frozen=True)
class FitReport:
    """Objective value after each outer sweep plus convergence bookkeeping.

    Owns its fields' rules: a finite real trace value per outer iteration,
    stored as a float, a count >= 0 of them, a bool ``converged`` and a
    finite real ``wall_time`` >= 0. The numbers and ``converged`` are
    checked, not converted: ``float("1.5")`` is 1.5 and ``bool("false")`` is
    True, so a string or a bool is no trace value and no wall time.
    """

    objective_trace: tuple
    converged: bool
    outer_iterations: int
    wall_time: float

    def __post_init__(self):
        object.__setattr__(self, "objective_trace", tuple(
            _check_real("objective_trace", value, "finite real numbers")
            for value in self.objective_trace))
        if not isinstance(self.converged, (bool, np.bool_)):
            raise ValidationError(f"converged must be a bool, got {self.converged!r}")
        object.__setattr__(self, "outer_iterations",
                           _check_count("outer_iterations", self.outer_iterations, 0))
        if len(self.objective_trace) != self.outer_iterations:
            raise ValidationError("objective_trace must have one value per iteration")
        object.__setattr__(self, "wall_time", _check_real(
            "wall_time", self.wall_time, "finite and >= 0", lambda v: v >= 0))


def _array_or_float(val):
    return val if np.ndim(val) else float(val)


def inverse_logit(x):
    """Logistic map 1 / (1 + exp(-x)).

    With e = exp(-|x|) it is 1 / (1 + e) for x >= 0 and e / (1 + e) below,
    so exp never sees a positive argument and cannot overflow; safe well past
    |x| = 700. NaN in gives NaN out. The numerator is picked with
    ``np.where`` and divided once, which keeps every call on numpy's
    vectorised loops instead of gathering through boolean masks. An array
    gives an array, a scalar a float.
    """
    arr = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(arr))
    return _array_or_float(np.where(arr >= 0, 1.0, e) / (1.0 + e))


def _signed_precision(y, tau):
    """m = tau * (2y - 1): +tau for a correct grade y = 1, -tau for y = 0."""
    return tau * (2.0 * y - 1.0)


def _bernoulli_margins(m, z):
    """The margin u = m * z and e = exp(-|u|), shared by value and slope."""
    u = m * z
    return u, np.exp(-np.abs(u))


def _bernoulli_terms(u, e):
    """Per-cell negative log-likelihood softplus(-u) = log1p(e) - min(u, 0)."""
    return np.log1p(e) - np.minimum(u, 0.0)


def _bernoulli_slopes(m, u, e):
    """Per-cell derivative in z, -m * sigmoid(-u); a weighted cell passes weight * m.

    sigmoid(-u) is e / (1 + e) for u >= 0 and 1 / (1 + e) below; dividing
    by -1 - e rather than negating m gives the same bits with one call less.
    """
    return m * np.where(u >= 0, e, 1.0) / (-1.0 - e)


def bernoulli_nll(y, z, tau):
    """Negative log-likelihood of grade y given slack z at precision tau.

    softplus(-u) with the margin u = tau * (2y - 1) * z, written as
    log1p(exp(-|u|)) - min(u, 0): exp never sees a positive argument, and
    numpy runs ``exp`` and ``log1p`` on its vectorised loops, where its
    ``logaddexp`` runs a scalar one. Raises ValidationError unless every
    grade is 0 or 1 and tau is finite and > 0.
    """
    _check_positive("tau", tau)
    y = np.asarray(y, dtype=float)
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValidationError("grades must be 0 or 1")
    u, e = _bernoulli_margins(_signed_precision(y, tau), np.asarray(z, dtype=float))
    return _array_or_float(_bernoulli_terms(u, e))


def _floored_rate(a_raw, floor, out=None):
    """Poisson rate a = max(a_raw, floor).

    Given ``out``, an array of the rates' shape, the rates are written into it.
    """
    return np.maximum(np.asarray(a_raw, dtype=float), floor, out=out)


def _poisson_terms(b, a, out=None):
    """Per-cell Poisson value a - b log(a) at floored rates a.

    Given ``out``, an array of a's shape other than a, the terms are formed
    in it and no other array is made; the operations, and so the bits, are
    the same either way.
    """
    logs = np.log(a, out=out)
    return np.subtract(a, np.multiply(b, logs, out=out), out=out)


def _poisson_ratio(b, a, out=None):
    """r = b / a at floored rates a; the slope in the raw rate is 1 - r.

    Given ``out`` (which may be a itself), the ratios are written into it.
    """
    return np.divide(b, a, out=out)


def poisson_nll(b, a_raw, epsilon=1e-6):
    """Poisson negative log-likelihood up to the data constant log(b!).

    The rate is floored at epsilon before use, so a zero or negative raw
    rate never produces infinities. The dropped log(b!) term does not
    affect minimization; values are comparable only within this package.
    """
    return _array_or_float(_poisson_terms(b, _floored_rate(a_raw, epsilon)))


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


def _objective_of(responses, word_counts, params):
    """The full objective as a function of the state, for one data set and params.

    What the data fix is formed once: the signed precision of the grades,
    the float counts, and two work arrays of the counts' shape that every
    call writes its rates and Poisson terms into, so no call allocates a
    Q x V array. Each call then takes the slacks of the observed cells from
    ``(W @ C).take(cells)``, sums with ``np.add.reduce`` and checks nothing,
    so a fit forms it once and calls it after every sweep. The caller checks
    the state's dimensions against the data. Because of the work arrays,
    one kernel must not be evaluated from two threads at once; the
    estimator evaluates it from one, and ``objective`` forms its own.
    """
    cells, question_idx = responses.cells, responses.question_idx
    m = _signed_precision(responses.grades, params.tau)
    counts = word_counts.counts.astype(float)
    rates, terms = np.empty(counts.shape), np.empty(counts.shape)
    lam, half_gamma, half_eta = params.lam, 0.5 * params.gamma, 0.5 * params.eta
    epsilon = params.epsilon
    add = np.add.reduce

    def value(state):
        W, C, T = state.W, state.C, state.T
        z = (W @ C).take(cells) + state.mu.take(question_idx)
        bern = add(_bernoulli_terms(*_bernoulli_margins(m, z)))
        a = _floored_rate(np.matmul(W, T, out=rates), epsilon, rates)
        pois = add(_poisson_terms(counts, a, terms), None)
        penalties = (lam * add(np.abs(W), None) + half_gamma * add(C * C, None)
                     + half_eta * add(T * T, None))
        return float(bern + pois + penalties)

    return value


def objective(responses, word_counts, state, params):
    """The full fit objective at the given state.

    Bernoulli NLL over observed grades + Poisson NLL over every
    question/word cell + l1 on W + ridge on C and T. Unobserved grades are
    skipped entirely, never imputed. mu contributes to the slacks but not
    to the l1 term. Over a vocabulary of zero words (a K x 0 T) the Poisson
    and T terms are zero and this is the grades-only objective. The value
    is ``_objective_of``'s, bit for bit what a fit records for the state.
    """
    _check_dims(responses, word_counts, state, params)
    return _objective_of(responses, word_counts, params)(state)


def _checked_index(idx, size, axis):
    """idx as an int64 array, checked against [0, size).

    An empty selection, such as ``[]`` (a float array to numpy), selects nothing.
    """
    arr = np.asarray(idx)
    if arr.size and arr.dtype.kind not in "iu":  # a bool, a float or a string is no index
        raise ValidationError(f"{axis} index must be an integer, got {idx!r}")
    arr = arr.astype(np.int64, copy=False)
    outside = (arr < 0) | (arr >= size)
    if outside.any():
        raise ValidationError(
            f"{axis} index {arr[outside].flat[0]} out of range [0, {size})")
    return arr


def predict_response_prob(state, i, j, tau):
    """Probability of a correct response by learner j on question i.

    i and j are integer indices or index arrays of one shape: two scalars
    give a float and arrays an array. A scalar pair takes the array path
    through ``observed_slacks``, so a batch gives the bits of its pairs one
    at a time. Raises ValidationError for an index that is not an integer
    (a bool included) or is out of range, for index arrays of two shapes,
    and for a tau that is not finite and > 0.
    """
    _check_positive("tau", tau)
    qi = _checked_index(i, state.num_questions, "question")
    lj = _checked_index(j, state.num_learners, "learner")
    if qi.shape != lj.shape:
        raise ValidationError(
            f"question and learner indices must have one shape, got {qi.shape} "
            f"and {lj.shape}")
    p = inverse_logit(tau * observed_slacks(state, qi.ravel(), lj.ravel()))
    return float(p[0]) if qi.ndim == 0 else p.reshape(qi.shape)
