"""Outer block coordinate descent over associations, knowledge, and words.

One sweep updates, in order, every [w_i | mu_i] row, then every knowledge
column of C, then every word column of T, each block through the FISTA
subsolver warm-started at its current value. The full objective is recorded
after each sweep; a sweep whose relative decrease falls below the outer
tolerance ends the loop. Every block step ends at an objective no worse
than where it started, so the recorded trace is nonincreasing up to float
evaluation noise.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DivergenceError, ValidationError
from .model import FactorState, FitReport, WordCountMatrix, objective
from .solvers import (
    FistaConfig,
    c_block_subproblem,
    fista_minimize,
    t_block_subproblem,
    w_block_subproblem,
)

__all__ = ["FitConfig", "initialize", "fit", "fit_responses_only"]


@dataclass(frozen=True)
class FitConfig:
    """Outer-loop knobs. ``max_outer_iterations=0`` returns the initialization."""

    max_outer_iterations: int = 100
    outer_relative_tolerance: float = 1e-5
    inner: FistaConfig = field(default_factory=FistaConfig)
    rng_seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.max_outer_iterations, int)
                and self.max_outer_iterations >= 0):
            raise ValidationError("max_outer_iterations must be an integer >= 0")
        if not self.outer_relative_tolerance > 0:
            raise ValidationError("outer_relative_tolerance must be > 0")


def initialize(num_questions, num_learners, num_words, num_concepts, rng_seed):
    """Random starting point: uniform(0,1) W and T, standard normal C, zero mu.

    Draw order is W, C, T, so a grades-only fit (num_words=0) shares the W
    and C draws of a text fit with the same seed. Deterministic per seed.
    """
    if min(num_questions, num_learners, num_concepts) < 1 or num_words < 0:
        raise ValidationError("dimensions must be >= 1 (vocabulary may be empty)")
    rng = np.random.default_rng(rng_seed)
    W = rng.random((num_questions, num_concepts))
    C = rng.standard_normal((num_concepts, num_learners))
    T = rng.random((num_concepts, num_words))
    mu = np.zeros(num_questions)
    return FactorState(W, mu, C, T)


def fit(responses, word_counts, params, config=None):
    """Estimate all four factors from grades plus word counts.

    A vocabulary of zero words gives the grades-only fit
    (``fit_responses_only``). Returns (FactorState, FitReport). Raises
    DivergenceError, carrying the last finite state, if a sweep ever
    produces a non-finite objective.
    """
    config = config or FitConfig()
    if word_counts.num_questions != responses.num_questions:
        raise DimensionMismatchError(
            "questions", responses.num_questions, word_counts.num_questions
        )
    state = initialize(
        responses.num_questions,
        responses.num_learners,
        word_counts.num_words,
        params.num_concepts,
        config.rng_seed,
    )
    return _descend(responses, word_counts, state, params, config)


def fit_responses_only(responses, params, config=None):
    """Grades-only baseline: ``fit`` over an empty vocabulary.

    With no words the Poisson term and the ridge on T are both zero, so
    the objective is the Bernoulli likelihood plus the penalties on W and
    C. The returned state carries an empty (K x 0) T.
    """
    no_words = WordCountMatrix(responses.num_questions, (),
                               np.zeros((responses.num_questions, 0)))
    return fit(responses, no_words, params, config)


def _descend(responses, word_counts, state, params, config):
    start = time.perf_counter()
    grades = (responses.cells, responses.grades.astype(float))
    counts = word_counts.counts.astype(float)
    ones = np.ones((1, responses.num_learners))

    previous = objective(responses, word_counts, state, params)
    if not np.isfinite(previous):
        raise DivergenceError(
            "objective non-finite at initialization",
            state=state,
            report=FitReport((), False, 0, time.perf_counter() - start),
        )
    trace = []
    converged = False
    for _ in range(config.max_outer_iterations):
        last_state = state

        w_aug = np.hstack([state.W, state.mu[:, None]])
        sub = w_block_subproblem(
            grades, np.vstack([state.C, ones]), counts, state.T,
            params.tau, params.lam, params.epsilon,
        )
        w_aug = fista_minimize(
            sub.smooth_gradient, sub.smooth_value, sub.prox, w_aug,
            config.inner, sub.nonsmooth_value,
        ).solution
        W, mu = w_aug[:, :-1], w_aug[:, -1]

        sub = c_block_subproblem(grades, W, mu, params.gamma, params.tau)
        C = fista_minimize(
            sub.smooth_gradient, sub.smooth_value, sub.prox, state.C, config.inner
        ).solution

        sub = t_block_subproblem(counts, W, params.eta, params.epsilon)
        T = fista_minimize(
            sub.smooth_gradient, sub.smooth_value, sub.prox, state.T, config.inner
        ).solution

        state = FactorState(W, mu, C, T)
        current = objective(responses, word_counts, state, params)
        if not np.isfinite(current):
            raise DivergenceError(
                f"non-finite objective after sweep {len(trace) + 1}",
                state=last_state,
                report=FitReport(tuple(trace), False, len(trace),
                                 time.perf_counter() - start),
            )
        trace.append(current)
        if previous - current <= config.outer_relative_tolerance * abs(previous):
            converged = True
            break
        previous = current

    report = FitReport(tuple(trace), converged, len(trace),
                       time.perf_counter() - start)
    return state, report
