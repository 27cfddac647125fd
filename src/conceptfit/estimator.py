"""Outer block coordinate descent over associations, knowledge, and words.

One sweep updates, in order, every [w_i | mu_i] row, then every knowledge
column of C, then every word column of T, each block through the FISTA
subsolver warm-started at its current value. The rows of a block are
independent problems, and the subsolver gives each its own step, so one
badly conditioned row does not hold back the rest. Each block's solve
starts from the steps its rows accepted first in the block's previous solve
of the same fit; the first sweep starts them at 1.0. The full objective is
recorded after each sweep.

A sweep over a nonempty vocabulary ends, after its T solve and before its
objective, with an exact step per concept along the two directions that
leave both likelihoods as they are: first a shift (``_centred``), then a
scale (``_rebalanced``). W C + mu and W T stay the same when d is taken
from concept k's row of C and W[:, k] d added to mu, and when concept k's
column of W is multiplied by s > 0 and its rows of C and T are divided by
s; only the penalties move, and their minimiser over each concept's
(shift, scale) pair has a closed form: d the row's mean knowledge, then s
from the centred row. No block step moves along these directions (mu is
solved with W, and C in its own block), so block descent alone creeps
along them, the more slowly the more words there are. The step never
raises the objective, since d = 0 and s = 1 are among its candidates. A
grades-only fit skips both: there the scale only trades the l1 term on W
against the ridge on C, and taking it left more fits at the sweep cap, not
fewer; the shift, taken alone, also took more sweeps on the benchmark's
grades-only fits (summed, 161 -> 172 on ``canonical`` and 544 -> 587 on
``text-heavy``, against 239 -> 234 on ``sparse-grades``).

The block solves are only as accurate as the outer progress calls for
(block descent needs only a sufficient decrease per block; Xu & Yin, SIAM
J. Imaging Sci. 2013, and the BCD of SPARFA, Lan, Waters, Studer &
Baraniuk, JMLR 2014). The
first sweep solves every block to a relative tolerance of 1e-3, and each
later sweep to 0.1 times the last sweep's relative decrease, never tighter
than the configured ``inner.relative_tolerance``; the next block moves a
solve's target anyway. A sweep whose relative decrease is at or below the
outer tolerance ends the loop only if its solves ran at the configured
tolerance; otherwise the next sweep runs at that tolerance to confirm. So
a converged fit is one whose last sweep of full-accuracy solves stopped
moving.

Once the fit settles, that is after the first sweep whose relative decrease
is below 1e-2, each sweep starts from an extrapolated point (the block
prox-linear scheme of Xu & Yin, SIAM J. Imaging Sci. 2013): every factor
moves on by omega times its change over the last sweep, with W and T
projected back onto >= 0 and omega from Nesterov's sequence. The sweep
starts there only if its objective is no higher than the last recorded one;
otherwise it starts from the current state and the sequence restarts. The
wait keeps the early, large steps from carrying a fit into another local
minimum. Every block step ends at an objective no worse than where it
started, and every sweep starts no higher than the last recorded objective,
so the recorded trace is nonincreasing up to float evaluation noise and
the gap at rates below epsilon, which the blocks' values floor at the
smallest normal float and the objective at epsilon (see ``model``).

What the data fix is formed once per fit, before the first sweep: the
block set-up of ``solvers._FitBlocks`` (one set of the observed cells'
signs and groups for the W and C blocks, and the float counts) and the
objective kernel of ``model._objective_of``, the one ``objective``
evaluates. Each sweep then builds its three block subproblems from the
current factors alone, and both die with the fit.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DivergenceError, ValidationError
from .model import (FactorState, FitReport, WordCountMatrix, _check_count,
                    _check_positive, _objective_of)
from .solvers import FistaConfig, _FitBlocks, fista_minimize

__all__ = ["FitConfig", "initialize", "fit", "fit_responses_only"]


@dataclass(frozen=True)
class FitConfig:
    """Outer-loop knobs. ``max_outer_iterations=0`` returns the initialization.

    ``inner.relative_tolerance`` is the accuracy of the block solves in the
    sweeps that may end a fit. Earlier sweeps solve to 0.1 times the last
    sweep's relative decrease (1e-3 in the first sweep), never tighter than
    that, while ``inner.max_iterations`` caps every solve.
    """

    max_outer_iterations: int = 100
    outer_relative_tolerance: float = 1e-5
    inner: FistaConfig = field(default_factory=FistaConfig)
    rng_seed: int = 0

    def __post_init__(self):
        _check_count("max_outer_iterations", self.max_outer_iterations, 0)
        _check_positive("outer_relative_tolerance", self.outer_relative_tolerance)
        if not isinstance(self.inner, FistaConfig):
            raise ValidationError(f"inner must be a FistaConfig, got {self.inner!r}")
        _check_count("rng_seed", self.rng_seed, 0)


def initialize(num_questions, num_learners, num_words, num_concepts, rng_seed):
    """Random starting point: uniform(0,1) W and T, standard normal C, zero mu.

    Draw order is W, C, T, so a grades-only fit (num_words=0) shares the W
    and C draws of a text fit with the same seed. Deterministic per seed.
    Raises ValidationError unless the seed and num_words are integers >= 0
    and the other counts integers >= 1.
    """
    for name, value in (("num_questions", num_questions), ("num_learners", num_learners),
                        ("num_concepts", num_concepts)):
        _check_count(name, value, 1)
    _check_count("num_words", num_words, 0)
    rng = np.random.default_rng(_check_count("rng_seed", rng_seed, 0))
    W = rng.random((num_questions, num_concepts))
    C = rng.standard_normal((num_concepts, num_learners))
    T = rng.random((num_concepts, num_words))
    mu = np.zeros(num_questions)
    return FactorState(W, mu, C, T)


def fit(responses, word_counts, params, config=None):
    """Estimate all four factors from grades plus word counts.

    A vocabulary of zero words gives the grades-only fit
    (``fit_responses_only``). The descent is the module docstring's: after
    the first sweep that lowers the objective by less than 1e-2 relative,
    each sweep starts from a Nesterov extrapolation of all four factors,
    kept only if its objective does not rise above the last recorded one,
    so the objective trace stays nonincreasing. The block solves of a sweep
    run to 0.1 times the last sweep's relative decrease (1e-3 in the first
    sweep), never tighter than ``config.inner.relative_tolerance``, and
    only a sweep solved at that tolerance can end the fit as converged.
    Every sweep over a nonempty vocabulary ends with the exact per-concept
    shift and scale steps of the module docstring: each concept's mean
    knowledge moves into the difficulties, then each concept moves to its
    balanced scale, and neither raises the objective. A grades-only fit
    skips both, which took it more sweeps, not fewer. ``config`` is None
    (the default ``FitConfig``) or a ``FitConfig``; anything else raises
    ValidationError.
    Returns (FactorState, FitReport). Raises DivergenceError, carrying the
    last finite state before any extrapolation, if a sweep ever produces a
    non-finite objective.
    """
    if config is None:
        config = FitConfig()
    elif not isinstance(config, FitConfig):
        raise ValidationError(f"config must be a FitConfig or None, got {config!r}")
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
    # what the data fix, formed once for the whole fit
    blocks = _FitBlocks((responses.cells, responses.grades.astype(float)),
                        word_counts.counts, params.tau, params.epsilon)
    objective = _objective_of(responses, word_counts, params)
    ones = np.ones((1, responses.num_learners))

    previous = objective(state)
    if not np.isfinite(previous):
        raise DivergenceError(
            "objective non-finite at initialization",
            state=state,
            report=FitReport((), False, 0, time.perf_counter() - start),
        )
    trace = []
    converged = False
    steps = {}  # block -> each row's first accepted step in its last solve

    # the first sweep solves loosely; see the module docstring
    inner = FistaConfig(config.inner.max_iterations,
                        max(1e-3, config.inner.relative_tolerance))

    def solve(block, sub, x0):
        """Solve a block row by row, from the steps its last solve carried."""
        smooth_value, nonsmooth_value = sub.rows
        result = fista_minimize(sub.value_and_gradient, smooth_value, sub.prox, x0,
                                inner, nonsmooth_value,
                                initial_step=steps.get(block))
        steps[block] = result.first_step
        return result.solution

    extrapolate = False
    t = 1.0  # Nesterov's sequence; 1 means no momentum
    before = state  # the unextrapolated state before the last sweep

    for _ in range(config.max_outer_iterations):
        last_state = state
        if extrapolate:
            t_next = (1 + math.sqrt(1 + 4 * t * t)) / 2
            omega = (t - 1) / t_next
            guess = FactorState(
                np.maximum(state.W + omega * (state.W - before.W), 0),
                state.mu + omega * (state.mu - before.mu),
                state.C + omega * (state.C - before.C),
                np.maximum(state.T + omega * (state.T - before.T), 0),
            )
            # keep the guess only if it does not rise; <= lets the first
            # step, where omega is 0, start the sequence
            if objective(guess) <= previous:
                state, t = guess, t_next
            else:
                t = 1.0
        before = last_state

        sub = blocks.w(np.vstack([state.C, ones]), state.T, params.lam)
        w_aug = solve("W", sub, np.hstack([state.W, state.mu[:, None]]))
        W, mu = w_aug[:, :-1], w_aug[:, -1]
        C = solve("C", blocks.c(W, mu, params.gamma), state.C)
        T = state.T
        if T.size:  # no T block, shift or scale over an empty vocabulary
            T = solve("T", blocks.t(W, params.eta), T)
            mu, C = _centred(W, mu, C)
            W, C, T = _rebalanced(W, C, T, params)

        state = FactorState(W, mu, C, T)
        current = objective(state)
        if not np.isfinite(current):
            raise DivergenceError(
                f"non-finite objective after sweep {len(trace) + 1}",
                state=last_state,
                report=FitReport(tuple(trace), False, len(trace),
                                 time.perf_counter() - start),
            )
        trace.append(current)
        decrease = (previous - current) / abs(previous) if previous else 0.0
        if decrease <= config.outer_relative_tolerance:
            if inner == config.inner:
                converged = True
                break
            # a sweep of loose solves may stall short of the minimum, so
            # only a sweep of full-accuracy solves can confirm the stop
            decrease = 0.0
        extrapolate = extrapolate or decrease < 1e-2
        previous = current
        inner = FistaConfig(config.inner.max_iterations,
                            max(0.1 * decrease, config.inner.relative_tolerance))

    report = FitReport(tuple(trace), converged, len(trace),
                       time.perf_counter() - start)
    return state, report


def _centred(W, mu, C):
    """(mu, C) with each concept's mean knowledge moved into the difficulties.

    Subtracting d_k from concept k's row of C and adding W[:, k] d_k to mu
    leaves W C + mu, and so the grade likelihood, as it is, and W T is not
    touched; only the ridge on C moves, and d_k = mean(C_k) minimises it,
    also for a concept whose column of W is zero. So the shift never raises
    the objective beyond the rounding of W C + mu, since d = 0 is a candidate.
    """
    d = C.mean(axis=1)
    return mu + W @ d, C - d[:, None]


def _rebalanced(W, C, T, params):
    """(W, C, T) with each concept moved to the scale that minimises the penalties.

    Multiplying concept k's column of W by s > 0 and dividing its rows of C
    and T by s leaves W C and W T, and so both likelihoods, as they are; the
    penalties become ``lam s a + (gamma c + eta t) / (2 s^2)`` with
    a = ||W_k||_1, c = ||C_k||^2 and t = ||T_k||^2, whose minimiser is
    ``s = ((gamma c + eta t) / (lam a))^(1/3)``. A concept with a = 0 or
    c + t = 0 has no such minimiser and keeps s = 1, bit for bit. Since s = 1
    is a candidate, the step never raises the objective beyond the rounding
    of W C and W T.

    ``_descend`` passes a C that ``_centred`` has just shifted to mean 0 per
    concept. That shift minimises c at every s, so the shift and then this
    scale give the joint minimiser over each concept's (shift, scale) pair.
    Neither runs in a grades-only fit; the module docstring says why.
    """
    ridge = (params.gamma * np.einsum("kn,kn->k", C, C)
             + params.eta * np.einsum("kv,kv->k", T, T))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.cbrt(ridge / (params.lam * W.sum(axis=0)))
    s[~((s > 0) & (s < np.inf))] = 1.0  # a = 0 or c + t = 0, or out of range
    return W * s, C / s[:, None], T / s[:, None]
