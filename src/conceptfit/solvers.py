"""FISTA engine plus the three block subproblem definitions.

``fista_minimize`` runs accelerated proximal gradient with a backtracking
line search on a variable of any ndarray shape. The ``*_block_subproblem``
builders package the smooth value/gradient, prox, and nonsmooth value of a
whole block: every [w_i | mu_i] row of the associations, every learner
column of C, or every word column of T, which is what the outer loop
solves. Their smooth parts are sums of the likelihood helpers in ``model``,
the Bernoulli ones taken over the observed grades only.

The rows of a block are independent problems (the per-row subproblems of
SPARFA; Lan, Waters, Studer & Baraniuk, JMLR 2014), so the builders also
give their values per row, in ``Subproblem.rows``, and the engine solves
every row of a block with a step of its own. Each row halves its step
until its own quadratic upper bound holds and keeps its own best iterate,
while the momentum and the stopping test, on the summed objective, stay
shared. A row with a huge gradient, such as one whose rate sits on the
epsilon floor under a nonzero count, shrinks only its own step, and every
other row still reaches its minimizer. The solve takes fewer iterations
than one shared step would, which the worst-conditioned row sets.

A block is solved once per outer sweep, and its rows' curvature changes
little from one sweep to the next. So a solve reports the step each row
accepted in its first iteration, and the next solve of that block may start
each row at four times that step, capped at 1.0, rather than at 1.0. A
row whose step still passes then tries at most three candidates in its
first iteration instead of halving down from 1.0 again, and a row whose
carried step is at the step floor starts again at 1.0.

The Poisson values floor every rate at the smallest normal float
(``_RATE_FLOOR``), not at epsilon as the objective does. A step that drives
a counted word's rate toward 0 then pays about 708 per count and fails its
row's bound, where under the epsilon floor the value below epsilon would be
flat and such a step would pass, leaving a row whose slope, 1 - b / epsilon,
no later step could follow. A cell with no count costs its raw rate, a
linear value whose slope is the unit slope the gradients give it. The
slopes keep the epsilon floor, so every gradient stays finite.

Each FISTA iteration makes one fused pass at its momentum point y: handed
a builder's ``Subproblem.value_and_gradient`` as its gradient callable,
``fista_minimize`` takes the per-row values and the gradient at y from that
one call. Each candidate step then costs a value-only pass, and the start
value of a solve is the first fused pass's.

At the benchmark's sizes numpy's per-call overhead, not the arithmetic,
sets the cost of a pass, so the builders keep the number of array calls
down. What a fit's data fix is formed once per fit, by ``_FitBlocks``,
which a fit keeps for all its sweeps and each public builder forms for its
one block:

- the signed precision tau * (2y - 1) of the observed grades, one set-up
  for both axes, and the question or learner of each cell, which sums the
  terms per row with ``np.bincount``; the latter is formed on first use per
  axis and shape of the slacks;
- the counts as floats;
- two work arrays of the counts' shape behind the Q x V Poisson grids: the
  raw rates, whose array then takes the terms, and the floored rates or
  ratios. Every W and T evaluation writes into them with ``out=``, by the
  same operations and so to the same bits as fresh arrays, and allocates
  no Q x V array.

What depends on the factors is formed once per block, that is once per
sweep of a fit:

- the Poisson column sums. The slope 1 - b / a summed against a factor is
  that factor's column sums minus its product with the ratio r = b / a:
  ``W.sum(0) - W.T @ r`` in the T block and ``T.sum(1) - r @ T.T`` in the
  W block;
- the vectors whose products sum a grid per row: ones for the Poisson
  terms, the l1 weights and the halved ridge weights.

The builders' only state is that set-up. It lives as long as the fit or
builder call that formed it, and no two fits share one. No result of an
evaluation is one of the work arrays, but the callables of a ``Subproblem``
(and the W and T blocks of one fit) share them, so one ``Subproblem`` must
not be evaluated from two threads at once; the estimator never does.

The per-row ``grad_*`` and ``*_subproblem`` functions are one-row views of
the same block builders: a 1-D [w_i | mu_i] row or knowledge column with
all its slacks observed, and a 1-D word column of T.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import NonFiniteGradientError, ValidationError
from .model import (
    _bernoulli_margins,
    _bernoulli_slopes,
    _bernoulli_terms,
    _check_count,
    _check_positive,
    _floored_rate,
    _poisson_ratio,
    _poisson_terms,
    _signed_precision,
)

__all__ = [
    "FistaConfig",
    "SubproblemResult",
    "Subproblem",
    "fista_minimize",
    "prox_nonneg",
    "prox_w",
    "grad_w_row",
    "grad_c_column",
    "grad_t_column",
    "w_row_subproblem",
    "c_column_subproblem",
    "t_column_subproblem",
    "w_block_subproblem",
    "c_block_subproblem",
    "t_block_subproblem",
]

# Below this the line search gives up shrinking and accepts the candidate.
_STEP_FLOOR = 1e-18
# The floor of every rate in the Poisson values, the smallest normal float: a
# rate of 0 under a count costs about 708 per count, finite, since an infinite
# value would make inf - inf of the values' differences.
_RATE_FLOOR = np.finfo(float).tiny


@dataclass(frozen=True)
class FistaConfig:
    """Inner-solver knobs.

    Each row's step starts at 1.0, or near the step carried from the last
    solve of its block (see ``fista_minimize``), and only shrinks in a solve.
    """

    max_iterations: int = 200
    relative_tolerance: float = 1e-7

    def __post_init__(self):
        _check_count("max_iterations", self.max_iterations, 1)
        _check_positive("relative_tolerance", self.relative_tolerance)


@dataclass(frozen=True)
class SubproblemResult:
    """A solve's best iterate and its objective.

    ``first_step`` is each row's step as accepted in the first iteration,
    shaped like the per-row values; passed back as ``initial_step``, it
    starts the next solve of the same block near the step that passed.
    """

    solution: np.ndarray
    final_objective: float
    iterations_used: int
    first_step: Optional[np.ndarray] = None


class Subproblem(NamedTuple):
    """Pieces of one composite problem: min smooth(x) + nonsmooth(x).

    ``smooth_value`` and ``nonsmooth_value`` return the problem's total.
    ``rows``, from the block builders, is the pair of callables giving the
    same two values per row (the nonsmooth one None for a smooth problem),
    which ``fista_minimize`` takes to give every row its own step.
    ``value_and_gradient``, from the block builders, is the fused pass: it
    returns the pair (the per-row smooth values, the gradient), bitwise
    equal to what ``rows[0]`` and ``smooth_gradient`` return one at a time.
    Passed to ``fista_minimize`` as ``smooth_gradient``, it spares every
    iteration a value-only pass at the momentum point.

    The callables of a W or T block's ``Subproblem`` write the block's Q x V
    grids into work arrays that they share, so one ``Subproblem`` must not
    be evaluated from two threads at once. No array they return is one of
    those work arrays.
    """

    smooth_value: Callable
    smooth_gradient: Callable
    prox: Callable
    nonsmooth_value: Optional[Callable] = None
    rows: Optional[tuple] = None
    value_and_gradient: Optional[Callable] = None


def fista_minimize(smooth_gradient, smooth_value, prox, x0, config=None,
                   nonsmooth_value=None, initial_step=None):
    """Accelerated proximal gradient with a backtracking line search per row.

    ``prox(point, step)`` must be the exact proximal map of the nonsmooth
    term at the given step size (pass-through for a purely smooth problem).

    ``smooth_value`` and ``nonsmooth_value`` return either one number, which
    makes the whole variable one row, or one value per row, an array shaped
    to broadcast against x with a length-1 axis for each axis a row spans:
    Q x 1 for the rows of [W | mu], 1 x N for the columns of C. The problem
    must then be the sum of independent row problems. Each row has its own
    step, an array of the values' shape that only ever shrinks in a solve
    and reaches ``prox`` as the step. It starts at 1.0, or, given
    ``initial_step`` (one carried step per row, such as an earlier solve's
    ``first_step``), at min(1, 4 x the carried step), and at 1.0 for a row
    whose carried step is at or below the step floor. A row whose
    candidate breaks the standard quadratic upper bound halves its step and
    the whole candidate is evaluated again; a row at the step floor accepts
    its candidate. The momentum is shared, and the solve stops when the
    relative change of the summed composite objective falls below
    ``relative_tolerance`` or ``max_iterations`` is reached.

    Returns each row's best iterate, so no row ends above its composite
    objective at ``x0``, ``final_objective``, their sum, and ``first_step``,
    each row's step as the first iteration accepted it.

    ``smooth_gradient(y)`` returns either the gradient at y or the pair
    (the smooth value at y, the gradient), such as a block builder's
    ``value_and_gradient``. Every iteration calls ``smooth_gradient(y)`` at
    the momentum point y; given a plain gradient it then calls
    ``smooth_value(y)``, and given the pair it makes no value call at y.
    Then it calls ``smooth_value`` at each candidate, right after ``prox``.
    The first momentum point is a copy of ``x0``, so its value is the start
    value: no call precedes the first gradient. With the pair an iteration
    costs one fused pass at y plus one value-only pass per candidate, and a
    solve makes no pass besides.
    """
    config = config or FistaConfig()
    penalty = nonsmooth_value if nonsmooth_value is not None else (lambda _: 0.0)
    x = np.array(x0, dtype=float)
    y = x.copy()
    t = 1.0
    used = 0
    for k in range(1, config.max_iterations + 1):
        out = smooth_gradient(y)
        f_y, grad = out if isinstance(out, tuple) else (smooth_value(y), out)
        grad = np.asarray(grad, dtype=float)
        if not np.isfinite(grad).all():
            raise NonFiniteGradientError(k)
        if k == 1:  # y is still x0
            best_f = np.array(f_y + penalty(y), dtype=float)
            best_x = x.copy()
            f_prev = float(np.add.reduce(best_f, None))
            # a row spans every axis along which its values have length 1
            shape = (1,) * (x.ndim - best_f.ndim) + best_f.shape
            axes = tuple(a for a, n in enumerate(shape) if n == 1)
            step = _start_step(shape, initial_step)
            half_curvature = 0.5 / step  # 1 / (2 step)
        # one backtracking slack for the iteration, from the last objective
        f_top = f_y + 1e-12 * max(1.0, abs(f_prev))
        while True:
            z = prox(y - step * grad, step)
            dz = z - y
            f_z = smooth_value(z)
            bound = f_top + np.add.reduce(dz * (grad + half_curvature * dz), axes,
                                          keepdims=True)
            shrink = f_z > bound
            if not np.logical_or.reduce(shrink, None):
                break
            shrink &= step > _STEP_FLOOR
            if not np.logical_or.reduce(shrink, None):
                break
            np.multiply(step, 0.5, out=step, where=shrink)
            np.multiply(half_curvature, 2.0, out=half_curvature, where=shrink)
        if k == 1:
            first_step = step.copy()
        f_comp = f_z + penalty(z)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = z + ((t - 1.0) / t_next) * (z - x)
        x, t = z, t_next
        used = k
        better = f_comp < best_f
        np.copyto(best_f, f_comp, where=better)
        np.copyto(best_x, z, where=better)
        f_now = float(np.add.reduce(f_comp, None))
        if abs(f_prev - f_now) <= config.relative_tolerance * max(1.0, abs(f_prev)):
            break
        f_prev = f_now
    return SubproblemResult(solution=best_x,
                            final_objective=float(np.add.reduce(best_f, None)),
                            iterations_used=used, first_step=first_step)


def _start_step(shape, carried):
    """Each row's first step: min(1, 4 x its carried step), or 1.0 without one.

    A carried step at or below the step floor starts again at 1.0, so no row
    stays frozen at the floor from one solve to the next.
    """
    if carried is None:
        return np.ones(shape)
    carried = np.broadcast_to(np.asarray(carried, dtype=float), shape)
    return np.where(carried > _STEP_FLOOR, np.minimum(1.0, 4.0 * carried), 1.0)


def prox_nonneg(x):
    """Euclidean projection onto the nonnegative orthant."""
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def prox_w(x, threshold):
    """Joint l1-plus-nonnegativity prox for an association row.

    Everything but the trailing (difficulty) slot is one-sided soft
    thresholded to max(0, v - threshold); the difficulty passes through
    untouched. Works on one row or a stack of rows, with one threshold or a
    column of them, one per row. Raises ValidationError for a threshold that
    is not finite and >= 0.
    """
    if not (np.isfinite(threshold) & np.greater_equal(threshold, 0.0)).all():
        raise ValidationError(f"threshold must be finite and >= 0, got {threshold!r}")
    return _prox_w(x, threshold)


def _prox_w(x, threshold):
    """``prox_w`` without the check, for the W block, whose thresholds are > 0."""
    out = np.array(x, dtype=float)
    weights = out[..., :-1]
    np.subtract(weights, threshold, out=weights)
    np.maximum(weights, 0.0, out=weights)
    return out


def grad_w_row(y_obs, c_obs, b_row, T, w_aug, tau, epsilon=1e-6):
    """Smooth-part gradient of one question's [w_i | mu_i] subproblem.

    ``c_obs`` is the (K+1) x m matrix of knowledge columns for that
    question's observed learners, with a trailing all-ones row multiplying
    the difficulty slot. An empty vocabulary (a length-0 ``b_row`` and a
    K x 0 ``T``) drops the word-count term, as in grades-only fits. The
    precision tau multiplies the Bernoulli residual, as the chain rule
    through the tau-scaled logit requires.
    """
    sub = w_row_subproblem(y_obs, c_obs, b_row, T, tau, 0.0, epsilon)
    return sub.smooth_gradient(np.asarray(w_aug, dtype=float))


def grad_c_column(y_obs, w_obs, mu_obs, c, gamma, tau):
    """Gradient of one learner's knowledge-column subproblem (fully smooth)."""
    sub = c_column_subproblem(y_obs, w_obs, mu_obs, gamma, tau)
    return sub.smooth_gradient(np.asarray(c, dtype=float))


def grad_t_column(b_col, W, t, eta, epsilon=1e-6):
    """Gradient of one word's profile-column subproblem.

    Rates are floored at epsilon inside the ratio so the gradient stays
    finite whatever the current iterate.
    """
    sub = t_column_subproblem(b_col, W, eta, epsilon)
    return sub.smooth_gradient(np.asarray(t, dtype=float))


def w_row_subproblem(y_obs, c_obs, b_row, T, tau, lam, epsilon=1e-6):
    """Composite problem for one row [w_i | mu_i] of the association block.

    Its callables share work arrays, so it must not be evaluated from two
    threads at once.
    """
    y = np.asarray(y_obs, dtype=float)
    return w_block_subproblem((np.arange(y.size), y), c_obs, b_row, T, tau, lam, epsilon)


def c_column_subproblem(y_obs, w_obs, mu_obs, gamma, tau):
    """Smooth problem for one learner column of C; identity prox."""
    y = np.asarray(y_obs, dtype=float)
    return c_block_subproblem((np.arange(y.size), y), w_obs, mu_obs, gamma, tau)


def t_column_subproblem(b_col, W, eta, epsilon=1e-6):
    """Composite problem for one word column of T; nonnegative projection.

    Its callables share work arrays, so it must not be evaluated from two
    threads at once.
    """
    return t_block_subproblem(np.asarray(b_col, dtype=float), W, eta, epsilon)


def _subproblem(value_and_gradient, value, prox, penalty=None):
    """The ``Subproblem`` of a builder whose values come per row.

    ``value`` and ``penalty`` give one value per row of the variable, and
    ``rows`` hands them to ``fista_minimize``; ``smooth_value`` and
    ``nonsmooth_value`` sum them. ``value_and_gradient`` is the fused pass,
    and ``smooth_gradient`` keeps only its gradient.
    """
    def summed(per_row):
        return lambda x: float(np.add.reduce(per_row(x), None))

    return Subproblem(summed(value), lambda x: value_and_gradient(x)[1], prox,
                      None if penalty is None else summed(penalty),
                      (value, penalty), value_and_gradient)


def _observed_bernoulli(cells, y, tau):
    """Per-row values, and fused values and slope grid, of slacks Z graded y.

    cells index Z row-major, in any order; unobserved cells get slope zero.
    Both callables take Z and the axis of its values: per row of a 2-D Z
    (``axis=1``, Q x 1) or per column (``axis=0``, 1 x N), each cell's row or
    column formed on first use per axis; a 1-D Z is one row. So one set-up
    serves the W block's rows and the C block's columns. A soft grade y in
    (0, 1), which the per-row views accept, is scored as the cross-entropy
    y * nll(1) + (1 - y) * nll(0): a correct grade of weight y and an
    incorrect one of weight 1 - y on the same cell.
    """
    _check_positive("tau", tau)
    cells, y = np.asarray(cells), np.asarray(y, dtype=float)
    if not ((y >= 0.0) & (y <= 1.0)).all():
        raise ValidationError("grades must lie in [0, 1]")
    soft = np.flatnonzero((y > 0.0) & (y < 1.0))
    cells = np.concatenate([cells, cells[soft]])
    m = _signed_precision(np.concatenate([y > 0.0, np.zeros(soft.size)]), tau)
    weight = np.concatenate([np.where(y > 0.0, y, 1.0), 1.0 - y[soft]])
    slope_scale = weight * m
    # (axis, Z.shape) -> (each cell's row or column, their number, values' shape)
    groups = {}

    def per_row(Z, axis, terms):
        if soft.size:
            terms = weight * terms
        if Z.ndim == 1:
            return np.add.reduce(terms)
        try:
            group, n, shape = groups[axis, Z.shape]
        except KeyError:
            rows, cols = Z.shape
            group, n, shape = groups[axis, Z.shape] = (
                (cells // cols, rows, (rows, 1)) if axis == 1
                else (cells % cols, cols, (1, cols)))
        return np.bincount(group, terms, n).reshape(shape)

    def value(Z, axis):
        return per_row(Z, axis, _bernoulli_terms(*_bernoulli_margins(m, Z.take(cells))))

    def value_and_slope(Z, axis):
        u, e = _bernoulli_margins(m, Z.take(cells))
        s = _bernoulli_slopes(slope_scale, u, e)
        return (per_row(Z, axis, _bernoulli_terms(u, e)),
                np.bincount(cells, s, Z.size).reshape(Z.shape))

    return value, value_and_slope


class _FitBlocks:
    """The three block subproblems over one fit's data, set up once.

    ``grades = (cells, y)`` and the Q x V ``counts`` are the fit's data.
    What they fix is formed on first use and kept: one Bernoulli helper for
    both axes, with the question or learner of each cell it groups by, the
    float counts, and the Q x V work arrays of the counts' shape that the W
    and T blocks evaluate into. The W and T blocks floor every rate of
    their values at ``_RATE_FLOOR`` and of their slopes at ``epsilon``.
    Every subproblem built here shares the work arrays, so no two of them
    may be evaluated from two threads at once; the estimator evaluates one
    at a time. ``w``, ``c`` and ``t`` build a sweep's subproblems from the
    factors alone. A fit forms one and drops it when it ends; no two fits
    share one. A public builder forms one for its one block, so it forms
    only what that block uses and passes None for the rest.
    """

    def __init__(self, grades, counts, tau, epsilon):
        self._grades, self._raw_counts = grades, counts
        self._tau, self._epsilon = tau, epsilon

    @cached_property
    def _bernoulli(self):
        return _observed_bernoulli(*self._grades, self._tau)

    @cached_property
    def _counts(self):
        return np.asarray(self._raw_counts, dtype=float)

    @cached_property
    def _poisson_grids(self):
        """Two work arrays of the counts' shape: raw rates, then terms; rates or ratios.

        Every W and T block evaluation of the fit writes into them, so none
        allocates a Q x V array. Nothing returned from an evaluation is one
        of them.
        """
        shape = self._counts.shape
        return np.empty(shape), np.empty(shape)

    def w(self, c_aug, T, lam):
        """The [W | mu] block at knowledge ``c_aug`` and profiles ``T``."""
        bern_value, bern_value_and_slope = self._bernoulli
        counts, epsilon = self._counts, self._epsilon
        # The count term over zero words is exactly 0, but the kernel calls on
        # empty arrays still cost time in every evaluation, so skip them.
        has_words = T.shape[1] > 0
        row_sums = T.sum(axis=1)  # the slope's constant part, ones @ T.T
        ones = np.ones((T.shape[1], 1))  # sums the count terms per row

        def rates(X):
            """The raw rates at X, in the first work array, and the second."""
            raw, a = self._poisson_grids
            return np.matmul(X[..., :-1], T, out=raw), a

        def poisson(raw, a):
            return _poisson_terms(counts, _floored_rate(raw, _RATE_FLOOR, a), raw) @ ones

        def value(X):
            bern = bern_value(X @ c_aug, 1)
            if not has_words:
                return bern
            return bern + poisson(*rates(X))

        def value_and_gradient(X):
            bern, S = bern_value_and_slope(X @ c_aug, 1)
            g = S @ c_aug.T
            if not has_words:
                return bern, g
            raw, a = rates(X)
            r = _poisson_ratio(counts, _floored_rate(raw, epsilon, a), a)
            g[..., :-1] += row_sums - r @ T.T
            return bern + poisson(raw, a), g

        def prox(point, step):
            return _prox_w(point, step * lam)

        # lam for each weight and 0 for the difficulty: |X| @ l1 is the l1 term per row
        l1 = np.append(np.full(T.shape[0], lam), 0.0)[:, None]

        def penalty(X):
            return np.abs(X) @ l1

        return _subproblem(value_and_gradient, value, prox, penalty)

    def c(self, W, mu, gamma):
        """The knowledge block at associations ``W`` and difficulties ``mu``."""
        bern_value, bern_value_and_slope = self._bernoulli
        half_gamma = np.full((1, W.shape[1]), 0.5 * gamma)

        def slacks(C):
            return ((W @ C).T + mu).T

        def ridge(C):
            return half_gamma @ (C * C)

        def value(C):
            return bern_value(slacks(C), 0) + ridge(C)

        def value_and_gradient(C):
            bern, S = bern_value_and_slope(slacks(C), 0)
            return bern + ridge(C), W.T @ S + gamma * C

        def prox(point, step):
            return point

        return _subproblem(value_and_gradient, value, prox)

    def t(self, W, eta):
        """The word-profile block at associations ``W``."""
        counts, epsilon = self._counts, self._epsilon
        half_eta = np.full((1, W.shape[1]), 0.5 * eta)
        ones = np.ones((1, W.shape[0]))  # sums the count terms per column
        # the slope's constant part, W.T @ ones: one column of K sums, broadcast
        # over the word columns of a block
        col_sums = W.sum(axis=0)
        if counts.ndim == 2:
            col_sums = col_sums[:, None]

        def rates(T):
            """The raw rates at T, in the first work array, and the second."""
            raw, a = self._poisson_grids
            return np.matmul(W, T, out=raw), a

        def value_at(T, raw, a):
            a = _floored_rate(raw, _RATE_FLOOR, a)
            return ones @ _poisson_terms(counts, a, raw) + half_eta @ (T * T)

        def value(T):
            return value_at(T, *rates(T))

        def value_and_gradient(T):
            raw, a = rates(T)
            r = _poisson_ratio(counts, _floored_rate(raw, epsilon, a), a)
            g = col_sums - W.T @ r + eta * T
            return value_at(T, raw, a), g

        def prox(point, step):
            return prox_nonneg(point)

        return _subproblem(value_and_gradient, value, prox)


def w_block_subproblem(grades, c_aug, counts, T, tau, lam, epsilon=1e-6):
    """Stacked [W | mu] problem covering every question at once.

    ``grades = (cells, y)`` indexes the Q x N slacks X @ c_aug (see
    ``_observed_bernoulli``); ``c_aug`` is (K+1) x N with a trailing ones
    row. An empty vocabulary (``counts`` with zero columns, a K x 0 ``T``)
    drops the word-count term. A 1-D variable is the problem of a single
    row. Values come per row, Q x 1: the grades by question, the counts'
    row sums and the l1 term of each row. Its callables share Q x V work
    arrays, so it must not be evaluated from two threads at once.
    """
    return _FitBlocks(grades, counts, tau, epsilon).w(c_aug, T, lam)


def c_block_subproblem(grades, W, mu, gamma, tau):
    """Stacked knowledge problem over every learner column of C, or one 1-D column.

    Values come per column, 1 x N: the grades by learner plus the ridge.
    """
    return _FitBlocks(grades, None, tau, None).c(W, mu, gamma)


def t_block_subproblem(counts, W, eta, epsilon=1e-6):
    """Stacked word-profile problem covering every column of T, or one 1-D column.

    Values come per column, 1 x V: the Poisson value plus the ridge. Its
    callables share Q x V work arrays, so it must not be evaluated from two
    threads at once.
    """
    return _FitBlocks(None, counts, None, epsilon).t(W, eta)
