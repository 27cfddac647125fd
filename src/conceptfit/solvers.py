"""FISTA engine plus the three block subproblem definitions.

``fista_minimize`` runs accelerated proximal gradient with a backtracking
line search on a variable of any ndarray shape (inner products are taken
over all elements). The ``*_block_subproblem`` builders package the smooth
value/gradient, prox, and nonsmooth value of a whole block: every
[w_i | mu_i] row of the associations, every learner column of C, or every
word column of T, which is what the outer loop solves. Their smooth parts
are sums of the likelihood kernels in ``model``, the Bernoulli ones taken
over the observed grades only.

The per-row ``grad_*`` and ``*_subproblem`` functions are one-row views of
the same block builders: a 1-D [w_i | mu_i] row or knowledge column with
all its slacks observed, and a 1-D word column of T.
The rows of a block are independent problems, but one FISTA run on the
stacked variable shares a single step size and stopping test across them,
so it does not in general reach each row's minimizer: a row with a large
gradient shrinks the step for the whole block.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import NonFiniteGradientError, ValidationError
from .model import bernoulli_nll, bernoulli_slope, poisson_nll, poisson_slope

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


@dataclass(frozen=True)
class FistaConfig:
    """Inner-solver knobs. The step size only ever shrinks."""

    max_iterations: int = 200
    relative_tolerance: float = 1e-7

    def __post_init__(self):
        if not (isinstance(self.max_iterations, int) and self.max_iterations >= 1):
            raise ValidationError("max_iterations must be an integer >= 1")
        if not self.relative_tolerance > 0:
            raise ValidationError("relative_tolerance must be > 0")


@dataclass(frozen=True)
class SubproblemResult:
    solution: np.ndarray
    final_objective: float
    iterations_used: int


class Subproblem(NamedTuple):
    """Pieces of one composite problem: min smooth(x) + nonsmooth(x)."""

    smooth_value: Callable
    smooth_gradient: Callable
    prox: Callable
    nonsmooth_value: Optional[Callable] = None


def fista_minimize(smooth_gradient, smooth_value, prox, x0, config=None,
                   nonsmooth_value=None):
    """Accelerated proximal gradient with backtracking line search.

    ``prox(point, step)`` must be the exact proximal map of the nonsmooth
    term at the given step size (pass-through for a purely smooth problem).
    Plain momentum without restart; the step is halved until the standard
    quadratic upper bound holds and is carried over between iterations.
    Stops when the relative change of the composite objective falls below
    ``relative_tolerance`` or ``max_iterations`` is reached.

    Returns the best iterate visited, so the reported objective never
    exceeds the composite objective at ``x0``.
    """
    config = config or FistaConfig()
    penalty = nonsmooth_value if nonsmooth_value is not None else (lambda _: 0.0)
    x = np.array(x0, dtype=float)
    y = x.copy()
    t = 1.0
    step = 1.0
    f_prev = float(smooth_value(x)) + float(penalty(x))
    best_x, best_f = x.copy(), f_prev
    used = 0
    for k in range(1, config.max_iterations + 1):
        grad = np.asarray(smooth_gradient(y), dtype=float)
        if not np.all(np.isfinite(grad)):
            raise NonFiniteGradientError(k)
        f_y = float(smooth_value(y))
        while True:
            z = prox(y - step * grad, step)
            dz = z - y
            f_z = float(smooth_value(z))
            bound = (
                f_y
                + float(np.vdot(grad, dz))
                + float(np.vdot(dz, dz)) / (2.0 * step)
            )
            if f_z <= bound + 1e-12 * max(1.0, abs(f_y)) or step <= _STEP_FLOOR:
                break
            step *= 0.5
        f_comp = f_z + float(penalty(z))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = z + ((t - 1.0) / t_next) * (z - x)
        x, t = z, t_next
        used = k
        if f_comp < best_f:
            best_f = f_comp
            best_x = z.copy()
        if abs(f_prev - f_comp) <= config.relative_tolerance * max(1.0, abs(f_prev)):
            break
        f_prev = f_comp
    return SubproblemResult(solution=best_x, final_objective=best_f,
                            iterations_used=used)


def prox_nonneg(x):
    """Euclidean projection onto the nonnegative orthant."""
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def prox_w(x, threshold):
    """Joint l1-plus-nonnegativity prox for an association row.

    Everything but the trailing (difficulty) slot is one-sided soft
    thresholded to max(0, v - threshold); the difficulty passes through
    untouched. Works on one row or a stack of rows.
    """
    if threshold < 0:
        raise ValidationError("threshold must be >= 0")
    arr = np.asarray(x, dtype=float)
    out = arr.copy()
    out[..., :-1] = np.maximum(arr[..., :-1] - threshold, 0.0)
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
    """Composite problem for one row [w_i | mu_i] of the association block."""
    y = np.asarray(y_obs, dtype=float)
    return w_block_subproblem((np.arange(y.size), y), c_obs, b_row, T, tau, lam, epsilon)


def c_column_subproblem(y_obs, w_obs, mu_obs, gamma, tau):
    """Smooth problem for one learner column of C; identity prox."""
    y = np.asarray(y_obs, dtype=float)
    return c_block_subproblem((np.arange(y.size), y), w_obs, mu_obs, gamma, tau)


def t_column_subproblem(b_col, W, eta, epsilon=1e-6):
    """Composite problem for one word column of T; nonnegative projection."""
    return t_block_subproblem(np.asarray(b_col, dtype=float), W, eta, epsilon)


def _observed_bernoulli(cells, y, tau):
    """Bernoulli value and slope grid of a slack grid Z graded y at ``cells``.

    cells index Z row-major, in any order; unobserved cells get slope zero.
    """

    def value(Z):
        return float(np.sum(bernoulli_nll(y, np.take(Z, cells), tau)))

    def slope(Z):
        s = bernoulli_slope(y, np.take(Z, cells), tau)
        return np.bincount(cells, s, Z.size).reshape(Z.shape)

    return value, slope


def w_block_subproblem(grades, c_aug, counts, T, tau, lam, epsilon=1e-6):
    """Stacked [W | mu] problem covering every question at once.

    ``grades = (cells, y)`` indexes the Q x N slacks X @ c_aug (see
    ``_observed_bernoulli``); ``c_aug`` is (K+1) x N with a trailing ones
    row. An empty vocabulary (``counts`` with zero columns, a K x 0 ``T``)
    drops the word-count term. A 1-D variable is the problem of a single row.
    """
    bern_value, bern_slope = _observed_bernoulli(*grades, tau)
    # The count term over zero words is exactly 0, but the kernel calls on
    # empty arrays still cost time in every evaluation, so skip them.
    has_words = T.shape[1] > 0

    def value(X):
        bern = bern_value(X @ c_aug)
        if not has_words:
            return bern
        return bern + float(np.sum(poisson_nll(counts, X[..., :-1] @ T, epsilon)))

    def gradient(X):
        g = bern_slope(X @ c_aug) @ c_aug.T
        if has_words:
            g[..., :-1] += poisson_slope(counts, X[..., :-1] @ T, epsilon) @ T.T
        return g

    def prox(point, step):
        return prox_w(point, step * lam)

    def penalty(X):
        return lam * float(np.sum(np.abs(X[..., :-1])))

    return Subproblem(value, gradient, prox, penalty)


def c_block_subproblem(grades, W, mu, gamma, tau):
    """Stacked knowledge problem over every learner column of C, or one 1-D column."""
    bern_value, bern_slope = _observed_bernoulli(*grades, tau)

    def value(C):
        return bern_value(((W @ C).T + mu).T) + 0.5 * gamma * float(np.vdot(C, C))

    def gradient(C):
        return W.T @ bern_slope(((W @ C).T + mu).T) + gamma * C

    def prox(point, step):
        return point

    return Subproblem(value, gradient, prox)


def t_block_subproblem(counts, W, eta, epsilon=1e-6):
    """Stacked word-profile problem covering every column of T."""

    def value(T):
        pois = float(np.sum(poisson_nll(counts, W @ T, epsilon)))
        return pois + 0.5 * eta * float(np.vdot(T, T))

    def gradient(T):
        return W.T @ poisson_slope(counts, W @ T, epsilon) + eta * T

    def prox(point, step):
        return prox_nonneg(point)

    return Subproblem(value, gradient, prox)
