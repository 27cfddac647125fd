"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the raw formulas with plain
Python loops and math calls, separate from the package's vectorized code
paths, so agreement is evidence rather than tautology.
"""

import itertools
import math

import numpy as np


def naive_bernoulli_nll(y, z, tau):
    # -log p(y) written as softplus so saturated probabilities keep full
    # precision (1 - p underflows for moderate tau*z and would poison
    # finite differences)
    u = -tau * z if y == 1 else tau * z
    return math.log1p(math.exp(-abs(u))) + max(u, 0.0)


def piecewise_inverse_logit(x):
    """Logistic map gathered and scattered through the sign masks.

    Each branch exponentiates only the entries of its own sign, so it never
    sees a positive argument.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def logaddexp_bernoulli_nll(y, z, tau):
    """Bernoulli negative log-likelihood with numpy's own softplus."""
    tz = tau * np.asarray(z, dtype=float)
    return np.logaddexp(0.0, -tz) + (1.0 - np.asarray(y, dtype=float)) * tz


def naive_poisson_nll(b, a_raw, epsilon=1e-6):
    a = max(a_raw, epsilon)
    return a - b * math.log(a)


def naive_objective(entries, counts, W, mu, C, T, lam, gamma, eta, tau,
                    epsilon=1e-6):
    """Straight-from-formula objective with scalar loops."""
    total = 0.0
    for i, j, y in entries:
        z = sum(W[i][k] * C[k][j] for k in range(len(C))) + mu[i]
        total += naive_bernoulli_nll(y, z, tau)
    Q = len(W)
    V = len(T[0]) if len(T) else 0
    for i in range(Q):
        for v in range(V):
            a_raw = sum(W[i][k] * T[k][v] for k in range(len(T)))
            total += naive_poisson_nll(counts[i][v], a_raw, epsilon)
    total += lam * sum(abs(w) for row in W for w in row)
    total += 0.5 * gamma * sum(c * c for row in C for c in row)
    total += 0.5 * eta * sum(t * t for row in T for t in row)
    return total


def naive_w_value(y_obs, c_obs, b_row, T, w_aug, tau, epsilon=1e-6):
    """Smooth part of one [w_i | mu_i] subproblem, scalar loops."""
    total = 0.0
    K = len(w_aug) - 1
    for m in range(len(y_obs)):
        z = sum(w_aug[k] * c_obs[k][m] for k in range(K + 1))
        total += naive_bernoulli_nll(int(y_obs[m]), z, tau)
    if b_row is not None:
        for v in range(len(b_row)):
            a_raw = sum(w_aug[k] * T[k][v] for k in range(K))
            total += naive_poisson_nll(b_row[v], a_raw, epsilon)
    return total


def naive_c_value(y_obs, w_obs, mu_obs, c, gamma, tau):
    total = 0.0
    for m in range(len(y_obs)):
        z = sum(w_obs[m][k] * c[k] for k in range(len(c))) + mu_obs[m]
        total += naive_bernoulli_nll(int(y_obs[m]), z, tau)
    return total + 0.5 * gamma * sum(v * v for v in c)


def naive_t_value(b_col, W, t, eta, epsilon=1e-6):
    total = 0.0
    for i in range(len(b_col)):
        a_raw = sum(W[i][k] * t[k] for k in range(len(t)))
        total += naive_poisson_nll(b_col[i], a_raw, epsilon)
    return total + 0.5 * eta * sum(v * v for v in t)


def central_difference(f, x, h=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        bump = np.zeros_like(x)
        bump[idx] = h
        grad[idx] = (f(x + bump) - f(x - bump)) / (2.0 * h)
    return grad


def projected_gradient(value, gradient, project, x0, iterations=100_000):
    """Monotone projected-gradient oracle with a fresh line search per step.

    No momentum; the step is retried at double its last accepted size and
    halved until the quadratic bound holds. Breaks early once the value has
    been bitwise-constant for 50 iterations (further iterations cannot move
    below double precision).
    """
    x = np.array(x0, dtype=float)
    fx = float(value(x))
    step = 1.0
    stall = 0
    for _ in range(iterations):
        g = np.asarray(gradient(x), dtype=float)
        step = min(step * 2.0, 1e12)
        while True:
            cand = project(x - step * g)
            fc = float(value(cand))
            d = cand - x
            bound = fx + float(np.vdot(g, d)) + float(np.vdot(d, d)) / (2.0 * step)
            if fc <= bound + 1e-12 * max(1.0, abs(fx)):
                break
            step *= 0.5
            if step < 1e-20:
                cand, fc = x, fx
                break
        if fc < fx:
            x, fx = cand, fc
            stall = 0
        else:
            stall += 1
            if stall >= 50:
                break
    return x, fx


def relative_error(approx, exact):
    denom = max(np.max(np.abs(exact)), 1e-12)
    return float(np.max(np.abs(np.asarray(approx) - np.asarray(exact))) / denom)


def random_instance(rng, num_questions, num_learners, num_words, num_concepts,
                    observe_prob=0.7):
    """Random factors and data keeping Poisson rates well away from the floor."""
    W = rng.uniform(0.1, 1.1, size=(num_questions, num_concepts))
    C = rng.standard_normal((num_concepts, num_learners))
    mu = rng.standard_normal(num_questions)
    T = rng.uniform(0.1, 1.1, size=(num_concepts, num_words))
    entries = []
    for i in range(num_questions):
        for j in range(num_learners):
            if rng.random() < observe_prob:
                entries.append((i, j, int(rng.random() < 0.5)))
    if not entries:
        entries.append((0, 0, 1))
    counts = rng.poisson(W @ T)
    return W, mu, C, T, entries, counts


def best_permutation_similarity(W_fit, W_true):
    """Mean per-concept cosine similarity under the best concept relabeling."""
    K = W_true.shape[1]
    best = -1.0
    for perm in itertools.permutations(range(K)):
        sims = []
        for k in range(K):
            a, b = W_fit[:, perm[k]], W_true[:, k]
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            sims.append(float(a @ b / (na * nb)) if na > 0 and nb > 0 else 0.0)
        best = max(best, float(np.mean(sims)))
    return best
