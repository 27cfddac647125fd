"""The benchmark's own computations, written from the model's formulas.

Nothing here calls ``conceptfit.model`` or ``conceptfit.solvers``: these are
the references the program's outputs are checked against.

Notation: entries are index arrays ``qi, lj`` with grades ``y``; ``counts``
is the Q x V word-count matrix. The objective is

    sum_obs softplus(-tau z) + (1 - y) tau z          z = w_i . c_j + mu_i
  + sum_iv a_iv - b_iv log a_iv                       a = max(W T, eps)
  + lam |W|_1 + gamma/2 |C|^2 + eta/2 |T|^2

with W >= 0 and T >= 0.
"""

import itertools
import math

import numpy as np


def logistic(x):
    """1 / (1 + exp(-x)), without overflow on either side."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _slack(qi, lj, W, mu, C):
    return np.einsum("mk,km->m", W[qi], C[:, lj]) + mu[qi]


def objective(qi, lj, y, counts, W, mu, C, T, lam, gamma, eta, tau, epsilon):
    """Full objective; ``counts=None`` drops the word channel."""
    tz = tau * _slack(qi, lj, W, mu, C)
    total = float(np.sum(np.logaddexp(0.0, -tz) + (1.0 - y) * tz))
    if counts is not None:
        a = np.maximum(W @ T, epsilon)
        total += float(np.sum(a - counts * np.log(a)))
    return (total + lam * float(np.abs(W).sum()) + 0.5 * gamma * float((C * C).sum())
            + 0.5 * eta * float((T * T).sum()))


def objective_loop(entries, counts, W, mu, C, T, lam, gamma, eta, tau, epsilon):
    """Scalar-loop objective, the reference for ``objective`` in the self-tests."""
    total = 0.0
    K = len(C)
    for i, j, y in entries:
        tz = tau * (sum(W[i][k] * C[k][j] for k in range(K)) + mu[i])
        total += math.log1p(math.exp(-abs(tz))) + max(-tz, 0.0) + (1 - y) * tz
    for i in range(len(W)):
        for v in range(len(T[0]) if K else 0):
            a = max(sum(W[i][k] * T[k][v] for k in range(K)), epsilon)
            total += a - counts[i][v] * math.log(a)
    total += lam * sum(abs(x) for row in W for x in row)
    total += 0.5 * gamma * sum(x * x for row in C for x in row)
    total += 0.5 * eta * sum(x * x for row in T for x in row)
    return total


def gradients(qi, lj, y, counts, W, mu, C, T, tau, epsilon):
    """Smooth-part gradients (gW, gmu, gC, gT).

    The Poisson part uses the floored rate inside the ratio, as the solver
    does: d/dA sum(a - b log a) = 1 - b / max(A, eps).
    """
    Q, K = W.shape
    N = C.shape[1]
    r = tau * (logistic(tau * _slack(qi, lj, W, mu, C)) - y)
    R = np.zeros((Q, N))
    np.add.at(R, (qi, lj), r)
    gW = R @ C.T
    gmu = R.sum(axis=1)
    gC = W.T @ R
    gT = np.zeros_like(T)
    if counts is not None and T.size:
        ratio = 1.0 - counts / np.maximum(W @ T, epsilon)
        gW = gW + ratio @ T.T
        gT = W.T @ ratio
    return gW, gmu, gC, gT


def stationarity_residual(qi, lj, y, counts, W, mu, C, T, lam, gamma, eta, tau,
                          epsilon):
    """Largest entry of the unit-step prox-gradient residual x - prox(x - g).

    The prox is one-sided soft thresholding for W, the nonnegative
    projection for T and the identity for mu and C. It is 0 exactly at a
    first-order stationary point.
    """
    gW, gmu, gC, gT = gradients(qi, lj, y, counts, W, mu, C, T, tau, epsilon)
    parts = [
        W - np.maximum(W - gW - lam, 0.0),
        gmu,
        gC + gamma * C,
    ]
    if counts is not None and T.size:
        parts.append(T - np.maximum(T - (gT + eta * T), 0.0))
    return max(float(np.max(np.abs(p))) for p in parts)


def stationarity_threshold(num_observed, total_count):
    """Largest residual a fit may leave and still count as stationary.

    Fits stop on a relative objective change of 1e-5, not at an exact
    stationary point, and the residual they leave grows with the data they
    fit; the threshold grows as the square root of the number of grades plus
    word occurrences. On the benchmark's workloads it is 4.9 to 27, over
    60 times the largest residual of a fit that converged (0.42), while a
    cell whose rate sits on the 1e-6 floor with a nonzero count contributes
    about 1e6 on its own.
    """
    return 0.25 * math.sqrt(num_observed + total_count)


def heldout_likelihood(qi, lj, y, W, mu, C, tau):
    p = logistic(tau * _slack(qi, lj, W, mu, C))
    return float(np.mean(np.where(y == 1, p, 1.0 - p)))


def recovery(W_fit, W_true):
    """Mean per-concept cosine of fitted to true W under the best relabeling."""
    K = W_true.shape[1]
    norms_fit = np.linalg.norm(W_fit, axis=0)
    norms_true = np.linalg.norm(W_true, axis=0)
    best = -1.0
    for perm in itertools.permutations(range(K)):
        sims = []
        for k in range(K):
            nf, nt = norms_fit[perm[k]], norms_true[k]
            dot = float(W_fit[:, perm[k]] @ W_true[:, k])
            sims.append(dot / (nf * nt) if nf > 0 and nt > 0 else 0.0)
        best = max(best, sum(sims) / K)
    return best
