"""Tests of the benchmark's references; they need numpy only.

    python3 bench/selftest.py

Kept out of the repository's test suite on purpose (the file name does not
match ``test_*.py``), so the harness does not lengthen it.
"""

import unittest

import numpy as np

import reference as ref

EPS = 1e-6


def toy(rng, Q=4, N=5, V=3, K=2):
    qi, lj = (a.ravel() for a in np.meshgrid(np.arange(Q), np.arange(N), indexing="ij"))
    keep = rng.random(qi.size) < 0.8
    y = (rng.random(qi.size) < 0.5).astype(float)
    counts = rng.poisson(2.0, size=(Q, V)).astype(float) + 1.0
    return qi[keep], lj[keep], y[keep], counts


def solve(qi, lj, y, counts, Q, N, V, K, lam, gamma, eta, tau, iterations=5_000):
    """Plain proximal gradient on all four blocks at once, with backtracking."""
    rng = np.random.default_rng(0)
    x = [rng.uniform(0.5, 1.0, (Q, K)), np.zeros(Q), rng.standard_normal((K, N)),
         rng.uniform(0.5, 1.0, (K, V))]

    def value(W, mu, C, T):
        return ref.objective(qi, lj, y, counts, W, mu, C, T, lam, gamma, eta, tau, EPS)

    def prox_step(x, step):
        W, mu, C, T = x
        gW, gmu, gC, gT = ref.gradients(qi, lj, y, counts, W, mu, C, T, tau, EPS)
        return [np.maximum(W - step * (gW + lam), 0.0), mu - step * gmu,
                C - step * (gC + gamma * C), np.maximum(T - step * (gT + eta * T), 0.0)]

    f, step = value(*x), 1.0
    for _ in range(iterations):
        while True:
            cand = prox_step(x, step)
            fc = value(*cand)
            if fc <= f:
                break
            step *= 0.5
        x, f, step = cand, fc, min(step * 1.5, 1.0)
        if ref.stationarity_residual(qi, lj, y, counts, *x, lam, gamma, eta, tau, EPS) < 1e-8:
            break
    return x


class ResidualTest(unittest.TestCase):
    def test_zero_at_a_solved_toy_problem(self):
        rng = np.random.default_rng(3)
        Q, N, V, K = 4, 5, 3, 2
        qi, lj, y, counts = toy(rng, Q, N, V, K)
        W, mu, C, T = solve(qi, lj, y, counts, Q, N, V, K, 0.3, 0.3, 0.3, 2.0)
        residual = ref.stationarity_residual(qi, lj, y, counts, W, mu, C, T,
                                             0.3, 0.3, 0.3, 2.0, EPS)
        self.assertLess(residual, 1e-6)

    def test_large_at_a_floored_cell_with_a_count(self):
        rng = np.random.default_rng(4)
        Q, N, V, K = 4, 5, 3, 2
        qi, lj, y, counts = toy(rng, Q, N, V, K)
        W = rng.uniform(0.5, 1.0, (Q, K))
        W[0] = 0.0  # every rate of question 0 sits on the floor; its counts are >= 1
        T = np.ones((K, V))
        residual = ref.stationarity_residual(
            qi, lj, y, counts, W, np.zeros(Q), rng.standard_normal((K, N)), T,
            0.3, 0.3, 0.3, 2.0, EPS)
        self.assertGreaterEqual(residual, 1e6)


class ObjectiveTest(unittest.TestCase):
    def test_vectorised_equals_scalar_loop(self):
        rng = np.random.default_rng(5)
        Q, N, V, K = 3, 4, 5, 2
        qi, lj, y, counts = toy(rng, Q, N, V, K)
        W = rng.uniform(0.0, 1.0, (Q, K))
        W[1, 0] = 0.0
        mu, C = rng.standard_normal(Q), 3.0 * rng.standard_normal((K, N))
        T = rng.uniform(0.0, 1.0, (K, V))
        T[:, 2] = 0.0  # a column of floored rates
        args = (0.3, 0.4, 0.5, 2.0, EPS)
        fast = ref.objective(qi, lj, y, counts, W, mu, C, T, *args)
        entries = [(int(i), int(j), int(g)) for i, j, g in zip(qi, lj, y)]
        slow = ref.objective_loop(entries, counts.tolist(), W.tolist(), mu.tolist(),
                                  C.tolist(), T.tolist(), *args)
        self.assertAlmostEqual(fast, slow, delta=1e-12 * abs(slow))
        no_text = ref.objective(qi, lj, y, None, W, mu, C, T[:, :0], *args)
        slow_no_text = ref.objective_loop(entries, counts.tolist(), W.tolist(),
                                          mu.tolist(), C.tolist(), [[] for _ in range(K)],
                                          *args)
        self.assertAlmostEqual(no_text, slow_no_text, delta=1e-12 * abs(slow_no_text))


if __name__ == "__main__":
    unittest.main()
