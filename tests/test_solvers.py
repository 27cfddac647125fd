import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from pytest import approx

from conceptfit import (
    FistaConfig,
    NonFiniteGradientError,
    ValidationError,
    c_column_subproblem,
    fista_minimize,
    grad_c_column,
    grad_t_column,
    grad_w_row,
    inverse_logit,
    prox_nonneg,
    prox_w,
    t_column_subproblem,
    w_row_subproblem,
)
from conceptfit.solvers import (
    c_block_subproblem,
    t_block_subproblem,
    w_block_subproblem,
)
from oracles import (
    central_difference,
    naive_c_value,
    naive_t_value,
    naive_w_value,
    projected_gradient,
    random_instance,
    relative_error,
)


def identity_prox(point, step):
    return point


def w_row_pieces(rng, Q=6, N=7, V=8, K=3, with_text=True):
    W, mu, C, T, entries, counts = random_instance(rng, Q, N, V, K)
    i = int(rng.integers(Q))
    obs = [(j, y) for qi, j, y in entries if qi == i]
    y_obs = np.array([y for _, y in obs], dtype=float)
    c_obs = np.vstack([C[:, [j for j, _ in obs]], np.ones((1, len(obs)))])
    w_aug = np.concatenate([W[i], [mu[i]]])
    b_row = counts[i].astype(float) if with_text else None
    return y_obs, c_obs, b_row, (T if with_text else None), w_aug


class TestProxOperators:
    def test_prox_nonneg_clips(self):
        assert prox_nonneg(np.array([1.0, -2.0, 0.0])) == approx([1.0, 0.0, 0.0])

    def test_prox_nonneg_idempotent_on_feasible(self, rng):
        x = rng.uniform(0, 3, size=6)
        assert prox_nonneg(x) == approx(x)

    def test_prox_nonneg_is_projection(self, rng):
        # no feasible point is closer than the prox output
        for _ in range(50):
            x = rng.standard_normal(5)
            p = prox_nonneg(x)
            y = rng.uniform(0, 4, size=5)
            assert np.linalg.norm(x - p) <= np.linalg.norm(x - y) + 1e-12

    def test_prox_w_example(self):
        out = prox_w(np.array([2.0, 0.3, -1.0, -0.7]), 0.5)
        assert out == approx([1.5, 0.0, 0.0, -0.7])

    def test_prox_w_zero_threshold_matches_nonneg(self, rng):
        x = rng.standard_normal(5)
        out = prox_w(x, 0.0)
        assert out[:-1] == approx(prox_nonneg(x[:-1]))
        assert out[-1] == x[-1]

    def test_prox_w_negative_threshold_rejected(self):
        with pytest.raises(ValidationError):
            prox_w(np.zeros(3), -0.1)

    def test_prox_w_matches_grid_search(self, rng):
        # exact minimizer of thr*||w||_1 + 0.5*||w - x||^2 over w >= 0, K=2
        thr = 0.37
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, size=3)
            got = prox_w(x, thr)
            axis = np.arange(0.0, 2.5, 1e-3)
            f1 = thr * axis + 0.5 * (axis - x[0]) ** 2
            f2 = thr * axis + 0.5 * (axis - x[1]) ** 2
            best = (axis[np.argmin(f1)], axis[np.argmin(f2)])
            assert got[0] == approx(best[0], abs=1e-3)
            assert got[1] == approx(best[1], abs=1e-3)
            assert got[2] == x[2]

    @given(
        a=arrays(float, 5, elements=st.floats(-10, 10)),
        b=arrays(float, 5, elements=st.floats(-10, 10)),
        thr=st.floats(0, 3),
    )
    @settings(max_examples=200)
    def test_both_proxes_idempotent_and_nonexpansive(self, a, b, thr):
        # projection idempotence: re-projecting a feasible output is a no-op
        pa, pb = prox_nonneg(a), prox_nonneg(b)
        assert prox_nonneg(pa) == approx(pa)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12
        wa, wb = prox_w(a, thr), prox_w(b, thr)
        assert prox_w(wa, 0.0) == approx(wa)
        # thresholding twice composes additively rather than idempotently
        assert prox_w(wa, thr) == approx(prox_w(a, 2 * thr))
        assert np.linalg.norm(wa - wb) <= np.linalg.norm(a - b) + 1e-12


class TestGradients:
    def test_t_gradient_zero_counts(self, rng):
        W = rng.uniform(0.1, 1.0, size=(5, 3))
        t = rng.uniform(0.1, 1.0, size=3)
        got = grad_t_column(np.zeros(5), W, t, eta=0.4)
        assert got == approx(W.T @ np.ones(5) + 0.4 * t, rel=1e-12)

    def test_t_gradient_exact_fit(self, rng):
        W = rng.uniform(0.1, 1.0, size=(5, 3))
        t = rng.uniform(0.1, 1.0, size=3)
        got = grad_t_column(W @ t, W, t, eta=0.4)
        assert got == approx(0.4 * t, rel=1e-12)

    def test_t_gradient_finite_differences(self, rng):
        for _ in range(5):
            W, _, _, T, _, counts = random_instance(rng, 8, 4, 6, 3)
            v = int(rng.integers(6))
            t = T[:, v].copy()
            b_col = counts[:, v].astype(float)
            analytic = grad_t_column(b_col, W, t, eta=0.3)
            fd = central_difference(
                lambda x: naive_t_value(b_col, W.tolist(), x.tolist(), 0.3), t
            )
            assert relative_error(analytic, fd) < 1e-5

    def test_w_gradient_perfect_fit_is_zero(self, rng):
        # float grades equal to the model probabilities and counts equal to
        # the rates make both residuals vanish
        y_obs, c_obs, _, _, w_aug = w_row_pieces(rng, with_text=False)
        T = rng.uniform(0.1, 1.0, size=(3, 6))
        tau = 1.0
        p = inverse_logit(tau * (w_aug @ c_obs))
        b_row = w_aug[:-1] @ T
        got = grad_w_row(p, c_obs, b_row, T, w_aug, tau)
        assert got == approx(np.zeros_like(w_aug), abs=1e-12)

    def test_w_gradient_no_observed_responses(self, rng):
        T = rng.uniform(0.1, 1.0, size=(3, 6))
        b_row = rng.poisson(1.0, size=6).astype(float)
        w_aug = np.concatenate([rng.uniform(0.1, 1.0, size=3), [0.3]])
        c_obs = np.zeros((4, 0))
        got = grad_w_row(np.zeros(0), c_obs, b_row, T, w_aug, tau=2.0)
        a = np.maximum(w_aug[:-1] @ T, 1e-6)
        expected = np.concatenate([T @ (1.0 - b_row / a), [0.0]])
        assert got == approx(expected, rel=1e-12)

    def test_w_gradient_finite_differences(self, rng):
        for _ in range(5):
            y_obs, c_obs, b_row, T, w_aug = w_row_pieces(rng)
            tau = float(rng.uniform(0.5, 3.0))
            analytic = grad_w_row(y_obs, c_obs, b_row, T, w_aug, tau)
            fd = central_difference(
                lambda x: naive_w_value(
                    y_obs, c_obs.tolist(), b_row.tolist(), T.tolist(),
                    x.tolist(), tau,
                ),
                w_aug,
            )
            assert relative_error(analytic, fd) < 1e-5

    def test_c_gradient_pure_ridge_without_observations(self, rng):
        c = rng.standard_normal(3)
        got = grad_c_column(np.zeros(0), np.zeros((0, 3)), np.zeros(0), c, 0.7, 2.0)
        assert got == approx(0.7 * c, rel=1e-12)
        sub = c_column_subproblem(np.zeros(0), np.zeros((0, 3)), np.zeros(0), 0.7, 2.0)
        res = fista_minimize(
            sub.smooth_gradient, sub.smooth_value, sub.prox, c,
            FistaConfig(max_iterations=2000, relative_tolerance=1e-14),
        )
        assert res.solution == approx(np.zeros(3), abs=1e-6)

    def test_c_gradient_perfect_fit_at_zero(self, rng):
        W_obs = rng.uniform(0.1, 1.0, size=(6, 3))
        mu_obs = rng.standard_normal(6)
        tau = 1.5
        y_obs = inverse_logit(tau * mu_obs)  # p at c = 0
        got = grad_c_column(y_obs, W_obs, mu_obs, np.zeros(3), 0.7, tau)
        assert got == approx(np.zeros(3), abs=1e-12)

    def test_c_gradient_finite_differences(self, rng):
        for _ in range(5):
            W, mu, C, _, entries, _ = random_instance(rng, 7, 5, 4, 3)
            j = int(rng.integers(5))
            obs = [(i, y) for i, lj, y in entries if lj == j]
            y_obs = np.array([y for _, y in obs], dtype=float)
            W_obs = W[[i for i, _ in obs]]
            mu_obs = mu[[i for i, _ in obs]]
            c = C[:, j].copy()
            tau = float(rng.uniform(0.5, 3.0))
            analytic = grad_c_column(y_obs, W_obs, mu_obs, c, 0.4, tau)
            fd = central_difference(
                lambda x: naive_c_value(
                    y_obs, W_obs.tolist(), mu_obs.tolist(), x.tolist(), 0.4, tau
                ),
                c,
            )
            assert relative_error(analytic, fd) < 1e-5


class TestFistaMinimize:
    def test_quadratic_reaches_center(self):
        c = np.array([1.0, -2.0, 3.0])
        res = fista_minimize(
            lambda x: x - c,
            lambda x: 0.5 * float(np.sum((x - c) ** 2)),
            identity_prox,
            np.zeros(3),
            FistaConfig(max_iterations=500, relative_tolerance=1e-14),
        )
        assert res.solution == approx(c, abs=1e-6)

    def test_lasso_closed_form(self):
        c = np.array([3.0, -0.5])
        lam = 1.0

        def prox(point, step):
            return np.sign(point) * np.maximum(np.abs(point) - step * lam, 0.0)

        res = fista_minimize(
            lambda x: x - c,
            lambda x: 0.5 * float(np.sum((x - c) ** 2)),
            prox,
            np.zeros(2),
            FistaConfig(max_iterations=500, relative_tolerance=1e-14),
            nonsmooth_value=lambda x: lam * float(np.abs(x).sum()),
        )
        assert res.solution == approx([2.0, 0.0], abs=1e-6)

    def test_ridge_logistic_matches_long_projected_gradient(self, rng):
        A = rng.standard_normal((12, 5))
        y = (rng.random(12) < 0.5).astype(float)
        gamma = 0.3

        def value(x):
            z = A @ x
            return float(np.sum(np.logaddexp(0.0, -z) + (1.0 - y) * z)) + \
                0.5 * gamma * float(x @ x)

        def gradient(x):
            p = inverse_logit(A @ x)
            return A.T @ (p - y) + gamma * x

        res = fista_minimize(
            gradient, value, lambda p, s: prox_nonneg(p), np.ones(5),
            FistaConfig(max_iterations=2000, relative_tolerance=1e-13),
        )
        _, f_star = projected_gradient(value, gradient, prox_nonneg, np.ones(5))
        assert res.final_objective == approx(f_star, rel=1e-6)

    def test_never_returns_worse_than_start(self, rng):
        for _ in range(20):
            W, _, _, T, _, counts = random_instance(rng, 6, 4, 5, 3)
            v = int(rng.integers(5))
            sub = t_column_subproblem(counts[:, v].astype(float), W, 0.2)
            x0 = rng.uniform(0, 2, size=3)
            start = sub.smooth_value(x0)
            res = fista_minimize(
                sub.smooth_gradient, sub.smooth_value, sub.prox, x0,
                FistaConfig(max_iterations=7),
            )
            assert res.final_objective <= start + 1e-12 * max(1.0, abs(start))

    def test_nonfinite_gradient_aborts_with_iteration(self):
        def bad_gradient(x):
            return np.full_like(x, np.nan)

        with pytest.raises(NonFiniteGradientError) as err:
            fista_minimize(
                bad_gradient, lambda x: float(np.sum(x**2)), identity_prox,
                np.ones(2),
            )
        assert err.value.iteration == 1

    def test_multistart_consistency_each_subproblem_convex(self, rng):
        # ten random starts land at matching objective values
        W, mu, C, T, entries, counts = random_instance(rng, 6, 5, 4, 3)
        j = 2
        obs = [(i, y) for i, lj, y in entries if lj == j]
        y_obs = np.array([y for _, y in obs], dtype=float)
        W_obs = W[[i for i, _ in obs]]
        mu_obs = mu[[i for i, _ in obs]]
        cfg = FistaConfig(max_iterations=3000, relative_tolerance=1e-13)

        sub = c_column_subproblem(y_obs, W_obs, mu_obs, 0.4, 1.5)
        finals = []
        for _ in range(10):
            res = fista_minimize(
                sub.smooth_gradient, sub.smooth_value, sub.prox,
                rng.standard_normal(3), cfg,
            )
            finals.append(res.final_objective)
        assert max(finals) - min(finals) < 1e-5 * max(1.0, abs(min(finals)))

        sub = t_column_subproblem(counts[:, 0].astype(float), W, 0.3)
        finals = []
        for _ in range(10):
            res = fista_minimize(
                sub.smooth_gradient, sub.smooth_value, sub.prox,
                rng.uniform(0.05, 2.0, size=3), cfg,
            )
            finals.append(res.final_objective)
        assert max(finals) - min(finals) < 1e-5 * max(1.0, abs(min(finals)))


class TestStackedBlocks:
    def test_w_block_matches_per_row_solves(self, rng):
        W, mu, C, T, entries, counts = random_instance(rng, 5, 6, 4, 2)
        from conceptfit import GradedResponseSet

        Y = GradedResponseSet(5, 6, entries)
        grades = (Y.cells, Y.grades.astype(float))
        c_aug = np.vstack([C, np.ones((1, 6))])
        x0 = np.hstack([W, mu[:, None]])
        cfg = FistaConfig(max_iterations=3000, relative_tolerance=1e-13)
        tau, lam = 1.5, 0.2

        block = w_block_subproblem(grades, c_aug, counts.astype(float), T, tau, lam)
        res = fista_minimize(
            block.smooth_gradient, block.smooth_value, block.prox, x0, cfg,
            block.nonsmooth_value,
        )
        total_block = res.final_objective

        total_rows = 0.0
        for i in range(5):
            keep = [(j, y) for qi, j, y in entries if qi == i]
            y_obs = np.array([y for _, y in keep], dtype=float)
            c_obs = np.vstack([C[:, [j for j, _ in keep]], np.ones((1, len(keep)))])
            sub = w_row_subproblem(y_obs, c_obs, counts[i].astype(float), T, tau, lam)
            row_res = fista_minimize(
                sub.smooth_gradient, sub.smooth_value, sub.prox, x0[i], cfg,
                sub.nonsmooth_value,
            )
            total_rows += row_res.final_objective
        assert total_block == approx(total_rows, rel=1e-6)

    def test_block_gradients_match_row_gradients(self, rng):
        W, mu, C, T, entries, counts = random_instance(rng, 4, 5, 3, 2)
        from conceptfit import GradedResponseSet

        Y = GradedResponseSet(4, 5, entries)
        grades = (Y.cells, Y.grades.astype(float))
        c_aug = np.vstack([C, np.ones((1, 5))])
        X = np.hstack([W, mu[:, None]])
        tau, lam, gamma, eta = 1.3, 0.2, 0.4, 0.3

        block = w_block_subproblem(grades, c_aug, counts.astype(float), T, tau, lam)
        G = block.smooth_gradient(X)
        for i in range(4):
            keep = [(j, y) for qi, j, y in entries if qi == i]
            y_obs = np.array([y for _, y in keep], dtype=float)
            c_obs = np.vstack([C[:, [j for j, _ in keep]], np.ones((1, len(keep)))])
            g = grad_w_row(y_obs, c_obs, counts[i].astype(float), T, X[i], tau)
            assert G[i] == approx(g, rel=1e-10, abs=1e-12)

        block = c_block_subproblem(grades, W, mu, gamma, tau)
        G = block.smooth_gradient(C)
        for j in range(5):
            keep = [(i, y) for i, lj, y in entries if lj == j]
            y_obs = np.array([y for _, y in keep], dtype=float)
            g = grad_c_column(
                y_obs, W[[i for i, _ in keep]], mu[[i for i, _ in keep]],
                C[:, j], gamma, tau,
            )
            assert G[:, j] == approx(g, rel=1e-10, abs=1e-12)

        block = t_block_subproblem(counts.astype(float), W, eta)
        G = block.smooth_gradient(T)
        for v in range(3):
            g = grad_t_column(counts[:, v].astype(float), W, T[:, v], eta)
            assert G[:, v] == approx(g, rel=1e-10, abs=1e-12)
