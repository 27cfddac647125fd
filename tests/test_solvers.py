import math
import tracemalloc

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
    _STEP_FLOOR,
    _FitBlocks,
    c_block_subproblem,
    t_block_subproblem,
    w_block_subproblem,
)
from oracles import (
    central_difference,
    naive_bernoulli_nll,
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

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, [[0.1], [math.nan]]])
    def test_prox_w_threshold_that_is_not_finite_rejected(self, threshold):
        # nan used to return nan weights
        with pytest.raises(ValidationError, match="threshold must be finite and >= 0"):
            prox_w(np.zeros((2, 3)), threshold)

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

    def test_start_value_comes_from_the_first_momentum_point(self, rng):
        # one value call per momentum point, right after its gradient, and one
        # per candidate; none before the first gradient
        cfg = FistaConfig(max_iterations=40, relative_tolerance=1e-12)
        for name, build, x in block_builders(rng):
            sub, log = build(), []

            def logged(kind, fn):
                def call(point, *rest):
                    log.append((kind, point))
                    return fn(point, *rest)
                return call

            res = fista_minimize(logged("gradient", sub.smooth_gradient),
                                 logged("value", sub.smooth_value),
                                 logged("prox", sub.prox), x, cfg, sub.nonsmooth_value)
            kinds = [kind for kind, _ in log]
            assert kinds[0] == "gradient", name
            assert kinds.count("gradient") == res.iterations_used > 1, name
            assert kinds.count("value") == kinds.count("gradient") + kinds.count("prox")
            for (kind, point), (after, at) in zip(log, log[1:]):
                if kind == "gradient":
                    assert after == "value" and at is point, name
                if kind == "prox":
                    assert after == "value", name
            start = build().smooth_value(x) + (sub.nonsmooth_value(x)
                                               if sub.nonsmooth_value else 0.0)
            assert res.final_objective <= start, name

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

    def test_a_row_on_the_rate_floor_holds_back_no_other_row(self, rng):
        # row 0 of W is zero, so its rates sit on the epsilon floor, and it has
        # a nonzero count: its gradient is about 1e6 and one shared step would
        # shrink to the step floor for every row
        W, mu, C, T, entries, counts = random_instance(rng, 5, 8, 6, 2)
        from conceptfit import GradedResponseSet

        W[0] = 0.0
        counts = counts.astype(float)
        counts[0, 0] = 3.0
        Y = GradedResponseSet(5, 8, entries)
        c_aug = np.vstack([C, np.ones((1, 8))])
        x0 = np.hstack([W, mu[:, None]])
        cfg = FistaConfig(max_iterations=3000, relative_tolerance=1e-13)
        tau, lam = 1.5, 0.2
        block = w_block_subproblem((Y.cells, Y.grades.astype(float)), c_aug, counts,
                                   T, tau, lam)
        smooth_rows, penalty_rows = block.rows
        per_row = fista_minimize(block.smooth_gradient, smooth_rows, block.prox, x0,
                                 cfg, penalty_rows).solution
        shared = fista_minimize(block.smooth_gradient, block.smooth_value, block.prox,
                                x0, cfg, block.nonsmooth_value).solution

        for i in range(5):
            keep = [(j, y) for qi, j, y in entries if qi == i]
            y_obs = np.array([y for _, y in keep], dtype=float)
            c_obs = np.vstack([C[:, [j for j, _ in keep]], np.ones((1, len(keep)))])
            sub = w_row_subproblem(y_obs, c_obs, counts[i], T, tau, lam)

            def composite(x):
                return sub.smooth_value(x) + sub.nonsmooth_value(x)

            assert composite(per_row[i]) <= composite(x0[i])
            if i == 0:
                continue
            best = fista_minimize(sub.smooth_gradient, sub.smooth_value, sub.prox,
                                  x0[i], cfg, sub.nonsmooth_value).final_objective
            assert composite(per_row[i]) == approx(best, rel=1e-9)
            assert composite(shared[i]) > best * (1.0 + 1e-3)

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


@given(seed=st.integers(0, 2**32 - 1), Q=st.integers(1, 4), N=st.integers(1, 5),
       V=st.integers(0, 5), K=st.integers(1, 3), tau=st.floats(0.1, 3.0))
@settings(max_examples=40, deadline=None)
def test_row_and_column_views_are_the_rows_and_columns_of_their_blocks(seed, Q, N, V,
                                                                       K, tau):
    # V = 0 is the grades-only fit; a zero row of W and a zero column of T put
    # their cells on the rate floor, and those cells get counts
    rng = np.random.default_rng(seed)
    lam, gamma, eta = 0.2, 0.4, 0.3
    W = rng.uniform(0.1, 1.1, (Q, K))
    W[rng.integers(Q)] = 0.0
    T = rng.uniform(0.1, 1.1, (K, V))
    if V:
        T[:, rng.integers(V)] = 0.0
    mu, C = rng.standard_normal(Q), rng.standard_normal((K, N))
    counts = rng.poisson(W @ T + 2.0 * (W @ T == 0.0)).astype(float)
    mask = rng.random((Q, N)) < 0.6
    grades = (rng.random((Q, N)) < 0.5).astype(float)
    cells = np.flatnonzero(mask)
    observed = (cells, grades.ravel()[cells])
    c_aug = np.vstack([C, np.ones((1, N))])
    X = np.hstack([W, mu[:, None]])

    def close(got, want):
        assert np.shape(got) == np.shape(want)
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        assert np.all(np.abs(np.asarray(got) - want) <= 1e-12 * scale)

    def check(block, point, views):
        G, F = block.smooth_gradient(point), block.smooth_value(point)
        total = 0.0
        for index, view in views:
            close(view.smooth_gradient(point[index]), G[index])
            total += view.smooth_value(point[index])
        close(total, F)

    check(w_block_subproblem(observed, c_aug, counts, T, tau, lam), X, [
        (i, w_row_subproblem(grades[i, mask[i]], c_aug[:, mask[i]], counts[i], T,
                             tau, lam))
        for i in range(Q)])
    check(c_block_subproblem(observed, W, mu, gamma, tau), C, [
        ((slice(None), j), c_column_subproblem(grades[mask[:, j], j], W[mask[:, j]],
                                               mu[mask[:, j]], gamma, tau))
        for j in range(N)])
    check(t_block_subproblem(counts, W, eta), T, [
        ((slice(None), v), t_column_subproblem(counts[:, v], W, eta))
        for v in range(V)])


def test_soft_grades_are_scored_as_the_cross_entropy(rng):
    W_obs, mu_obs = rng.uniform(0.1, 1.0, (6, 3)), rng.standard_normal(6)
    y = np.array([0.0, 1.0, 0.25, 0.5, 0.9, 1e-3])
    c, tau, gamma = rng.standard_normal(3), 1.7, 0.4
    z = W_obs @ c + mu_obs
    expected = sum(yi * naive_bernoulli_nll(1, zi, tau)
                   + (1.0 - yi) * naive_bernoulli_nll(0, zi, tau)
                   for yi, zi in zip(y, z)) + 0.5 * gamma * float(c @ c)
    sub = c_column_subproblem(y, W_obs, mu_obs, gamma, tau)
    assert sub.smooth_value(c) == approx(expected, rel=1e-12)
    fd = central_difference(sub.smooth_value, c)
    assert sub.smooth_gradient(c) == approx(fd, rel=1e-6, abs=1e-8)
    with pytest.raises(ValidationError):
        c_column_subproblem(np.array([0.0, 1.5]), W_obs[:2], mu_obs[:2], gamma, tau)


@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
def test_bernoulli_builders_reject_a_tau_that_is_not_finite_and_positive(tau):
    # inf used to pass, making every grade's margin infinite
    with pytest.raises(ValidationError, match="tau must be finite and > 0"):
        c_column_subproblem([0.0, 1.0], np.ones((2, 1)), np.zeros(2), 0.4, tau)


def block_builders(rng, Q=6, N=7, V=5, K=2):
    """Each block's builder, as a function of nothing, and a point to evaluate.

    The three stacked blocks come first, then the per-row views of each.
    """
    from conceptfit import GradedResponseSet

    W, mu, C, T, entries, counts = random_instance(rng, Q, N, V, K)
    Y = GradedResponseSet(Q, N, entries)
    grades = (Y.cells, Y.grades.astype(float))
    counts = counts.astype(float)
    c_aug = np.vstack([C, np.ones((1, N))])
    X = np.hstack([W, mu[:, None]])
    tau, lam, gamma, eta = 1.4, 0.2, 0.4, 0.3
    row = [(j, y) for qi, j, y in entries if qi == 0]
    col = [(i, y) for i, lj, y in entries if lj == 0]
    y_row = np.array([y for _, y in row], dtype=float)
    y_col = np.array([y for _, y in col], dtype=float)
    c_obs = c_aug[:, [j for j, _ in row]]
    rows = [i for i, _ in col]
    return [
        ("W", lambda: w_block_subproblem(grades, c_aug, counts, T, tau, lam), X),
        ("C", lambda: c_block_subproblem(grades, W, mu, gamma, tau), C),
        ("T", lambda: t_block_subproblem(counts, W, eta), T),
        ("w row", lambda: w_row_subproblem(y_row, c_obs, counts[0], T, tau, lam), X[0]),
        ("c column", lambda: c_column_subproblem(y_col, W[rows], mu[rows], gamma, tau),
         C[:, 0]),
        ("t column", lambda: t_column_subproblem(counts[:, 0], W, eta), T[:, 0]),
    ]


def same_bits(a, b):
    return np.array(a).tobytes() == np.array(b).tobytes()


class TestOnePassPerPoint:
    """``value_and_gradient`` is the builders' fused pass, one call per point.

    ``fista_minimize`` takes the value at its momentum point from the pair
    that call returns; the pair must be bitwise what the value-only pass and
    the gradient return one at a time.
    """

    def test_fused_call_is_bitwise_the_row_values_and_the_gradient(self, rng):
        for name, build, x in block_builders(rng):
            values, gradient = build().value_and_gradient(np.array(x))
            want = build().rows[0](np.array(x))
            assert same_bits(values, want) and values.shape == want.shape, name
            assert same_bits(gradient, build().smooth_gradient(np.array(x))), name

    def test_fista_result_is_bitwise_with_the_pair_and_with_the_gradient(self, rng):
        cfg = FistaConfig(max_iterations=60, relative_tolerance=1e-12)
        for name, build, x in block_builders(rng):
            sub, calls = build(), []

            def counted(kind, fn):
                def call(*args):
                    calls.append(kind)
                    return fn(*args)
                return call

            smooth_rows, penalty_rows = sub.rows
            fused = fista_minimize(counted("gradient", sub.value_and_gradient),
                                   counted("value", smooth_rows),
                                   counted("prox", sub.prox), x, cfg, penalty_rows)
            plain = fista_minimize(sub.smooth_gradient, smooth_rows, sub.prox, x, cfg,
                                   penalty_rows)
            assert fused.solution.tobytes() == plain.solution.tobytes(), name
            assert fused.solution.shape == plain.solution.shape, name
            assert same_bits(fused.final_objective, plain.final_objective), name
            assert same_bits(fused.first_step, plain.first_step), name
            assert fused.iterations_used == plain.iterations_used > 1, name
            assert calls.count("gradient") == fused.iterations_used, name
            assert calls.count("value") == calls.count("prox"), name


def test_one_set_up_builds_every_sweep_bitwise_as_the_public_builders(rng):
    # a fit forms one _FitBlocks and builds each sweep's blocks from it, so the
    # groups and floors it keeps must give what fresh builders give
    from conceptfit import GradedResponseSet

    Q, N, V, K = 6, 7, 5, 2
    W, mu, C, T, entries, counts = random_instance(rng, Q, N, V, K)
    Y = GradedResponseSet(Q, N, entries)
    grades = (Y.cells, Y.grades.astype(float))
    tau, lam, gamma, eta, epsilon = 1.4, 0.2, 0.4, 0.3, 1e-6
    blocks = _FitBlocks(grades, counts, tau, epsilon)
    for _ in range(3):
        W, T = W * rng.uniform(0.5, 1.5, W.shape), T * rng.uniform(0.5, 1.5, T.shape)
        mu, C = mu + rng.normal(size=Q), C + rng.normal(size=C.shape)
        c_aug = np.vstack([C, np.ones((1, N))])
        X = np.hstack([W, mu[:, None]])
        pairs = [
            (blocks.w(c_aug, T, lam),
             w_block_subproblem(grades, c_aug, counts, T, tau, lam, epsilon), X),
            (blocks.c(W, mu, gamma), c_block_subproblem(grades, W, mu, gamma, tau), C),
            (blocks.t(W, eta), t_block_subproblem(counts, W, eta, epsilon), T),
        ]
        for ours, public, x in pairs:
            values, gradient = ours.value_and_gradient(x)
            want_values, want_gradient = public.value_and_gradient(x)
            assert same_bits(values, want_values) and same_bits(gradient, want_gradient)
            assert same_bits(ours.rows[0](x), public.rows[0](x))


def test_warm_poisson_blocks_allocate_no_grid_and_return_no_work_array(rng):
    # the W and T blocks write their Q x V rates, ratios and terms into work
    # arrays that one _FitBlocks forms once and reuses
    from conceptfit import GradedResponseSet

    Q, N, V, K = 40, 4, 300, 3
    W, mu, C, T, entries, counts = random_instance(rng, Q, N, V, K)
    Y = GradedResponseSet(Q, N, entries)
    blocks = _FitBlocks((Y.cells, Y.grades.astype(float)), counts, 1.4, 1e-6)
    X = np.hstack([W, mu[:, None]])
    c_aug = np.vstack([C, np.ones((1, N))])
    grid_bytes = Q * V * np.dtype(float).itemsize
    for name, sub, x in (("W", blocks.w(c_aug, T, 0.2), X), ("T", blocks.t(W, 0.3), T)):
        value, value_and_gradient = sub.rows[0], sub.value_and_gradient
        value(x), value_and_gradient(x)  # the warm-up forms the work arrays
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            values, gradient = value_and_gradient(x)
            values_only = value(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < grid_bytes, name
        # a later evaluation elsewhere must not change what an earlier one returned
        results = (values, gradient, values_only)
        kept = [r.copy() for r in results]
        value_and_gradient(0.5 * x), value(2.0 * x)
        assert all(same_bits(a, b) for a, b in zip(results, kept)), name


def first_iteration_steps(build, x, cfg, initial_step=None):
    """A solve of ``build()``'s rows and the steps its first iteration tried."""
    sub, gradients, tried = build(), [], []
    smooth_rows, penalty_rows = sub.rows

    def gradient(point):
        gradients.append(point)
        return sub.smooth_gradient(point)

    def prox(point, step):
        if len(gradients) == 1:  # still in the first iteration
            tried.append(np.array(step, dtype=float))
        return sub.prox(point, step)

    res = fista_minimize(gradient, smooth_rows, prox, x, cfg, penalty_rows,
                         initial_step=initial_step)
    return res, tried


class TestCarriedStep:
    """``initial_step`` starts each row near the step its last solve accepted."""

    def test_no_carried_step_starts_every_row_at_one(self, rng):
        cfg = FistaConfig(max_iterations=60, relative_tolerance=1e-12)
        for name, build, x in block_builders(rng)[:3]:
            default, tried = first_iteration_steps(build, x, cfg)
            assert np.all(tried[0] == 1.0), name
            ones = np.ones_like(default.first_step)
            for carried in (None, ones):
                res, _ = first_iteration_steps(build, x, cfg, carried)
                assert res.solution.tobytes() == default.solution.tobytes(), name
                assert same_bits(res.final_objective, default.final_objective), name
                assert res.iterations_used == default.iterations_used, name
                assert same_bits(res.first_step, default.first_step), name

    def test_a_carried_step_starts_its_row_at_four_times_it_up_to_one(self, rng):
        name, build, X = block_builders(rng, Q=6)[0]
        carried = np.array([2.0**-3, 2.0**-10, 0.5, 1.0, _STEP_FLOOR, 1e-30])[:, None]
        _, tried = first_iteration_steps(build, X, FistaConfig(max_iterations=5),
                                         carried)
        want = np.array([2.0**-1, 2.0**-8, 1.0, 1.0, 1.0, 1.0])[:, None]
        assert same_bits(tried[0], want)

    def test_first_step_is_the_step_the_first_iteration_accepted(self, rng):
        cfg = FistaConfig(max_iterations=60, relative_tolerance=1e-12)
        for name, build, x in block_builders(rng):
            res, tried = first_iteration_steps(build, x, cfg)
            assert same_bits(res.first_step, tried[-1]), name
            assert np.all(res.first_step <= 1.0), name

    def test_resolving_from_its_own_first_step_tries_at_most_three_candidates(self,
                                                                             rng):
        cfg = FistaConfig(max_iterations=3000, relative_tolerance=1e-13)
        for name, build, x in block_builders(rng):
            cold, cold_tried = first_iteration_steps(build, x, cfg)
            warm, tried = first_iteration_steps(build, x, cfg, cold.first_step)
            assert len(tried) <= min(3, len(cold_tried)), name
            assert same_bits(warm.first_step, cold.first_step), name
            assert warm.final_objective == approx(cold.final_objective, rel=1e-9), name


def floored_counted_cells(rng, Q=5, N=6, V=4, K=2):
    """Block builders at points whose rates sit below epsilon under counts.

    Row 0 of W is zero, row 1 tiny, column 0 of T zero: their rates are 0 or
    about 1e-9, and every one of their cells has a count.
    """
    from conceptfit import GradedResponseSet

    W, mu, C, T, entries, counts = random_instance(rng, Q, N, V, K)
    W[0], W[1], T[:, 0] = 0.0, 1e-9, 0.0
    counts = counts.astype(float)
    counts[:2] += 1.0
    counts[:, 0] += 2.0
    Y = GradedResponseSet(Q, N, entries)
    c_aug = np.vstack([C, np.ones((1, N))])
    X = np.hstack([W, mu[:, None]])
    row = [(j, y) for qi, j, y in entries if qi == 0]
    y_row = np.array([y for _, y in row], dtype=float)
    c_obs = c_aug[:, [j for j, _ in row]]
    tau, lam, eta = 1.4, 0.2, 0.3
    return W, T, counts, eta, [
        ("W", lambda: w_block_subproblem((Y.cells, Y.grades.astype(float)), c_aug,
                                         counts, T, tau, lam), X),
        ("T", lambda: t_block_subproblem(counts, W, eta), T),
        ("w row", lambda: w_row_subproblem(y_row, c_obs, counts[0], T, tau, lam), X[0]),
        ("t column", lambda: t_column_subproblem(counts[:, 0], W, eta), T[:, 0]),
    ]


class TestCountedCellsOnTheRateFloor:
    """Solver values score a cell with a count at its raw rate, below epsilon too."""

    def test_a_counted_word_is_not_projected_onto_the_rate_floor(self):
        # one word counted once, at question 7: the first unit step projects its
        # column to 0, where an epsilon-floored value is flat, and from there no
        # step passes its bound until the step floor
        epsilon = 1e-6
        for seed in range(10):
            rng = np.random.default_rng(seed)
            W = rng.uniform(0.5, 2.5, (40, 3))
            counts = np.zeros((40, 1))
            counts[7, 0] = 1.0
            sub = t_block_subproblem(counts, W, 0.3, epsilon)
            smooth_rows, penalty_rows = sub.rows
            res = fista_minimize(sub.smooth_gradient, smooth_rows, sub.prox,
                                 rng.uniform(0.0, 1.0, (3, 1)), FistaConfig(),
                                 penalty_rows)
            assert W[7] @ res.solution[:, 0] > epsilon, seed

    def test_fused_and_value_only_values_agree_bitwise(self, rng):
        _, _, _, _, builders = floored_counted_cells(rng)
        for name, build, x in builders:
            fresh = build().rows[0](np.array(x))
            assert same_bits(build().value_and_gradient(np.array(x))[0], fresh), name
            assert np.isfinite(fresh).all(), name

    def test_rate_zero_under_a_count_costs_about_708_per_count(self, rng):
        W, T, counts, eta, builders = floored_counted_cells(rng)
        value = t_block_subproblem(counts, W, eta).rows[0](T)
        # column 0 of T is zero: each of its Q cells has rate 0 under its count
        tiny = np.finfo(float).tiny
        want = float(np.sum(tiny - counts[:, 0] * np.log(tiny)))
        assert value[0, 0] == approx(want, rel=1e-15)
        assert value[0, 0] > 700.0 * counts[:, 0].sum()

    def test_slopes_still_floor_the_rate_at_epsilon(self, rng):
        W, T, counts, eta, builders = floored_counted_cells(rng)
        G = t_block_subproblem(counts, W, eta).smooth_gradient(T)
        want = W.T @ (1.0 - counts / np.maximum(W @ T, 1e-6)) + eta * T
        assert np.all(np.abs(G - want) <= 1e-12 * np.abs(want).max())


class TestUncountedCellsBelowEpsilon:
    """Solver values score a cell with no count at its raw rate, below epsilon too.

    Its value is then linear in the rate, with the unit slope the gradients
    give it; floored at epsilon it was flat there.
    """

    H = 1e-9  # keeps every rate of the perturbed row or column above zero

    def instance(self, rng, Q=5, N=6, V=4, K=2):
        """Row 0 of W and column 0 of T at 5e-9: their rates are about 1e-8, no counts."""
        W, mu, C, T, entries, counts = random_instance(rng, Q, N, V, K)
        W[0], T[:, 0] = 5e-9, 5e-9
        counts = counts.astype(float)
        counts[0], counts[:, 0] = 0.0, 0.0
        assert (W[0] @ T).max() < 1e-6 and (W @ T[:, 0]).max() < 1e-6
        return W, mu, C, T, entries, counts

    def difference(self, value, x, idx):
        bump = np.zeros_like(x)
        bump[idx] = self.H
        return (value(x + bump) - value(x - bump)) / (2.0 * self.H)

    def test_w_block_and_row_values_have_the_block_gradient_as_slope(self, rng):
        from conceptfit import GradedResponseSet

        W, mu, C, T, entries, counts = self.instance(rng)
        tau, lam = 1.4, 0.2
        Y = GradedResponseSet(W.shape[0], C.shape[1], entries)
        c_aug = np.vstack([C, np.ones((1, C.shape[1]))])
        X = np.hstack([W, mu[:, None]])
        row = [(j, y) for qi, j, y in entries if qi == 0]
        y_row = np.array([y for _, y in row], dtype=float)
        block = w_block_subproblem((Y.cells, Y.grades.astype(float)), c_aug, counts,
                                   T, tau, lam)
        view = w_row_subproblem(y_row, c_aug[:, [j for j, _ in row]], counts[0], T,
                                tau, lam)
        G = block.smooth_gradient(X)
        for k in range(W.shape[1]):
            for slope in (self.difference(lambda x: block.rows[0](x)[0, 0], X, (0, k)),
                          self.difference(view.smooth_value, X[0], k)):
                assert slope == approx(G[0, k], rel=1e-6), k

    def test_t_block_and_column_values_have_the_block_gradient_as_slope(self, rng):
        W, _, _, T, _, counts = self.instance(rng)
        block = t_block_subproblem(counts, W, 0.3)
        view = t_column_subproblem(counts[:, 0], W, 0.3)
        G = block.smooth_gradient(T)
        for k in range(W.shape[1]):
            for slope in (self.difference(lambda t: block.rows[0](t)[0, 0], T, (k, 0)),
                          self.difference(view.smooth_value, T[:, 0], k)):
                assert slope == approx(G[k, 0], rel=1e-6), k

    @given(a_raw=st.floats(0.0, 3e-6))
    def test_an_uncounted_cell_costs_its_raw_rate(self, a_raw):
        # one cell, W = [[1]] and eta = 0: the T block's value is the cell's;
        # a raw rate of 0 costs the rate floor, the smallest normal float
        value = t_block_subproblem(np.zeros((1, 1)), np.ones((1, 1)), 0.0).rows[0]
        assert value(np.array([[a_raw]]))[0, 0] == max(a_raw, np.finfo(float).tiny)


def test_a_gradient_of_the_wrong_sign_ends_at_the_step_floor_on_the_start(rng):
    # every candidate along +x climbs faster than the backtracking slack allows,
    # so each halving fails its bound until the step reaches the floor, where
    # the line search gives up and accepts; the climb is never kept as the best
    a = 1e6
    x0 = rng.standard_normal(4)
    start = 0.5 * a * float(x0 @ x0)
    result = fista_minimize(lambda x: -a * x, lambda x: 0.5 * a * float(x @ x),
                            identity_prox, x0)
    assert same_bits(result.solution, x0)
    assert result.final_objective == start
    assert result.first_step.max() <= _STEP_FLOOR
