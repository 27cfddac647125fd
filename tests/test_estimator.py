import numpy as np
import pytest
from pytest import approx

from conceptfit import (
    FistaConfig,
    FitConfig,
    GradedResponseSet,
    HyperParams,
    ValidationError,
    WordCountMatrix,
    fit,
    fit_responses_only,
    initialize,
    inverse_logit,
    objective,
    simulate,
)

TIGHT = FitConfig(
    max_outer_iterations=300,
    outer_relative_tolerance=1e-9,
    inner=FistaConfig(max_iterations=1000, relative_tolerance=1e-12),
)


def assert_trace_nonincreasing(trace, slack=1e-9):
    for prev, cur in zip(trace, trace[1:]):
        assert cur <= prev + slack * abs(prev)


class TestInitialize:
    def test_same_seed_identical(self):
        a = initialize(4, 5, 6, 2, rng_seed=9)
        b = initialize(4, 5, 6, 2, rng_seed=9)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.C, b.C)
        assert np.array_equal(a.T, b.T)
        assert np.array_equal(a.mu, b.mu)

    def test_invariants_hold(self):
        s = initialize(4, 5, 6, 2, rng_seed=0)
        assert s.W.min() >= 0 and s.W.max() <= 1
        assert s.T.min() >= 0 and s.T.max() <= 1
        assert np.all(s.mu == 0)

    def test_different_seeds_differ(self):
        a = initialize(4, 5, 6, 2, rng_seed=0)
        b = initialize(4, 5, 6, 2, rng_seed=1)
        assert not np.array_equal(a.W, b.W)

    def test_text_and_baseline_share_w_and_c_draws(self):
        # T is drawn last, so dropping the vocabulary leaves W and C alone
        a = initialize(4, 5, 6, 2, rng_seed=3)
        b = initialize(4, 5, 0, 2, rng_seed=3)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.C, b.C)
        assert b.T.shape == (2, 0)


def small_problem(seed=0):
    Y, B, truth = simulate(12, 15, 8, 2, sparsity=1, tau=2.0,
                           missing_fraction=0.2, seed=seed)
    params = HyperParams(lam=0.2, gamma=0.2, eta=0.2, tau=2.0, num_concepts=2)
    return Y, B, params


class TestFit:
    def test_monotone_trace_and_convergence(self):
        Y, B, params = small_problem()
        state, report = fit(Y, B, params)
        assert report.converged
        assert_trace_nonincreasing(report.objective_trace)
        assert state.W.min() >= 0 and state.T.min() >= 0

    def test_zero_outer_iterations_returns_initialization(self):
        Y, B, params = small_problem()
        cfg = FitConfig(max_outer_iterations=0, rng_seed=4)
        state, report = fit(Y, B, params, cfg)
        init = initialize(Y.num_questions, Y.num_learners, B.num_words,
                          params.num_concepts, 4)
        assert np.array_equal(state.W, init.W)
        assert np.array_equal(state.C, init.C)
        assert not report.converged
        assert report.objective_trace == ()

    def test_deterministic_given_seed(self):
        Y, B, params = small_problem()
        s1, r1 = fit(Y, B, params, FitConfig(rng_seed=2))
        s2, r2 = fit(Y, B, params, FitConfig(rng_seed=2))
        assert r1.objective_trace == r2.objective_trace
        assert np.array_equal(s1.W, s2.W)
        assert np.array_equal(s1.C, s2.C)
        assert np.array_equal(s1.T, s2.T)

    def test_trace_matches_objective_of_returned_state(self):
        Y, B, params = small_problem()
        state, report = fit(Y, B, params)
        assert objective(Y, B, state, params) == approx(
            report.objective_trace[-1], rel=1e-12
        )

    def test_all_correct_single_concept_reaches_high_probs(self):
        entries = [(i, j, 1) for i in range(6) for j in range(8)]
        Y = GradedResponseSet(6, 8, entries)
        B = WordCountMatrix(6, ["w1", "w2"], np.zeros((6, 2), dtype=int))
        params = HyperParams(lam=0.01, gamma=0.01, eta=0.1, tau=2.0, num_concepts=1)
        state, report = fit(Y, B, params, TIGHT)
        z = state.W @ state.C + state.mu[:, None]
        probs = inverse_logit(params.tau * z)
        assert probs.min() >= 0.9

    def test_question_axis_mismatch(self):
        Y, B, params = small_problem()
        bad = WordCountMatrix(Y.num_questions + 1, B.vocabulary,
                              np.zeros((Y.num_questions + 1, B.num_words), dtype=int))
        from conceptfit import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            fit(Y, bad, params)


class TestFitResponsesOnly:
    def test_returns_empty_word_profiles(self):
        Y, B, params = small_problem()
        state, report = fit_responses_only(Y, params)
        assert state.T.shape == (2, 0)
        assert state.num_words == 0

    def test_monotone_trace(self):
        Y, B, params = small_problem()
        _, report = fit_responses_only(Y, params)
        assert_trace_nonincreasing(report.objective_trace)

    def test_matches_full_fit_up_to_rate_floor_constant_on_empty_counts(self):
        # with all-zero counts the word channel only adds Q*V*epsilon after
        # the word profiles collapse to zero
        Y, _, _ = simulate(8, 10, 1, 1, sparsity=1, tau=1.5,
                           missing_fraction=0.0, seed=5)
        V = 4
        B = WordCountMatrix(8, [f"w{v}" for v in range(V)],
                            np.zeros((8, V), dtype=int))
        params = HyperParams(lam=0.3, gamma=0.3, eta=0.3, tau=1.5, num_concepts=1)
        _, full = fit(Y, B, params, TIGHT)
        _, base = fit_responses_only(Y, params, TIGHT)
        offset = 8 * V * params.epsilon
        assert full.objective_trace[-1] - base.objective_trace[-1] == approx(
            offset, abs=1e-6
        )


class TestConfigValidation:
    def test_rejects_negative_outer_iterations(self):
        with pytest.raises(ValidationError):
            FitConfig(max_outer_iterations=-1)

    def test_rejects_bad_inner(self):
        with pytest.raises(ValidationError):
            FistaConfig(max_iterations=0)
