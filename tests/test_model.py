import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from conceptfit import (
    DimensionMismatchError,
    FactorState,
    FitReport,
    GradedResponseSet,
    HyperParams,
    ValidationError,
    WordCountMatrix,
    bernoulli_nll,
    inverse_logit,
    objective,
    poisson_nll,
    predict_response_prob,
)
from oracles import naive_objective


def small_state(rng, Q=3, N=4, V=5, K=2):
    return FactorState(
        rng.uniform(0.1, 1.0, size=(Q, K)),
        rng.standard_normal(Q),
        rng.standard_normal((K, N)),
        rng.uniform(0.1, 1.0, size=(K, V)),
    )


class TestInverseLogit:
    def test_zero_is_half(self):
        assert inverse_logit(0.0) == 0.5

    def test_saturates_near_one(self):
        assert inverse_logit(50.0) == approx(1.0, abs=1e-15)

    def test_log_three(self):
        # 1 / (1 + e^{-ln 3}) = 1 / (1 + 1/3) = 3/4
        assert inverse_logit(math.log(3.0)) == approx(0.75, rel=1e-14)

    def test_no_overflow_at_extremes(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = inverse_logit(-700.0), inverse_logit(700.0)
        assert 0.0 < lo < 1e-300
        assert hi == approx(1.0, abs=1e-15)

    def test_nan_propagates(self):
        assert math.isnan(inverse_logit(float("nan")))

    def test_array_input(self):
        out = inverse_logit(np.array([0.0, math.log(3.0)]))
        assert out == approx([0.5, 0.75])


class TestBernoulliNll:
    def test_half_probability_cases(self):
        assert bernoulli_nll(1, 0.0, 1.0) == approx(math.log(2.0), rel=1e-15)
        assert bernoulli_nll(0, 0.0, 1.0) == approx(math.log(2.0), rel=1e-15)

    def test_high_precision_case(self):
        expected = math.log1p(math.exp(-6.0))
        got = bernoulli_nll(1, 2.0, 3.0)
        assert got == approx(expected, rel=1e-12)
        assert got == approx(0.00247569, abs=1e-8)

    def test_no_overflow_for_large_slack(self):
        # naive log(1 + e^{tau z}) would overflow here
        val = bernoulli_nll(0, 500.0, 3.0)
        assert val == approx(1500.0, rel=1e-12)

    def test_requires_positive_tau(self):
        with pytest.raises(ValidationError):
            bernoulli_nll(1, 0.0, 0.0)

    @given(
        y=st.integers(0, 1),
        z=st.floats(-50, 50),
        tau=st.floats(0.01, 20),
    )
    def test_label_sign_symmetry(self, y, z, tau):
        assert bernoulli_nll(y, z, tau) == approx(
            bernoulli_nll(1 - y, -z, tau), rel=1e-12, abs=1e-12
        )

    @given(
        y=st.integers(0, 1),
        z=st.floats(-300, 300),
        tau=st.floats(0.01, 20),
    )
    def test_nonnegative(self, y, z, tau):
        assert bernoulli_nll(y, z, tau) >= 0.0


class TestPoissonNll:
    def test_zero_count_is_rate(self):
        assert poisson_nll(0, 2.5) == approx(2.5, rel=1e-15)

    def test_count_three_rate_three(self):
        expected = 3.0 - 3.0 * math.log(3.0)
        got = poisson_nll(3, 3.0)
        assert got == approx(expected, rel=1e-12)
        assert got == approx(-0.295837, abs=1e-6)

    def test_rate_floor(self):
        # a raw rate of zero is floored at epsilon
        assert poisson_nll(1, 0.0) == approx(1e-6 - math.log(1e-6), rel=1e-12)

    @given(
        b=st.integers(0, 20),
        a1=st.floats(1e-6, 50),
        a2=st.floats(1e-6, 50),
    )
    @settings(max_examples=200)
    def test_convex_above_floor(self, b, a1, a2):
        mid = poisson_nll(b, 0.5 * (a1 + a2))
        avg = 0.5 * (poisson_nll(b, a1) + poisson_nll(b, a2))
        assert mid <= avg + 1e-12 * max(1.0, abs(avg))


class TestObjective:
    def test_all_zero_factors_single_entry(self):
        Y = GradedResponseSet(1, 1, [(0, 0, 1)])
        B = WordCountMatrix(1, ["water"], [[0]])
        S = FactorState(np.zeros((1, 2)), np.zeros(1), np.zeros((2, 1)), np.zeros((2, 1)))
        H = HyperParams(lam=0.5, gamma=1.0, eta=1.0, tau=1.0, num_concepts=2)
        assert objective(Y, B, S, H) == approx(math.log(2.0) + 1e-6, rel=1e-12)

    def test_matches_naive_oracle(self, rng):
        S = small_state(rng)
        entries = [(0, 0, 1), (0, 2, 0), (1, 1, 1), (2, 3, 0), (2, 0, 1)]
        Y = GradedResponseSet(3, 4, entries)
        counts = rng.poisson(2.0, size=(3, 5))
        B = WordCountMatrix(3, [f"w{v}" for v in range(5)], counts)
        H = HyperParams(lam=0.3, gamma=0.7, eta=0.2, tau=1.5, num_concepts=2)
        expected = naive_objective(
            entries, counts.tolist(), S.W.tolist(), S.mu.tolist(),
            S.C.tolist(), S.T.tolist(), H.lam, H.gamma, H.eta, H.tau,
        )
        assert objective(Y, B, S, H) == approx(expected, rel=1e-12)

    def test_linear_in_lambda(self, rng):
        S = small_state(rng)
        Y = GradedResponseSet(3, 4, [(0, 1, 1), (2, 2, 0)])
        B = WordCountMatrix(3, [f"w{v}" for v in range(5)], np.zeros((3, 5), dtype=int))
        H1 = HyperParams(lam=0.4, gamma=0.5, eta=0.5, tau=1.0, num_concepts=2)
        H2 = HyperParams(lam=0.8, gamma=0.5, eta=0.5, tau=1.0, num_concepts=2)
        w_norm = float(np.abs(S.W).sum())
        assert objective(Y, B, S, H2) - objective(Y, B, S, H1) == approx(
            0.4 * w_norm, rel=1e-12
        )

    def test_concept_permutation_invariance(self, rng):
        for _ in range(5):
            S = small_state(rng, K=3)
            Y = GradedResponseSet(3, 4, [(0, 0, 1), (1, 3, 0), (2, 2, 1)])
            B = WordCountMatrix(3, [f"w{v}" for v in range(5)], rng.poisson(1.5, (3, 5)))
            H = HyperParams(lam=0.2, gamma=0.3, eta=0.4, tau=2.0, num_concepts=3)
            perm = rng.permutation(3)
            assert objective(Y, B, S.permuted(perm), H) == approx(
                objective(Y, B, S, H), rel=1e-12
            )

    def test_dimension_mismatch_names_axis(self, rng):
        S = small_state(rng)
        Y = GradedResponseSet(3, 4, [(0, 0, 1)])
        B = WordCountMatrix(2, ["a", "b"], np.zeros((2, 2), dtype=int))
        H = HyperParams(lam=0.1, gamma=0.1, eta=0.1, tau=1.0, num_concepts=2)
        with pytest.raises(DimensionMismatchError) as err:
            objective(Y, B, S, H)
        assert err.value.axis == "questions"


class TestPredictResponseProb:
    def test_zero_weights_give_half(self, rng):
        S = FactorState(
            np.zeros((2, 3)), np.zeros(2), rng.standard_normal((3, 4)), np.zeros((3, 1))
        )
        for j in range(4):
            assert predict_response_prob(S, 0, j, 5.0) == 0.5

    def test_slack_one_tau_two(self):
        S = FactorState([[1.0]], [0.0], [[1.0]], np.zeros((1, 1)))
        got = predict_response_prob(S, 0, 0, 2.0)
        assert got == approx(1.0 / (1.0 + math.exp(-2.0)), rel=1e-12)
        assert got == approx(0.880797, abs=1e-6)

    def test_monotone_in_tau_for_positive_slack(self):
        S = FactorState([[1.0]], [0.5], [[1.0]], np.zeros((1, 1)))
        probs = [predict_response_prob(S, 0, 0, tau) for tau in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    @given(alpha=st.floats(0.1, 10), tau=st.floats(0.1, 10), z=st.floats(-5, 5))
    def test_tau_and_slack_enter_as_product(self, alpha, tau, z):
        S1 = FactorState([[1.0]], [z - 1.0], [[1.0]], np.zeros((1, 1)))
        S2 = FactorState([[alpha]], [alpha * (z - 1.0)], [[1.0]], np.zeros((1, 1)))
        assert predict_response_prob(S1, 0, 0, alpha * tau) == approx(
            predict_response_prob(S2, 0, 0, tau), rel=1e-12
        )

    def test_out_of_range_index(self):
        S = FactorState([[1.0]], [0.0], [[1.0]], np.zeros((1, 1)))
        with pytest.raises(ValidationError):
            predict_response_prob(S, 1, 0, 1.0)
        with pytest.raises(ValidationError):
            predict_response_prob(S, 0, 5, 1.0)


class TestDomainTypes:
    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            GradedResponseSet(2, 2, [(0, 0, 1), (0, 0, 0)])

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValidationError):
            GradedResponseSet(2, 2, [(2, 0, 1)])

    def test_bad_grade_rejected(self):
        with pytest.raises(ValidationError):
            GradedResponseSet(2, 2, [(0, 0, 2)])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            GradedResponseSet(2, 2, [])

    def test_subset_and_dense(self):
        Y = GradedResponseSet(2, 3, [(0, 0, 1), (0, 2, 0), (1, 1, 1)])
        sub = Y.subset([0, 2])
        assert sub.entries == [(0, 0, 1), (1, 1, 1)]
        assert sub.num_questions == 2 and sub.num_learners == 3
        assert Y.cells.tolist() == [0, 2, 4]
        assert np.array_equal(Y.cells, Y.question_idx * 3 + Y.learner_idx)
        assert not Y.cells.flags.writeable
        assert sub.cells.tolist() == [0, 4]
        assert np.array_equal(sub.cells, sub.question_idx * 3 + sub.learner_idx)

    def test_word_counts_validation(self):
        with pytest.raises(ValidationError):
            WordCountMatrix(1, ["a", "a"], [[1, 2]])
        with pytest.raises(ValidationError):
            WordCountMatrix(1, ["a"], [[-1]])
        with pytest.raises(DimensionMismatchError):
            WordCountMatrix(2, ["a"], [[1]])

    def test_factor_state_nonnegativity(self, rng):
        with pytest.raises(ValidationError):
            FactorState([[-0.1]], [0.0], [[1.0]], np.zeros((1, 1)))
        with pytest.raises(ValidationError):
            FactorState([[0.1]], [0.0], [[1.0]], [[-1.0]])

    def test_factor_state_immutable(self, rng):
        S = small_state(rng)
        with pytest.raises(ValueError):
            S.W[0, 0] = 5.0

    def test_hyperparams_validation(self):
        with pytest.raises(ValidationError):
            HyperParams(lam=0.0, gamma=1.0, eta=1.0, tau=1.0, num_concepts=1)
        with pytest.raises(ValidationError):
            HyperParams(lam=1.0, gamma=1.0, eta=1.0, tau=1.0, num_concepts=0)

    def test_fit_report_trace_length(self):
        with pytest.raises(ValidationError):
            FitReport((1.0, 2.0), True, 3, 0.0)
