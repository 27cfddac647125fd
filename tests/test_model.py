import math
import tracemalloc
import warnings

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
from conceptfit.model import _objective_of
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

    def test_a_scalar_takes_the_array_path_and_keeps_the_former_scalar_bits(self):
        xs = np.concatenate([np.linspace(-800.0, 800.0, 20_001),
                             [0.0, -0.0, 1e-300, -1e-300, 709.7, -745.2]])

        def former_scalar(x):  # the scalar branch inverse_logit had before
            e = np.exp(-np.abs(np.asarray(x)))
            return float((1.0 if x >= 0 else e) / (1.0 + e))

        got = [inverse_logit(x) for x in xs.tolist()]
        assert all(type(p) is float for p in got)
        assert np.array(got).tobytes() == np.array(
            [former_scalar(x) for x in xs.tolist()]).tobytes()
        assert np.array(got).tobytes() == inverse_logit(xs).tobytes()
        assert type(inverse_logit(0.0)) is float and inverse_logit(0.0) == 0.5


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

    @pytest.mark.parametrize("y", [0.5, -1.0, 2.0, math.nan])
    def test_grades_other_than_0_and_1_rejected(self, y):
        # the signed-margin form scores only 0 and 1; a soft grade is not one
        with pytest.raises(ValidationError, match="grades"):
            bernoulli_nll(np.array([1.0, y]), np.zeros(2), 1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_requires_positive_tau(self, tau):
        # inf used to pass: bernoulli_nll(1, 0.5, inf) was 0.0
        with pytest.raises(ValidationError, match="tau must be finite and > 0"):
            bernoulli_nll(1, 0.5, tau)

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

    def test_a_warm_kernel_allocates_no_grid_and_keeps_its_bits(self, rng):
        # the kernel writes its Q x V rates and terms into work arrays it forms once
        Q, N, V, K = 40, 6, 300, 3
        states = [small_state(rng, Q, N, V, K) for _ in range(2)]
        entries = [(i, j, int(rng.integers(2))) for i in range(Q) for j in range(N)
                   if rng.random() < 0.5]
        Y = GradedResponseSet(Q, N, entries)
        B = WordCountMatrix(Q, [f"w{v}" for v in range(V)], rng.poisson(0.8, (Q, V)))
        H = HyperParams(lam=0.3, gamma=0.3, eta=0.3, tau=2.0, num_concepts=K)
        kernel = _objective_of(Y, B, H)
        first = kernel(states[0])  # the warm-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            second = kernel(states[1])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < Q * V * np.dtype(float).itemsize
        # no value depends on an earlier call's contents of the work arrays
        assert (kernel(states[0]), kernel(states[1])) == (first, second)
        assert (first, second) == tuple(objective(Y, B, S, H) for S in states)


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
        with pytest.raises(ValidationError, match="learner index 5 out of range"):
            predict_response_prob(S, np.array([0, 0]), np.array([0, 5]), 1.0)

    @pytest.mark.parametrize("bad", [0.5, True, np.True_, np.float64(0.0), "0"])
    @pytest.mark.parametrize("form", ["scalar", "array"])
    @pytest.mark.parametrize("axis", ["question", "learner"])
    def test_an_index_that_is_not_an_integer_rejected(self, bad, form, axis):
        # 0.5 raised IndexError and True a TypeError; an array of them was
        # never accepted at all
        S = FactorState([[1.0]], [0.0], [[1.0]], np.zeros((1, 1)))
        bad, good = (bad, 0) if form == "scalar" else (np.array([bad]), np.array([0]))
        i, j = (bad, good) if axis == "question" else (good, bad)
        with pytest.raises(ValidationError, match=f"{axis} index must be an integer"):
            predict_response_prob(S, i, j, 1.0)

    def test_index_arrays_of_two_shapes_rejected(self):
        S = FactorState([[1.0]], [0.0], [[1.0, 2.0]], np.zeros((1, 1)))
        with pytest.raises(ValidationError, match="one shape"):
            predict_response_prob(S, np.zeros(2, dtype=int), np.zeros(3, dtype=int), 1.0)

    def test_arrays_give_an_array_with_the_bits_of_each_pair(self, rng):
        Q, N, K = 7, 11, 3
        S = FactorState(rng.uniform(0, 2, (Q, K)), rng.standard_normal(Q),
                        rng.standard_normal((K, N)), np.zeros((K, 1)))
        qi = rng.integers(0, Q, size=(40, 50))
        lj = rng.integers(0, N, size=(40, 50))
        got = predict_response_prob(S, qi, lj, 1.7)
        assert isinstance(got, np.ndarray) and got.shape == (40, 50)
        one = predict_response_prob(S, int(qi[0, 0]), np.int64(lj[0, 0]), 1.7)
        assert type(one) is float
        pairs = [predict_response_prob(S, i, j, 1.7) for i, j in zip(qi.flat, lj.flat)]
        assert np.array_equal(got.ravel(), pairs)
        naive = [1.0 / (1.0 + math.exp(-1.7 * (S.W[i] @ S.C[:, j] + S.mu[i])))
                 for i, j in zip(qi.flat, lj.flat)]
        assert np.allclose(pairs, naive, rtol=0, atol=1e-15)


class TestDomainTypes:
    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            GradedResponseSet(2, 2, [(0, 0, 1), (0, 0, 0)])

    @pytest.mark.parametrize("entries, message", [
        ([(0, 0, 1), (0, 1)], "triples"),
        ([(0, 0, 1, 1)], "triples"),
        ([("0", 0, 1)], "must be integers"),
        ([(0, 0, math.inf)], "must be integers"),
        ([(0, 0, math.nan)], "must be integers"),
        ([(0, 0.5, 1)], "must be integers"),
        ([(0, 0, 2)], "grade must be 0 or 1, got 2"),
        ([(0, -1, 1)], "learner index out of range"),
        ([(True, 0, 1)], "must be integers"),
        ([(0, 0, 1), (1, 1, np.True_)], "must be integers"),
    ])
    def test_entries_that_are_not_integer_triples_rejected(self, entries, message):
        # a ragged list raised ValueError, a string TypeError, and inf was
        # cast with a RuntimeWarning and reported as -9223372036854775808;
        # a bool among ints was stored as 0 or 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                GradedResponseSet(2, 2, entries)

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

    @pytest.mark.parametrize("select, message", [
        pytest.param(lambda Y: Y.subset([-1]), "entry index -1 out of range",
                     id="subset-negative"),
        pytest.param(lambda Y: Y.subset([0.7]), "entry index must be an integer",
                     id="subset-fraction"),
        pytest.param(lambda Y: Y.triples([-1, 2.9]), "entry index must be an integer",
                     id="triples-negative-and-fraction"),
        pytest.param(lambda Y: Y.subset([5]), r"entry index 5 out of range \[0, 3\)",
                     id="subset-past-the-end"),
        pytest.param(lambda Y: Y.triples(np.array([True, False])),
                     "entry index must be an integer", id="triples-bools"),
    ])
    def test_an_entry_selection_is_held_to_the_index_rule(self, select, message):
        # [-1] kept the last entry, [0.7] the first, [-1, 2.9] gave the last
        # entry twice, and [5] raised a bare numpy IndexError
        Y = GradedResponseSet(2, 3, [(0, 0, 1), (0, 2, 0), (1, 1, 1)])
        with pytest.raises(ValidationError, match=message):
            select(Y)

    def test_an_empty_entry_selection_selects_nothing(self):
        Y = GradedResponseSet(2, 3, [(0, 0, 1), (0, 2, 0), (1, 1, 1)])
        assert Y.triples([]) == [] and Y.triples(np.array([], dtype=int)) == []
        with pytest.raises(ValidationError, match="at least one entry"):
            Y.subset([])

    def test_word_counts_validation(self):
        with pytest.raises(ValidationError):
            WordCountMatrix(1, ["a", "a"], [[1, 2]])
        with pytest.raises(ValidationError):
            WordCountMatrix(1, ["a"], [[-1]])
        with pytest.raises(DimensionMismatchError):
            WordCountMatrix(2, ["a"], [[1]])

    @pytest.mark.parametrize("count", [math.inf, -math.inf, math.nan, 1e30, 2.0**63,
                                       2**63, 2**70, "3", 1.5])
    def test_a_count_that_is_no_int64_integer_is_rejected_before_the_cast(self, count):
        # inf and 1e30 raised a RuntimeWarning in the cast, 2**70 an
        # OverflowError and "3" a TypeError
        with pytest.raises(ValidationError, match="^counts must be"):
            WordCountMatrix(1, ["a"], [[count]])

    def test_the_largest_int64_count_and_integral_floats_are_taken(self):
        largest = np.iinfo(np.int64).max
        for count in (largest, np.uint64(largest), 3.0, np.float32(2.0)):
            assert WordCountMatrix(1, ["a"], [[count]]).counts.tolist() == [[int(count)]]

    @pytest.mark.parametrize("order", [[1.5, 0], [1.0, 0.0], [True, False], [0, 2],
                                       [0, 0], [0], []])
    def test_a_concept_order_that_is_no_integer_permutation_is_rejected(self, order):
        # [1.5, 0] was truncated to [1, 0], and [True, False] was taken
        S = FactorState(np.ones((2, 2)), np.zeros(2), np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(ValidationError, match="order|concept index"):
            S.permuted(order)
        assert S.permuted(np.array([1, 0], dtype=np.uint8)).W.shape == (2, 2)

    def test_factor_state_nonnegativity(self, rng):
        with pytest.raises(ValidationError):
            FactorState([[-0.1]], [0.0], [[1.0]], np.zeros((1, 1)))
        with pytest.raises(ValidationError):
            FactorState([[0.1]], [0.0], [[1.0]], [[-1.0]])

    @pytest.mark.parametrize("factor", ["W", "mu", "C", "T"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_factor_state_rejects_a_non_finite_entry(self, factor, value):
        # json reads NaN and Infinity, and predict wrote nan probabilities
        parts = dict(W=[[1.0, 0.5]], mu=[0.0], C=[[1.0], [2.0]], T=[[1.0], [0.0]])
        bad = np.array(parts[factor])
        bad.flat[-1] = value
        parts[factor] = bad
        with pytest.raises(ValidationError, match=f"^{factor} must be finite"):
            FactorState(**parts)

    def test_factor_state_immutable(self, rng):
        S = small_state(rng)
        with pytest.raises(ValueError):
            S.W[0, 0] = 5.0

    def test_hyperparams_validation(self):
        with pytest.raises(ValidationError):
            HyperParams(lam=0.0, gamma=1.0, eta=1.0, tau=1.0, num_concepts=1)
        with pytest.raises(ValidationError):
            HyperParams(lam=1.0, gamma=1.0, eta=1.0, tau=1.0, num_concepts=0)

    @pytest.mark.parametrize("name", ["lam", "gamma", "eta", "tau", "epsilon"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_hyperparams_reject_non_finite_values_by_name(self, name, value):
        fields = dict(lam=0.3, gamma=0.3, eta=0.3, tau=2.0, num_concepts=2,
                      epsilon=1e-6)
        fields[name] = value
        with pytest.raises(ValidationError, match=f"^{name} must be finite"):
            HyperParams(**fields)

    def test_fit_report_trace_length(self):
        with pytest.raises(ValidationError):
            FitReport((1.0, 2.0), True, 3, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_fit_report_rejects_a_non_finite_trace_value(self, value):
        with pytest.raises(ValidationError, match="^objective_trace must be finite"):
            FitReport((1.0, value), True, 2, 0.0)

    @pytest.mark.parametrize("value", ["2", True, np.bool_(False), None, 1j, [2.0]])
    def test_fit_report_trace_is_checked_not_converted(self, value):
        # float("2") is 2.0 and float(True) is 1.0
        with pytest.raises(ValidationError, match="^objective_trace must be finite real"):
            FitReport((1.5, value), True, 2, 0.0)

    def test_fit_report_stores_real_trace_values_as_floats(self):
        report = FitReport((3, np.int64(2), np.float32(1.5)), True, 3, 0.0)
        assert report.objective_trace == (3.0, 2.0, 1.5)
        assert all(type(v) is float for v in report.objective_trace)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, "1", True, None])
    def test_fit_report_wall_time_is_a_finite_real_at_least_zero(self, value):
        # nan, inf and True passed, and "1" escaped as a TypeError
        with pytest.raises(ValidationError, match="^wall_time must be finite and >= 0"):
            FitReport((), False, 0, value)

    def test_fit_report_stores_a_real_wall_time_as_a_float(self):
        for value in (0, np.float32(1.5), 2.25):
            wall_time = FitReport((), False, 0, value).wall_time
            assert type(wall_time) is float and wall_time == value

    @pytest.mark.parametrize("value", ["false", 1, 0.0, None])
    def test_fit_report_converged_is_checked_not_converted(self, value):
        # bool("false") is True
        with pytest.raises(ValidationError, match="^converged must be a bool"):
            FitReport((), value, 0, 0.0)
