import math
import warnings

import numpy as np
import pytest
from pytest import approx

from conceptfit import (
    ConceptfitError,
    FactorState,
    FitConfig,
    GradedResponseSet,
    HyperParams,
    InfeasibleSplitError,
    ValidationError,
    WordCountMatrix,
    association_graph,
    cross_validate,
    fit,
    holdout_split,
    mean_predicted_likelihood,
    predict_response_prob,
    simulate,
    top_keywords,
)
from oracles import naive_bernoulli_nll


def grid_responses(Q, N):
    return GradedResponseSet(
        Q, N, [(i, j, (i + j) % 2) for i in range(Q) for j in range(N)]
    )


class TestHoldoutSplit:
    def test_sizes_20_percent_of_100(self):
        Y, _, _ = simulate(10, 10, 4, 2, sparsity=1, tau=1.0, seed=3)
        split = holdout_split(Y, 0.2, 0)
        assert len(split.test_entries) == 20
        assert len(split.train_entries) == 80

    def test_fully_observed_algebra_scale_grid(self):
        # 34 questions x 99 learners fully observed: round(0.2 * 3366) = 673
        Y = grid_responses(34, 99)
        split = holdout_split(Y, 0.2, 1)
        assert len(split.test_entries) == 673

    def test_same_seed_identical(self):
        Y = grid_responses(8, 9)
        a = holdout_split(Y, 0.25, 42)
        b = holdout_split(Y, 0.25, 42)
        assert a == b

    def test_partitions_exactly(self):
        Y = grid_responses(6, 7)
        split = holdout_split(Y, 0.3, 5)
        train, test = set(split.train_entries), set(split.test_entries)
        assert train | test == set(range(Y.num_observed))
        assert not train & test

    def test_every_question_and_learner_keeps_training_entry(self):
        # two observations per question and per learner: a plain uniform
        # draw often strands one, the greedy guarantee must kick in
        entries = [(i, i, 1) for i in range(5)] + [(i, (i + 1) % 5, 0) for i in range(5)]
        Y = GradedResponseSet(5, 5, entries)
        for seed in range(20):
            split = holdout_split(Y, 0.4, seed)
            keep_q = {Y.question_idx[k] for k in split.train_entries}
            keep_l = {Y.learner_idx[k] for k in split.train_entries}
            assert keep_q == set(range(5))
            assert keep_l == set(range(5))

    def test_a_draw_that_keeps_everyone_covered_is_the_split(self):
        # the greedy pass returns the first round(fraction * observed)
        # entries of its shuffle whenever they strand no question or learner
        sparse, _, _ = simulate(10, 12, 4, 2, sparsity=1, tau=1.0,
                                missing_fraction=0.6, seed=3)
        for Y in (grid_responses(6, 7), sparse):
            drawn = 0
            for seed in range(20):
                n_test = round(0.3 * Y.num_observed)
                first = np.random.default_rng(seed).permutation(Y.num_observed)[:n_test]
                train = np.setdiff1d(np.arange(Y.num_observed), first)
                if (set(Y.question_idx[train]) == set(Y.question_idx)
                        and set(Y.learner_idx[train]) == set(Y.learner_idx)):
                    split = holdout_split(Y, 0.3, seed)
                    assert split.test_entries == tuple(sorted(first.tolist()))
                    drawn += 1
            assert drawn > 0

    def test_infeasible_raises(self):
        # one observation per question: nothing can be held out
        entries = [(i, i, 1) for i in range(4)]
        Y = GradedResponseSet(4, 4, entries)
        with pytest.raises(InfeasibleSplitError):
            holdout_split(Y, 0.5, 0)

    def test_bad_fraction(self):
        Y = grid_responses(3, 3)
        with pytest.raises(ValidationError):
            holdout_split(Y, 1.0, 0)

    def test_a_fraction_that_holds_out_no_entry_is_rejected(self):
        # 20 observed grades at 0.02 used to split into 20 train and 0 test
        Y = grid_responses(4, 5)
        with pytest.raises(ValidationError, match=r"fraction 0\.02 of 20 observed"):
            holdout_split(Y, 0.02, 0)
        assert len(holdout_split(Y, 0.05, 0).test_entries) == 1


class TestMeanPredictedLikelihood:
    def test_uninformative_state_scores_half(self):
        S = FactorState(np.zeros((3, 2)), np.zeros(3), np.zeros((2, 4)), np.zeros((2, 1)))
        entries = [(0, 0, 1), (1, 2, 0), (2, 3, 1)]
        assert mean_predicted_likelihood(S, entries, tau=3.0) == 0.5

    def test_single_entry_zero_slack(self):
        S = FactorState(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)))
        assert mean_predicted_likelihood(S, [(0, 0, 1)], tau=1.0) == 0.5

    def test_matches_direct_recomputation_on_true_factors(self):
        Y, B, truth = simulate(15, 20, 6, 2, sparsity=1, tau=2.0,
                               missing_fraction=0.3, seed=11)
        split = holdout_split(Y, 0.2, 4)
        test = Y.triples(split.test_entries)
        got = mean_predicted_likelihood(truth, test, 2.0)
        acc = 0.0
        for i, j, y in test:
            z = sum(truth.W[i][k] * truth.C[k][j] for k in range(2)) + truth.mu[i]
            p = 1.0 / (1.0 + math.exp(-2.0 * z))
            acc += p if y == 1 else 1.0 - p
        assert got == approx(acc / len(test), rel=1e-12)
        # and the log variant matches the naive NLL
        got_log = mean_predicted_likelihood(truth, test, 2.0, log=True)
        acc = -sum(
            naive_bernoulli_nll(y, truth.W[i] @ truth.C[:, j] + truth.mu[i], 2.0)
            for i, j, y in test
        )
        assert got_log == approx(acc / len(test), rel=1e-12)

    def test_true_factors_beat_uninformative(self):
        Y, B, truth = simulate(15, 20, 6, 2, sparsity=1, tau=2.0,
                               missing_fraction=0.3, seed=11)
        split = holdout_split(Y, 0.2, 4)
        test = Y.triples(split.test_entries)
        zeros = FactorState(
            np.zeros((15, 2)), np.zeros(15), np.zeros((2, 20)), np.zeros((2, 6))
        )
        assert mean_predicted_likelihood(truth, test, 2.0) > \
            mean_predicted_likelihood(zeros, test, 2.0)

    def test_invariant_under_concept_permutation(self):
        _, _, truth = simulate(8, 9, 4, 3, sparsity=2, tau=1.0, seed=2)
        entries = [(0, 0, 1), (3, 4, 0), (7, 8, 1)]
        base = mean_predicted_likelihood(truth, entries, 1.5)
        assert mean_predicted_likelihood(truth.permuted([2, 0, 1]), entries, 1.5) == \
            approx(base, rel=1e-12)

    @pytest.mark.parametrize("tau", [-2.0, 0.0, -0.0, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("log", [False, True])
    def test_tau_that_is_not_finite_and_positive_rejected(self, tau, log):
        # a negative tau flipped every probability, and 0 scored 0.5, silently
        S = FactorState([[1.0]], [0.5], [[1.0, -1.0]], np.zeros((1, 1)))
        with pytest.raises(ValidationError, match="tau"):
            mean_predicted_likelihood(S, [(0, 0, 1), (0, 1, 0)], tau=tau, log=log)
        with pytest.raises(ValidationError, match="tau"):
            predict_response_prob(S, 0, 0, tau)

    @pytest.mark.parametrize("entries, message", [
        ([(0, 0, 2)], "grade must be 0 or 1"),
        ([(0, 1, -1)], "grade must be 0 or 1"),
        ([(0, 0, 0.7)], "must be integers"),
        ([(0.9, 0, 1)], "must be integers"),
        ([(0, 0, math.nan)], "must be integers"),
        ([("0", 0, 1)], "must be integers"),
        ([(0, 0)], "triples"),
        ([(0, 0, 1, 1)], "triples"),
        ([(0, 0, 1), (0, 1)], "triples"),
        ([(True, 0, 1)], "must be integers"),
        ([(0, 0, 1), (0, 1, np.False_)], "must be integers"),
    ])
    @pytest.mark.parametrize("log", [False, True])
    def test_entries_it_cannot_score_are_rejected(self, entries, message, log):
        # a grade of 2 or 0.7 was scored as an incorrect grade, a question
        # index of 0.9 was truncated to 0, and one of True was scored as 1
        S = FactorState([[1.0]], [0.5], [[1.0, -1.0]], np.zeros((1, 1)))
        with pytest.raises(ValidationError, match=message):
            mean_predicted_likelihood(S, entries, tau=1.0, log=log)
        # integral floats and repeated entries still score
        once = mean_predicted_likelihood(S, [(0, 0, 1)], tau=1.0, log=log)
        assert mean_predicted_likelihood(S, [(0.0, 0, 1.0), (0, 0, 1)], tau=1.0,
                                         log=log) == once

    def test_empty_test_set_rejected(self):
        S = FactorState(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(ValidationError):
            mean_predicted_likelihood(S, [], tau=1.0)

    def test_log_variant_finite_for_confident_wrong_predictions(self):
        # tau * z = +-100: 1 - p underflows to 0 for the wrong grade
        S = FactorState([[10.0]], [0.0], [[5.0, -5.0]], np.zeros((1, 1)))
        entries = [(0, 0, 0), (0, 1, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mean_predicted_likelihood(S, entries, tau=2.0, log=True)
        assert math.isfinite(got)
        expected = -sum(
            naive_bernoulli_nll(y, S.W[i] @ S.C[:, j] + S.mu[i], 2.0)
            for i, j, y in entries
        ) / len(entries)
        assert got == approx(expected, rel=1e-12)
        assert got == approx(-100.0, rel=1e-12)


class TestCrossValidate:
    def setup_method(self):
        self.Y, self.B, _ = simulate(12, 15, 8, 2, sparsity=1, tau=2.0,
                                     missing_fraction=0.2, seed=7)
        self.cfg = FitConfig(rng_seed=0)

    def params(self, lam=0.2, tau=2.0):
        return HyperParams(lam=lam, gamma=0.2, eta=0.2, tau=tau, num_concepts=2)

    def test_singleton_grid_equals_direct_fit_and_score(self):
        p = self.params()
        best, table = cross_validate(self.Y, self.B, [p], self.cfg, 0.2)
        assert best == p
        assert len(table) == 1
        split = holdout_split(self.Y, 0.2, self.cfg.rng_seed)
        state, _ = fit(self.Y.subset(split.train_entries), self.B, p, self.cfg)
        direct = mean_predicted_likelihood(
            state, self.Y.triples(split.test_entries), p.tau
        )
        assert table[0].score == approx(direct, rel=1e-12)

    def test_duplicate_grid_point_scores_identically_first_wins(self):
        p = self.params()
        best, table = cross_validate(self.Y, self.B, [p, p], self.cfg, 0.2)
        assert table[0].score == table[1].score
        assert best is table[0].params

    def test_tie_broken_toward_larger_lambda(self):
        # sabotage scoring into a tie by using one fold containing one entry?
        # simpler: two identical-scoring points differing in lam cannot be
        # engineered reliably, so check the comparator through duplicates
        p_small = self.params(lam=0.1)
        p_large = self.params(lam=0.3)
        best, table = cross_validate(self.Y, self.B, [p_small, p_large], self.cfg, 0.2)
        scores = [row.score for row in table]
        if scores[0] == scores[1]:
            assert best == p_large
        else:
            assert best == table[int(np.argmax(scores))].params

    def test_kfold_option(self):
        p = self.params()
        best, table = cross_validate(self.Y, self.B, [p], self.cfg, 3)
        assert best == p
        assert table[0].score is not None

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            cross_validate(self.Y, self.B, [], self.cfg, 0.2)

    def test_kfold_rejects_folds_that_starve_a_question_or_learner(self):
        # 90% missing: some learners have fewer observed grades than folds
        Y, B, _ = simulate(20, 30, 10, 2, 1, 2.0, 0.9)
        with pytest.raises(InfeasibleSplitError):
            cross_validate(Y, B, [self.params()], self.cfg, 5)

    def test_parallel_matches_serial(self):
        grid = [self.params(lam=0.1), self.params(lam=0.3)]
        b1, t1 = cross_validate(self.Y, self.B, grid, self.cfg, 0.2, n_threads=1)
        b2, t2 = cross_validate(self.Y, self.B, grid, self.cfg, 0.2, n_threads=2)
        assert b1 == b2
        assert [r.score for r in t1] == [r.score for r in t2]

    @pytest.mark.parametrize("folds_or_fraction, plain", [
        (np.int64(3), 3), (np.int32(3), 3), (np.float32(0.25), 0.25),
    ])
    def test_accepts_numpy_numbers(self, folds_or_fraction, plain):
        # numpy integers and float32 used to be rejected as neither a
        # fraction nor a fold count
        p = self.params()
        _, table = cross_validate(self.Y, self.B, [p], self.cfg, folds_or_fraction)
        _, expected = cross_validate(self.Y, self.B, [p], self.cfg, plain)
        assert table[0].score == expected[0].score

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_rejects_a_bool_for_the_folds(self, flag):
        with pytest.raises(ValidationError, match="fraction or a fold count"):
            cross_validate(self.Y, self.B, [self.params()], self.cfg, flag)

    @pytest.mark.parametrize("n_threads", [0, -1, 2.5, 1.0, True, "2", None])
    def test_rejects_a_thread_count_that_is_not_a_positive_integer(self, n_threads):
        # 0 and -1 used to run serially, and 2.5 escaped as a TypeError
        with pytest.raises(ValidationError, match="n_threads must be an integer >= 1"):
            cross_validate(self.Y, self.B, [self.params()], self.cfg, 0.2,
                           n_threads=n_threads)

    def test_a_diverging_grid_point_scores_none_and_all_diverging_raise(self, monkeypatch):
        # every objective of a fit at lam=0.1 is nan, so its fit diverges at
        # the start; the serial run scores that point and skips it in the choice
        import conceptfit.estimator as estimator

        real = estimator._objective_of

        def patched(responses, word_counts, params):
            kernel = real(responses, word_counts, params)
            return (lambda state: math.nan) if params.lam == 0.1 else kernel

        monkeypatch.setattr(estimator, "_objective_of", patched)
        diverging, good = self.params(lam=0.1), self.params(lam=0.3)
        best, table = cross_validate(self.Y, self.B, [diverging, good], self.cfg, 0.2)
        assert best == good
        assert (table[0].score, table[0].converged) == (None, False)
        assert table[1].score is not None
        with pytest.raises(ConceptfitError, match="every grid point diverged"):
            cross_validate(self.Y, self.B, [diverging, diverging], self.cfg, 0.2)


class TestTopKeywords:
    def test_single_concept_ordering(self):
        S = FactorState(
            np.ones((2, 1)), np.zeros(2), np.ones((1, 2)), [[0.1, 0.9, 0.5]]
        )
        out = top_keywords(S, ["a", "b", "c"], 2)
        assert [w for w, _ in out[0].keywords] == ["b", "c"]

    def test_zero_row_gives_empty_list(self):
        S = FactorState(np.ones((2, 1)), np.zeros(2), np.ones((1, 2)),
                        np.zeros((1, 3)))
        out = top_keywords(S, ["a", "b", "c"], 2)
        assert out[0].keywords == ()

    def test_five_concepts_three_words_table_shape(self, rng):
        T = rng.uniform(0.1, 1.0, size=(5, 12))
        S = FactorState(np.ones((3, 5)), np.zeros(3), np.ones((5, 2)), T)
        out = top_keywords(S, [f"w{v}" for v in range(12)], 3)
        assert len(out) == 5
        assert all(len(s.keywords) <= 3 for s in out)

    def test_permutation_relabels_consistently(self, rng):
        T = rng.uniform(0.1, 1.0, size=(3, 6))
        S = FactorState(np.ones((2, 3)), np.zeros(2), np.ones((3, 2)), T)
        vocab = [f"w{v}" for v in range(6)]
        base = top_keywords(S, vocab, 2)
        perm = [2, 0, 1]
        permuted = top_keywords(S.permuted(perm), vocab, 2)
        for k_new, k_old in enumerate(perm):
            assert permuted[k_new].keywords == base[k_old].keywords


    @pytest.mark.parametrize("k_words", [1.5, True, np.True_, 0, -1])
    def test_k_words_must_be_an_integer_of_at_least_one(self, k_words):
        # 1.5 listed 3 keywords and True was taken for 1
        S = FactorState(np.ones((2, 1)), np.zeros(2), np.ones((1, 2)), [[0.1, 0.9, 0.5]])
        with pytest.raises(ValidationError, match="k_words must be an integer >= 1"):
            top_keywords(S, ["a", "b", "c"], k_words)
        assert len(top_keywords(S, ["a", "b", "c"], np.int64(2))[0].keywords) == 2


class TestAssociationGraph:
    @pytest.mark.parametrize("floor", [math.nan, math.inf])
    def test_rejects_a_floor_that_is_not_finite(self, floor):
        # a nan floor used to give a graph with no edges: W > nan is all False
        S = FactorState(np.ones((2, 1)), np.zeros(2), np.ones((1, 2)),
                        np.zeros((1, 1)))
        with pytest.raises(ValidationError,
                           match="weight_floor must be finite and >= 0"):
            association_graph(S, weight_floor=floor)

    def test_zero_weights_no_edges(self):
        S = FactorState(np.zeros((4, 2)), np.zeros(4), np.zeros((2, 3)),
                        np.zeros((2, 1)))
        g = association_graph(S)
        assert len(g.question_nodes) + len(g.concept_nodes) == 6
        assert g.edges == ()

    def test_zero_floor_dense_graph(self, rng):
        W = rng.uniform(0.1, 1.0, size=(4, 2))
        S = FactorState(W, np.zeros(4), np.zeros((2, 3)), np.zeros((2, 1)))
        g = association_graph(S, weight_floor=0.0)
        assert len(g.edges) == 8

    def test_difficulty_attached_to_questions(self):
        S = FactorState(np.ones((2, 1)), [0.5, -1.5], np.ones((1, 2)),
                        np.zeros((1, 1)))
        g = association_graph(S, weight_floor=0.0)
        assert g.question_nodes == ((0, 0.5), (1, -1.5))

    def test_permutation_relabels_edges(self, rng):
        W = rng.uniform(0.1, 1.0, size=(3, 3))
        S = FactorState(W, np.zeros(3), np.zeros((3, 2)), np.zeros((3, 1)))
        perm = [1, 2, 0]
        g = association_graph(S, weight_floor=0.0)
        gp = association_graph(S.permuted(perm), weight_floor=0.0)
        # new concept k carries old concept perm[k]
        remapped = {(i, perm[k], w) for i, k, w in gp.edges}
        assert remapped == set(g.edges)
