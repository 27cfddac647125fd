import inspect
import math

import numpy as np
import pytest
from pytest import approx

from conceptfit import (
    DivergenceError,
    FistaConfig,
    FitConfig,
    GradedResponseSet,
    HyperParams,
    ValidationError,
    WordCountMatrix,
    fista_minimize,
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

    def test_same_seed_fits_are_byte_identical_in_either_order(self):
        # each fit carries its steps from sweep to sweep, and nothing else:
        # a fit run before another leaves nothing behind for it
        Y, B, params = small_problem()

        def run(seed):
            state, report = fit(Y, B, params, FitConfig(rng_seed=seed))
            return (state.W.tobytes(), state.mu.tobytes(), state.C.tobytes(),
                    state.T.tobytes(), report.objective_trace)

        first = [run(0), run(1)]
        second = [run(1), run(0)]
        assert first[0] == second[1]
        assert first[1] == second[0]
        assert first[0] != first[1]

    def test_each_solve_starts_from_its_carried_step_or_its_jacobi_metric(
            self, monkeypatch):
        import conceptfit.estimator as estimator
        from conceptfit.estimator import _next_start
        from conceptfit.solvers import _FitBlocks

        solves, jacobi = [], []  # (metric, first_step) per solve; each Jacobi metric

        def recorded(*args, metric=None, **kwargs):
            result = fista_minimize(*args, metric=metric, **kwargs)
            solves.append((metric, result.first_step))
            return result

        for name in ("c_metric", "t_metric"):
            method = getattr(_FitBlocks, name)
            monkeypatch.setattr(_FitBlocks, name, lambda *args, method=method:
                                jacobi.append(method(*args)) or jacobi[-1])
        monkeypatch.setattr(estimator, "fista_minimize", recorded)
        Y, B, params = small_problem()

        def assert_carried(starts, firsts):
            # the first solve starts every row at 1.0, each later one from the last
            assert starts[0] == 1.0
            for start, first, carried in zip(starts, firsts, starts[1:]):
                assert np.array_equal(carried, _next_start(start, first))
                assert carried.shape == first.shape
            assert any(np.any(carried < 1.0) for carried in starts[1:])

        # a grades-only fit passes its W and C solves their carried starts
        _, report = fit_responses_only(Y, params)
        assert len(solves) == 2 * report.outer_iterations > 2 and jacobi == []
        for block in (0, 1):
            assert_carried(*zip(*solves[block::2]))
        # a joint fit carries W's start, on its weights; C and T take the
        # Jacobi metrics as formed, with no carried factor
        solves.clear()
        _, report = fit(Y, B, params)
        assert len(solves) == 3 * report.outer_iterations > 3
        w_metrics, w_firsts = zip(*solves[::3])
        weights = [metric[:, :-1] for metric in w_metrics]
        assert all(np.all(w == w[:, :1]) for w in weights)
        assert_carried([1.0] + [w[:, :1] for w in weights[1:]], w_firsts)
        assert np.all(weights[0] == 1.0)
        assert len(jacobi) == 2 * report.outer_iterations
        assert all(metric is formed for (metric, _), formed
                   in zip(solves[1::3] + solves[2::3], jacobi[0::2] + jacobi[1::2]))

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


class TestNextStart:
    """``_next_start``: a carried row starts at min(1, 4 x the step that passed)."""

    def test_a_row_starts_at_four_times_its_last_step_up_to_one(self):
        from conceptfit.estimator import _next_start

        first = np.array([2.0**-3, 2.0**-10, 0.5, 1.0])[:, None]
        assert _next_start(1.0, first).tolist() == [[2.0**-1], [2.0**-8], [1.0], [1.0]]
        # the step that passed is the start times the multiplier that passed
        start = np.array([0.25, 2.0**-20, 1.0, 0.5])[:, None]
        first = np.array([0.5, 1.0, 2.0**-3, 1.0])[:, None]
        assert _next_start(start, first).tolist() == [[0.5], [2.0**-18], [0.5], [1.0]]

    def test_a_row_whose_step_reached_the_floor_starts_again_at_one(self):
        from conceptfit.estimator import _next_start
        from conceptfit.solvers import _STEP_FLOOR

        first = np.array([_STEP_FLOOR, 1e-30, 2.0**-30, 1.0, 2.0 * _STEP_FLOOR])
        start = np.array([1.0, 1.0, 2.0**-40, _STEP_FLOOR, 1.0])
        # the product decides, so a floor reached by start and step together counts
        assert _next_start(start, first).tolist() == [1.0, 1.0, 1.0, 1.0,
                                                      8.0 * _STEP_FLOOR]


CANON = dict(num_questions=50, num_learners=100, num_words=60, num_concepts=3,
             sparsity=2, tau=2.0, missing_fraction=0.5)
CANON_PARAMS = HyperParams(lam=0.3, gamma=0.3, eta=0.3, tau=2.0, num_concepts=3)


class TestExtrapolatedSweeps:
    def test_canonical_grades_only_fit_converges_below_the_cap(self):
        # without extrapolation this fit was still descending at sweep 100
        Y, _, _ = simulate(seed=6, **CANON)
        _, report = fit_responses_only(Y, CANON_PARAMS, FitConfig(rng_seed=0))
        assert report.converged
        assert report.outer_iterations < 100

    def test_canonical_joint_fit_converges_in_50_sweeps(self):
        # without extrapolation this fit took 87 sweeps
        Y, B, _ = simulate(seed=0, **CANON)
        _, report = fit(Y, B, CANON_PARAMS, FitConfig(rng_seed=0))
        assert report.converged
        assert report.outer_iterations <= 50

    @pytest.mark.parametrize("start", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_text_heavy_joint_fit_converges_in_45_sweeps(self, seed, start):
        # without the per-concept scale step these fits took 51-64 sweeps
        Y, B, _ = simulate(40, 15, 300, 3, sparsity=2, tau=2.0, missing_fraction=0.0,
                           seed=seed)
        _, report = fit(Y, B, CANON_PARAMS, FitConfig(rng_seed=start))
        assert report.converged
        assert report.outer_iterations <= 45

    def test_only_a_fit_with_words_rebalances_the_scales(self, monkeypatch):
        import conceptfit.estimator as estimator

        calls = {"_centred": [], "_rebalanced": []}
        for name, seen in calls.items():
            step = getattr(estimator, name)
            monkeypatch.setattr(estimator, name,
                                lambda *args, step=step, seen=seen:
                                seen.append(args) or step(*args))
        Y, B, params = small_problem(0)
        state, report = fit_responses_only(Y, params, FitConfig(rng_seed=0))
        # a grades-only fit never shifts nor scales
        assert report.outer_iterations > 0 and calls == {"_centred": [], "_rebalanced": []}
        assert np.abs(state.C.mean(axis=1)).max() > 1e-3
        state, report = fit(Y, B, params, FitConfig(rng_seed=0))
        assert len(calls["_centred"]) == len(calls["_rebalanced"]) == report.outer_iterations
        # every sweep of a fit with words ends with mean knowledge 0 per concept
        assert np.abs(state.C.mean(axis=1)) == approx(0.0, abs=1e-12)

    def test_the_shift_cuts_the_sweeps_of_canonical_joint_fits(self):
        # with the scale step alone these fits took 37, 43 and 31 sweeps
        Y, B, _ = simulate(seed=0, **CANON)
        sweeps = []
        for start in (0, 1, 2):
            _, report = fit(Y, B, CANON_PARAMS, FitConfig(rng_seed=start))
            assert report.converged
            sweeps.append(report.outer_iterations)
        assert sum(sweeps) <= 95

    def test_only_a_fit_with_words_solves_its_blocks_under_curvature_metrics(
            self, monkeypatch):
        import conceptfit.estimator as estimator

        metrics = []

        def recorded(*args, metric=None, **kwargs):
            metrics.append(metric)
            return fista_minimize(*args, metric=metric, **kwargs)

        monkeypatch.setattr(estimator, "fista_minimize", recorded)
        Y, B, params = small_problem(0)
        _, report = fit_responses_only(Y, params, FitConfig(rng_seed=0))
        # a grades-only fit passes each solve only its rows' start steps: 1.0
        # in the first sweep, then a start per question (W) and per learner (C)
        assert len(metrics) == 2 * report.outer_iterations > 2
        assert metrics[:2] == [1.0, 1.0]
        for block, shape in ((0, (Y.num_questions, 1)), (1, (1, Y.num_learners))):
            for metric in metrics[block + 2::2]:
                assert metric.shape == shape
                assert np.all((metric > 0.0) & (metric <= 1.0))
        metrics.clear()
        _, report = fit(Y, B, params, FitConfig(rng_seed=0))
        assert len(metrics) == 3 * report.outer_iterations
        # a joint fit's W solves take the relative metric: the row's start on
        # every weight, and at least that on every difficulty
        for metric in metrics[::3]:
            assert metric.shape == (Y.num_questions, params.num_concepts + 1)
            start = metric[:, :1]
            assert np.all(metric[:, :-1] == start) and np.all(start <= 1.0)
            assert np.all(metric[:, -1:] >= start)
        assert any(np.any(metric[:, -1:] > metric[:, :1]) for metric in metrics[::3])
        # its C and T solves take the absolute Jacobi metrics, K x N and K x V
        K = params.num_concepts
        for block, shape in ((1, (K, Y.num_learners)), (2, (K, B.num_words))):
            for metric in metrics[block::3]:
                assert metric.shape == shape
                assert np.all(np.isfinite(metric) & (metric > 0.0))

    def test_the_metric_cuts_the_w_solves_of_text_heavy_joint_fits(self, monkeypatch):
        # under one step per row these fits took 5.49 W iterations per sweep,
        # and up to 39 sweeps
        solves = record_solves(monkeypatch)
        w_iterations = sweeps = 0
        for seed in (0, 1, 2):
            Y, B, _ = simulate(40, 15, 300, 3, sparsity=2, tau=2.0, missing_fraction=0.0,
                               seed=seed)
            for start in (0, 1, 2):
                solves.clear()
                _, report = fit(Y, B, CANON_PARAMS, FitConfig(rng_seed=start))
                assert report.converged
                assert report.outer_iterations <= 32
                w_iterations += sum(used for _, used in solves[::3])
                sweeps += report.outer_iterations
        assert w_iterations / sweeps <= 3.5

    def test_the_jacobi_metrics_bound_the_first_iteration_of_c_and_t_solves(
            self, monkeypatch):
        # from the carried step alone these solves made 5.9 (C) and 5.6 (T)
        # value passes in their first iteration
        import conceptfit.estimator as estimator

        first = []  # per solve, the value passes before its second gradient

        def recorded(gradient, value, *args, **kwargs):
            seen = {"gradients": 0, "values": 0}

            def counted_gradient(x):
                seen["gradients"] += 1
                return gradient(x)

            def counted_value(x):
                seen["values"] += seen["gradients"] == 1
                return value(x)

            result = fista_minimize(counted_gradient, counted_value, *args, **kwargs)
            first.append(seen["values"])
            return result

        monkeypatch.setattr(estimator, "fista_minimize", recorded)
        Y, B, _ = simulate(seed=0, **CANON)
        for start in (0, 1, 2):
            _, report = fit(Y, B, CANON_PARAMS, FitConfig(rng_seed=start))
            assert report.converged
        assert len(first) % 3 == 0
        assert np.mean(first[1::3]) <= 3.0 and np.mean(first[2::3]) <= 3.0

    @pytest.mark.parametrize("words", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_trace_never_rises_and_the_state_stays_feasible(self, words, seed):
        Y, B, params = small_problem(seed)
        config = FitConfig(max_outer_iterations=150, outer_relative_tolerance=1e-9,
                           rng_seed=seed)
        if words:
            state, report = fit(Y, B, params, config)
        else:
            state, report = fit_responses_only(Y, params, config)
        assert len(report.objective_trace) > 10
        assert_trace_nonincreasing(report.objective_trace)
        assert np.all(state.W >= 0) and np.all(state.T >= 0)
        B_fit = B if words else WordCountMatrix(Y.num_questions, (),
                                                np.zeros((Y.num_questions, 0)))
        assert objective(Y, B_fit, state, params) == report.objective_trace[-1]


def record_solves(monkeypatch):
    """Each block solve's (relative tolerance, iterations used), in order."""
    import conceptfit.estimator as estimator

    signature = inspect.signature(fista_minimize)
    solves = []

    def recorded(*args, **kwargs):
        config = signature.bind(*args, **kwargs).arguments["config"]
        result = fista_minimize(*args, **kwargs)
        solves.append((config.relative_tolerance, result.iterations_used))
        return result

    monkeypatch.setattr(estimator, "fista_minimize", recorded)
    return solves


class TestInexactBlockSolves:
    @pytest.mark.parametrize("config", [FitConfig(), TIGHT], ids=["default", "tight"])
    @pytest.mark.parametrize("words", [True, False])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_only_a_sweep_at_the_configured_tolerance_ends_a_fit(
            self, monkeypatch, config, words, seed):
        solves = record_solves(monkeypatch)
        Y, B, params = small_problem(seed)
        if not words:
            B = WordCountMatrix(Y.num_questions, (), np.zeros((Y.num_questions, 0)))
        config = FitConfig(config.max_outer_iterations,
                           config.outer_relative_tolerance, config.inner, seed)
        _, report = fit(Y, B, params, config)
        assert report.converged
        blocks = 3 if words else 2
        assert len(solves) == blocks * report.outer_iterations
        configured = config.inner.relative_tolerance
        sweeps = [[tol for tol, _ in solves[k:k + blocks]]
                  for k in range(0, len(solves), blocks)]
        # a sweep solves every block to one tolerance, the last one to the
        # configured tolerance, and none tighter
        assert all(len(set(sweep)) == 1 for sweep in sweeps)
        assert sweeps[-1][0] == configured
        assert min(sweep[0] for sweep in sweeps) >= configured
        # and none looser than 1e-3 in the first sweep, or than a tenth of
        # the last sweep's relative decrease after it
        assert sweeps[0][0] == max(1e-3, configured)
        init = initialize(Y.num_questions, Y.num_learners, B.num_words,
                          params.num_concepts, seed)
        objectives = [objective(Y, B, init, params), *report.objective_trace]
        for sweep, prev, cur in zip(sweeps[1:], objectives, objectives[1:]):
            assert sweep[0] <= max(0.1 * ((prev - cur) / abs(prev)), configured)

    def test_canonical_joint_fit_makes_at_most_600_inner_iterations(self, monkeypatch):
        # every solve at the configured tolerance took 1,546
        solves = record_solves(monkeypatch)
        Y, B, _ = simulate(seed=0, **CANON)
        _, report = fit(Y, B, CANON_PARAMS, FitConfig(rng_seed=0))
        assert report.converged
        assert sum(used for _, used in solves) <= 600


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

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-5])
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, tol):
        # inf used to pass, and a fit then stopped as converged after one sweep
        with pytest.raises(ValidationError,
                           match="relative_tolerance must be finite and > 0"):
            FistaConfig(relative_tolerance=tol)
        with pytest.raises(ValidationError,
                           match="outer_relative_tolerance must be finite and > 0"):
            FitConfig(outer_relative_tolerance=tol)


def fit_with_or_without_words(words, sweeps):
    Y, B, params = small_problem()
    if not words:
        B = WordCountMatrix(Y.num_questions, (), np.zeros((Y.num_questions, 0)))
    config = FitConfig(max_outer_iterations=sweeps, outer_relative_tolerance=1e-12)
    state, report = fit(Y, B, params, config)
    return Y, B, params, state, report


class TestSetUpOncePerFit:
    """A fit forms its block set-up and its objective kernel once, before its sweeps."""

    @pytest.mark.parametrize("words", [True, False])
    @pytest.mark.parametrize("sweeps", [1, 4])
    def test_the_block_set_up_is_formed_once_whatever_the_sweep_count(
            self, monkeypatch, words, sweeps):
        # the builders formed their set-up per block solve, two Bernoulli
        # set-ups in every sweep; the W and C blocks now share one per fit
        import conceptfit.solvers as solvers

        calls = []
        original = solvers._observed_bernoulli

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(solvers, "_observed_bernoulli", counted)
        _, _, _, _, report = fit_with_or_without_words(words, sweeps)
        assert report.outer_iterations == sweeps
        assert len(calls) == 1

    @pytest.mark.parametrize("words", [True, False])
    @pytest.mark.parametrize("sweeps", [1, 2, 3, 4])
    def test_objective_is_bitwise_the_last_recorded_value(self, words, sweeps):
        Y, B, params, state, report = fit_with_or_without_words(words, sweeps)
        assert report.outer_iterations == sweeps
        assert objective(Y, B, state, params) == report.objective_trace[-1]


def nan_from_call(monkeypatch, first_nan):
    """Make each fit's objective kernel return nan from its ``first_nan``-th call on."""
    import conceptfit.estimator as estimator

    real = estimator._objective_of

    def patched(*args):
        kernel, calls = real(*args), []

        def value(state):
            calls.append(state)
            return math.nan if len(calls) >= first_nan else kernel(state)

        return value

    monkeypatch.setattr(estimator, "_objective_of", patched)


def same_state(a, b):
    return all(x.tobytes() == y.tobytes()
               for x, y in ((a.W, b.W), (a.mu, b.mu), (a.C, b.C), (a.T, b.T)))


class TestDivergence:
    def test_a_non_finite_start_carries_the_initial_state_and_an_empty_report(
            self, monkeypatch):
        Y, B, params = small_problem()
        nan_from_call(monkeypatch, 1)
        with pytest.raises(DivergenceError) as err:
            fit(Y, B, params, FitConfig(rng_seed=4))
        init = initialize(Y.num_questions, Y.num_learners, B.num_words,
                          params.num_concepts, 4)
        assert same_state(err.value.state, init)
        report = err.value.report
        assert report.objective_trace == () and report.outer_iterations == 0
        assert report.converged is False

    # call 3 follows the second sweep; call 8 is the fit's first extrapolated
    # guess, which the nan turns down before the sweep after it diverges
    @pytest.mark.parametrize("first_nan", [3, 8])
    def test_a_non_finite_sweep_carries_the_last_finite_state_and_the_partial_report(
            self, monkeypatch, first_nan):
        Y, B, params = small_problem()
        nan_from_call(monkeypatch, first_nan)
        with pytest.raises(DivergenceError) as err:
            fit(Y, B, params)
        report = err.value.report
        assert report.outer_iterations == len(report.objective_trace) >= 1
        assert report.converged is False
        monkeypatch.undo()
        capped, capped_report = fit(
            Y, B, params, FitConfig(max_outer_iterations=report.outer_iterations))
        assert same_state(err.value.state, capped)
        assert capped_report.objective_trace == report.objective_trace
