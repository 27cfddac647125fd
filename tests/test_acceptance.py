"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavier criteria share one set of synthetic datasets and fits through
module-scoped fixtures. Every tolerance is fixed here, not configurable.
"""

import math
import time

import numpy as np
import pytest
from pytest import approx

import conceptfit as cf
from conceptfit.solvers import prox_nonneg, prox_w
from oracles import (
    best_permutation_similarity,
    central_difference,
    naive_c_value,
    naive_t_value,
    naive_w_value,
    projected_gradient,
    random_instance,
    relative_error,
)

CANON = dict(num_questions=50, num_learners=100, num_words=60, num_concepts=3,
             sparsity=2, tau=2.0, missing_fraction=0.5)
FIT_PARAMS = cf.HyperParams(lam=0.3, gamma=0.3, eta=0.3, tau=2.0, num_concepts=3)
SEEDS = range(10)

# three hyperparameter regimes: weak, moderate, strong regularization/precision
REGIMES = [
    dict(tau=0.5, gamma=0.01, eta=0.01),
    dict(tau=2.0, gamma=0.3, eta=0.3),
    dict(tau=5.0, gamma=2.0, eta=2.0),
]


def report(criterion, name):
    print(f"\nACCEPTANCE CRITERION {criterion} ({name}): PASS")


@pytest.fixture(scope="module")
def canon_fits():
    """The ten reference datasets with one deterministic fit each."""
    out = []
    for seed in SEEDS:
        Y, B, truth = cf.simulate(seed=seed, **CANON)
        state, rep = cf.fit(Y, B, FIT_PARAMS, cf.FitConfig(rng_seed=0))
        out.append((Y, B, truth, state, rep))
    return out


def test_criterion_1_gradient_correctness(rng):
    start = time.perf_counter()
    checked = 0
    for n in range(50):
        regime = REGIMES[n % 3]
        Q = int(rng.integers(3, 13))
        N = int(rng.integers(3, 13))
        V = int(rng.integers(2, 13))
        K = int(rng.integers(1, 5))
        W, mu, C, T, entries, counts = random_instance(rng, Q, N, V, K)
        tau, gamma, eta = regime["tau"], regime["gamma"], regime["eta"]

        i = int(rng.integers(Q))
        obs = [(j, y) for qi, j, y in entries if qi == i]
        y_obs = np.array([y for _, y in obs], dtype=float)
        c_obs = np.vstack([C[:, [j for j, _ in obs]], np.ones((1, len(obs)))])
        w_aug = np.concatenate([W[i], [mu[i]]])
        got = cf.grad_w_row(y_obs, c_obs, counts[i].astype(float), T, w_aug, tau)
        fd = central_difference(
            lambda x: naive_w_value(y_obs, c_obs.tolist(), counts[i].tolist(),
                                    T.tolist(), x.tolist(), tau),
            w_aug, h=1e-5,
        )
        assert relative_error(got, fd) < 1e-4

        j = int(rng.integers(N))
        obs = [(qi, y) for qi, lj, y in entries if lj == j]
        y_obs = np.array([y for _, y in obs], dtype=float)
        W_obs = W[[qi for qi, _ in obs]]
        mu_obs = mu[[qi for qi, _ in obs]]
        got = cf.grad_c_column(y_obs, W_obs, mu_obs, C[:, j], gamma, tau)
        fd = central_difference(
            lambda x: naive_c_value(y_obs, W_obs.tolist(), mu_obs.tolist(),
                                    x.tolist(), gamma, tau),
            C[:, j].copy(), h=1e-5,
        )
        assert relative_error(got, fd) < 1e-4

        v = int(rng.integers(V))
        got = cf.grad_t_column(counts[:, v].astype(float), W, T[:, v], eta)
        fd = central_difference(
            lambda x: naive_t_value(counts[:, v].tolist(), W.tolist(),
                                    x.tolist(), eta),
            T[:, v].copy(), h=1e-5,
        )
        assert relative_error(got, fd) < 1e-4
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 50
    assert elapsed < 10.0
    report(1, "gradient correctness")


def test_criterion_2_subproblem_optimality(rng):
    start = time.perf_counter()
    cfg = cf.FistaConfig(max_iterations=3000, relative_tolerance=1e-13)
    for n in range(10):
        regime = REGIMES[n % 3]
        W, mu, C, T, entries, counts = random_instance(rng, 10, 8, 6, 3)

        v = int(rng.integers(6))
        sub = cf.t_column_subproblem(counts[:, v].astype(float), W, regime["eta"])
        x0 = rng.uniform(0.05, 2.0, size=3)
        res = cf.fista_minimize(sub.smooth_gradient, sub.smooth_value, sub.prox,
                                x0, cfg)
        _, f_star = projected_gradient(sub.smooth_value, sub.smooth_gradient,
                                       prox_nonneg, x0)
        assert res.final_objective <= f_star + 1e-5 * max(1.0, abs(f_star))

        j = int(rng.integers(8))
        obs = [(qi, y) for qi, lj, y in entries if lj == j]
        y_obs = np.array([y for _, y in obs], dtype=float)
        W_obs = W[[qi for qi, _ in obs]]
        mu_obs = mu[[qi for qi, _ in obs]]
        sub = cf.c_column_subproblem(y_obs, W_obs, mu_obs, regime["gamma"],
                                     regime["tau"])
        x0 = rng.standard_normal(3)
        res = cf.fista_minimize(sub.smooth_gradient, sub.smooth_value, sub.prox,
                                x0, cfg)
        _, f_star = projected_gradient(sub.smooth_value, sub.smooth_gradient,
                                       lambda x: x, x0)
        assert res.final_objective <= f_star + 1e-5 * max(1.0, abs(f_star))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, "subproblem optimality")


def test_criterion_3_prox_exactness(rng):
    # dense grid search of the defining minimization on K=2 instances
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, size=3)
        thr = float(rng.uniform(0.05, 0.8))
        got = prox_w(x, thr)
        axis = np.arange(0.0, 3.0, 1e-3)
        objective = (
            thr * (axis[:, None] + axis[None, :])
            + 0.5 * (axis[:, None] - x[0]) ** 2
            + 0.5 * (axis[None, :] - x[1]) ** 2
        )
        flat = int(np.argmin(objective))
        best = (axis[flat // axis.size], axis[flat % axis.size])
        assert got[0] == approx(best[0], abs=1e-3)
        assert got[1] == approx(best[1], abs=1e-3)
        assert got[2] == x[2]

    # idempotence (projection sense) and nonexpansiveness on 1,000 pairs
    for _ in range(1000):
        a = rng.uniform(-5, 5, size=4)
        b = rng.uniform(-5, 5, size=4)
        thr = float(rng.uniform(0, 2))
        pa = prox_nonneg(a)
        assert np.array_equal(prox_nonneg(pa), pa)
        wa, wb = prox_w(a, thr), prox_w(b, thr)
        assert np.array_equal(prox_w(wa, 0.0), wa)
        assert np.linalg.norm(wa - wb) <= np.linalg.norm(a - b) + 1e-12
        assert np.linalg.norm(pa - prox_nonneg(b)) <= np.linalg.norm(a - b) + 1e-12
    report(3, "prox exactness")


def test_criterion_4_monotone_descent(canon_fits):
    start = time.perf_counter()
    for Y, B, truth, state, rep in canon_fits:
        assert rep.converged
        assert rep.outer_iterations <= 100
        trace = rep.objective_trace
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-9 * abs(prev)
        assert state.W.min() >= 0 and state.T.min() >= 0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0  # fixture fits run inside this test on first use
    report(4, "monotone descent and convergence")


@pytest.mark.slow
def test_starts_reach_the_same_objective(canon_fits):
    # each block's rows are solved with steps of their own, so no row on the
    # rate floor stalls a fit, and the random start does not pick the answer
    for seed, (Y, B, _, _, rep) in zip(SEEDS, canon_fits):
        finals = [rep.objective_trace[-1]]
        for start in (1, 2):
            _, other = cf.fit(Y, B, FIT_PARAMS, cf.FitConfig(rng_seed=start))
            finals.append(other.objective_trace[-1])
        spread = (max(finals) - min(finals)) / min(finals)
        assert spread <= 1e-3, f"seed {seed}: starts 0-2 end at {finals}"


@pytest.mark.slow
def test_criterion_5_predictive_lift_from_text():
    start = time.perf_counter()

    def best_of(fit_once, starts=(0, 1, 2)):
        best = None
        for s in starts:
            state, rep = fit_once(s)
            final = rep.objective_trace[-1]
            if best is None or final < best[0]:
                best = (final, state, s)
        return best[1], best[2]

    lift_wins = 0
    finite_max_wins = 0
    for seed in SEEDS:
        Y, B, truth = cf.simulate(seed=seed, **CANON)
        split = cf.holdout_split(Y, 0.2, 100 + seed)
        Ytr = Y.subset(split.train_entries)
        test = Y.triples(split.test_entries)

        sweep = {}
        full_best = {}
        for tau in (0.5, 1.0, 2.0, 4.0):
            params = cf.HyperParams(lam=0.3, gamma=0.3, eta=0.3, tau=tau,
                                    num_concepts=3)
            if tau == 2.0:
                state, _ = best_of(lambda s: cf.fit(Ytr, B, params,
                                                    cf.FitConfig(rng_seed=s)))
                full_best[tau] = cf.mean_predicted_likelihood(state, test, tau)
                single, _ = cf.fit(Ytr, B, params, cf.FitConfig(rng_seed=0))
                sweep[tau] = cf.mean_predicted_likelihood(single, test, tau)
            else:
                state, _ = cf.fit(Ytr, B, params, cf.FitConfig(rng_seed=0))
                sweep[tau] = cf.mean_predicted_likelihood(state, test, tau)

        params = cf.HyperParams(lam=0.3, gamma=0.3, eta=0.3, tau=2.0,
                                num_concepts=3)
        base_state, _ = best_of(
            lambda s: cf.fit_responses_only(Ytr, params, cf.FitConfig(rng_seed=s))
        )
        base_best = cf.mean_predicted_likelihood(base_state, test, 2.0)
        base_single, _ = cf.fit_responses_only(Ytr, params, cf.FitConfig(rng_seed=0))
        base_sweep = cf.mean_predicted_likelihood(base_single, test, 2.0)

        lift_wins += full_best[2.0] >= base_best
        finite_max_wins += max(sweep.values()) >= base_sweep

    assert lift_wins >= 7, f"text lift in only {lift_wins}/10 seeds"
    assert finite_max_wins >= 7, f"finite-tau max in only {finite_max_wins}/10 seeds"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(5, f"predictive lift from text ({lift_wins}/10, {finite_max_wins}/10)")


def test_criterion_6_recovery_up_to_permutation(canon_fits):
    # threshold 0.7 frozen after a pilot of this alignment oracle showed
    # per-seed means of 0.78-0.98 on these instances
    sims = []
    for Y, B, truth, state, rep in canon_fits:
        sim = best_permutation_similarity(state.W, truth.W)
        sims.append(sim)
        assert sim >= 0.7, f"mean per-concept similarity {sim:.3f} below 0.7"
    report(6, f"recovery up to permutation (min {min(sims):.3f})")


@pytest.mark.slow
def test_criterion_7_full_association(canon_fits):
    lam_grid = (0.05, 0.1, 0.2, 0.4)
    fully_covered = 0
    for seed, (Y, B, truth, _, _) in zip(SEEDS, canon_fits):
        grid = [cf.HyperParams(lam=l, gamma=0.3, eta=0.3, tau=2.0, num_concepts=3)
                for l in lam_grid]
        cfg = cf.FitConfig(rng_seed=0)
        best, _ = cf.cross_validate(Y, B, grid, cfg, 0.2)
        state, _ = cf.fit(Y, B, best, cfg)
        graph = cf.association_graph(state)
        covered = {i for i, k, w in graph.edges}
        fully_covered += covered == set(range(Y.num_questions))
        # sparsity manifests: mean edges per question below the concept count
        assert len(graph.edges) / Y.num_questions < 3
    assert fully_covered >= 8, f"full coverage in only {fully_covered}/10 seeds"
    report(7, f"full association ({fully_covered}/10)")


def test_criterion_8_determinism_and_round_trip(tmp_path):
    Y, B, truth = cf.simulate(12, 15, 8, 2, sparsity=1, tau=2.0,
                              missing_fraction=0.2, seed=3)
    params = cf.HyperParams(lam=0.2, gamma=0.2, eta=0.2, tau=2.0, num_concepts=2)
    paths = []
    for run in range(2):
        state, rep = cf.fit(Y, B, params, cf.FitConfig(rng_seed=7))
        archive = cf.ModelArchive(
            state, params, [f"w{v}" for v in range(8)],
            [f"q{i}" for i in range(12)], [f"s{j}" for j in range(15)], rep,
        )
        path = tmp_path / f"run{run}.json"
        cf.save_archive(archive, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    reloaded = cf.load_archive(paths[0])
    again = tmp_path / "again.json"
    cf.save_archive(reloaded, again)
    assert again.read_bytes() == paths[0].read_bytes()

    from conceptfit.io import (
        learner_labels,
        question_labels,
        write_corpus_jsonl,
        write_responses_csv,
    )

    rp, cp = tmp_path / "r.csv", tmp_path / "c.jsonl"
    write_responses_csv(Y, question_labels(12), learner_labels(15), rp)
    write_corpus_jsonl(B, question_labels(12), cp)
    loaded = cf.load_responses(rp)
    assert loaded.responses.num_observed == Y.num_observed
    corpus = cf.load_corpus(cp, loaded.question_ids)
    assert len(corpus) == 12
    report(8, "determinism and round-trip")


def test_criterion_9_trivial_case_ledger(tmp_path, capsys):
    rng = np.random.default_rng(0)

    # model-core
    assert cf.inverse_logit(0.0) == 0.5
    assert cf.inverse_logit(50.0) == approx(1.0, abs=1e-15)
    assert cf.bernoulli_nll(1, 0.0, 1.0) == approx(math.log(2.0))
    assert cf.bernoulli_nll(0, 0.0, 1.0) == approx(math.log(2.0))
    assert cf.poisson_nll(0, 2.5) == approx(2.5)
    Y1 = cf.GradedResponseSet(1, 1, [(0, 0, 1)])
    B1 = cf.WordCountMatrix(1, ["water"], [[0]])
    S0 = cf.FactorState(np.zeros((1, 2)), np.zeros(1), np.zeros((2, 1)),
                        np.zeros((2, 1)))
    H = cf.HyperParams(lam=0.5, gamma=1.0, eta=1.0, tau=1.0, num_concepts=2)
    assert cf.objective(Y1, B1, S0, H) == approx(math.log(2.0) + 1e-6)
    S = cf.FactorState(rng.uniform(0.1, 1, (2, 2)), rng.standard_normal(2),
                       rng.standard_normal((2, 3)), rng.uniform(0.1, 1, (2, 2)))
    Y2 = cf.GradedResponseSet(2, 3, [(0, 0, 1), (1, 2, 0)])
    B2 = cf.WordCountMatrix(2, ["a", "b"], [[1, 0], [0, 2]])
    H2 = cf.HyperParams(lam=1.0, gamma=1.0, eta=1.0, tau=1.0, num_concepts=2)
    assert cf.objective(Y2, B2, S, H2) - cf.objective(Y2, B2, S, H) == approx(
        0.5 * float(np.abs(S.W).sum()), rel=1e-12
    )
    Sz = cf.FactorState(np.zeros((1, 1)), np.zeros(1), rng.standard_normal((1, 4)),
                        np.zeros((1, 1)))
    assert all(cf.predict_response_prob(Sz, 0, j, t) == 0.5
               for j in range(4) for t in (0.5, 3.0))
    Sp = cf.FactorState([[1.0]], [0.5], [[1.0]], np.zeros((1, 1)))
    probs = [cf.predict_response_prob(Sp, 0, 0, t) for t in (0.5, 1, 2, 4)]
    assert all(a < b for a, b in zip(probs, probs[1:]))

    # prox-solvers
    tight = cf.FistaConfig(max_iterations=2000, relative_tolerance=1e-14)
    c = np.array([1.0, -2.0])
    res = cf.fista_minimize(lambda x: x - c,
                            lambda x: 0.5 * float(np.sum((x - c) ** 2)),
                            lambda p, s: p, np.zeros(2), tight)
    assert res.solution == approx(c, abs=1e-6)
    c = np.array([3.0, -0.5])
    res = cf.fista_minimize(
        lambda x: x - c, lambda x: 0.5 * float(np.sum((x - c) ** 2)),
        lambda p, s: np.sign(p) * np.maximum(np.abs(p) - s, 0.0),
        np.zeros(2), tight, nonsmooth_value=lambda x: float(np.abs(x).sum()),
    )
    assert res.solution == approx([2.0, 0.0], abs=1e-6)
    W = rng.uniform(0.1, 1, (4, 2))
    t = rng.uniform(0.1, 1, 2)
    assert cf.grad_t_column(np.zeros(4), W, t, 0.3) == approx(
        W.T @ np.ones(4) + 0.3 * t
    )
    assert cf.grad_t_column(W @ t, W, t, 0.3) == approx(0.3 * t)
    assert prox_nonneg(np.array([1.0, -2.0, 0.0])) == approx([1.0, 0.0, 0.0])
    x = rng.uniform(0, 2, 4)
    assert prox_nonneg(x) == approx(x)
    c_obs = np.vstack([rng.standard_normal((2, 5)), np.ones((1, 5))])
    w_aug = np.concatenate([rng.uniform(0.1, 1, 2), [0.2]])
    p = cf.inverse_logit(w_aug @ c_obs)
    b_row = w_aug[:-1] @ np.abs(rng.standard_normal((2, 3)))
    T = np.abs(rng.standard_normal((2, 3)))
    assert cf.grad_w_row(p, c_obs, w_aug[:-1] @ T, T, w_aug, 1.0) == approx(
        np.zeros(3), abs=1e-12
    )
    g = cf.grad_w_row(np.zeros(0), np.zeros((3, 0)), b_row, T, w_aug, 2.0)
    a = np.maximum(w_aug[:-1] @ T, 1e-6)
    assert g == approx(np.concatenate([T @ (1 - b_row / a), [0.0]]))
    assert prox_w(np.array([2.0, 0.3, -1.0, -0.7]), 0.5) == approx(
        [1.5, 0.0, 0.0, -0.7]
    )
    x = rng.standard_normal(4)
    assert prox_w(x, 0.0)[:-1] == approx(prox_nonneg(x[:-1]))
    cvec = rng.standard_normal(2)
    assert cf.grad_c_column(np.zeros(0), np.zeros((0, 2)), np.zeros(0), cvec,
                            0.7, 1.0) == approx(0.7 * cvec)
    W_obs = rng.uniform(0.1, 1, (5, 2))
    mu_obs = rng.standard_normal(5)
    y_eq = cf.inverse_logit(1.5 * mu_obs)
    assert cf.grad_c_column(y_eq, W_obs, mu_obs, np.zeros(2), 0.7, 1.5) == approx(
        np.zeros(2), abs=1e-12
    )

    # alternating-estimator
    a0 = cf.initialize(3, 4, 5, 2, 11)
    b0 = cf.initialize(3, 4, 5, 2, 11)
    assert np.array_equal(a0.W, b0.W) and np.array_equal(a0.C, b0.C)
    assert a0.W.min() >= 0 and a0.T.min() >= 0
    Ysm, Bsm, _ = cf.simulate(8, 10, 5, 2, sparsity=1, tau=2.0,
                              missing_fraction=0.2, seed=1)
    psm = cf.HyperParams(lam=0.2, gamma=0.2, eta=0.2, tau=2.0, num_concepts=2)
    st, rp = cf.fit_responses_only(Ysm, psm)
    assert st.T.shape == (2, 0)
    assert all(cur <= prev + 1e-9 * abs(prev)
               for prev, cur in zip(rp.objective_trace, rp.objective_trace[1:]))
    st0, rp0 = cf.fit(Ysm, Bsm, psm, cf.FitConfig(max_outer_iterations=0, rng_seed=5))
    init = cf.initialize(8, 10, 5, 2, 5)
    assert np.array_equal(st0.W, init.W) and not rp0.converged
    assert rp0.objective_trace == ()

    # text-pipeline
    assert cf.tokenize("Water boils. WATER freezes!") == [
        "water", "boils", "water", "freezes"]
    assert cf.tokenize("") == []
    stops = cf.StopWordList(frozenset({"the"}))
    assert cf.build_vocabulary(cf.Corpus((("q1", "the water"),)), stops, 1) == ["water"]
    with pytest.raises(cf.EmptyVocabularyError):
        cf.build_vocabulary(cf.Corpus((("q1", "water heat"),)),
                            cf.StopWordList(frozenset()), 2)
    assert cf.build_vocabulary(cf.Corpus((("q1", "zinc apple"),)),
                               cf.StopWordList(frozenset()), 1) == ["apple", "zinc"]
    counts = cf.count_matrix(cf.Corpus((("q1", "water water heat"), ("q2", ""))),
                             ["water", "heat"])
    assert counts.counts.tolist() == [[2, 1], [0, 0]]

    # evaluation
    assert cf.holdout_split(Ysm, 0.25, 9) == cf.holdout_split(Ysm, 0.25, 9)
    Sz2 = cf.FactorState(np.zeros((3, 1)), np.zeros(3), np.zeros((1, 4)),
                         np.zeros((1, 1)))
    assert cf.mean_predicted_likelihood(Sz2, [(0, 0, 1), (2, 3, 0)], 2.0) == 0.5
    assert cf.mean_predicted_likelihood(Sz2, [(0, 0, 1)], 1.0) == 0.5
    best, table = cf.cross_validate(Ysm, Bsm, [psm], cf.FitConfig(rng_seed=0), 0.2)
    assert best == psm and len(table) == 1
    best2, table2 = cf.cross_validate(Ysm, Bsm, [psm, psm],
                                      cf.FitConfig(rng_seed=0), 0.2)
    assert table2[0].score == table2[1].score and best2 is table2[0].params
    Sk = cf.FactorState(np.ones((2, 1)), np.zeros(2), np.ones((1, 2)),
                        [[0.1, 0.9, 0.5]])
    kw = cf.top_keywords(Sk, ["a", "b", "c"], 2)
    assert [w for w, _ in kw[0].keywords] == ["b", "c"]
    Sk0 = cf.FactorState(np.ones((2, 1)), np.zeros(2), np.ones((1, 2)),
                         np.zeros((1, 3)))
    assert cf.top_keywords(Sk0, ["a", "b", "c"], 2)[0].keywords == ()
    g = cf.association_graph(cf.FactorState(np.zeros((4, 2)), np.zeros(4),
                                            np.zeros((2, 3)), np.zeros((2, 1))))
    assert g.edges == () and len(g.question_nodes) + len(g.concept_nodes) == 6
    Wpos = rng.uniform(0.1, 1, (4, 2))
    g = cf.association_graph(
        cf.FactorState(Wpos, np.zeros(4), np.zeros((2, 3)), np.zeros((2, 1))),
        weight_floor=0.0,
    )
    assert len(g.edges) == 8

    # cli-io
    rp_path = tmp_path / "two_line.csv"
    rp_path.write_text("question_id,learner_id,grade\nq1,s1,1\n")
    loaded = cf.load_responses(rp_path)
    assert loaded.responses.num_questions == 1
    assert loaded.responses.num_learners == 1
    assert loaded.responses.entries == [(0, 0, 1)]
    dup = tmp_path / "dup.csv"
    dup.write_text("question_id,learner_id,grade\nq1,s1,1\nq1,s1,0\n")
    with pytest.raises(cf.DataFormatError) as err:
        cf.load_responses(dup)
    assert err.value.lines == (2, 3)
    cpath = tmp_path / "c.jsonl"
    cpath.write_text('{"question_id": "q1", "text": "water heat"}\n')
    corpus = cf.load_corpus(cpath, ["q1"])
    assert cf.tokenize(corpus.documents[0][1]) == ["water", "heat"]
    cpath.write_text('{"question_id": "q1", "terms": ["Slope", "Fractions"]}\n')
    corpus = cf.load_corpus(cpath, ["q1"])
    assert corpus.documents[0][1] == ("slope", "fractions")
    cpath.write_text('{"question_id": "q1", "text": "x"}\n')
    with pytest.raises(cf.DataFormatError):
        cf.load_corpus(cpath, ["q1", "q2"])
    Yfull, _, _ = cf.simulate(5, 6, 3, 2, sparsity=1, tau=1.0,
                              missing_fraction=0.0, seed=0)
    assert Yfull.num_observed == 30
    draws = np.random.default_rng(2).random(8000) < 0.5
    assert abs(draws.mean() - 0.5) < 3 * 0.5 / math.sqrt(8000)

    empty_state = cf.FactorState(np.zeros((2, 1)), np.zeros(2),
                                 np.zeros((1, 2)), np.zeros((1, 1)))
    empty_archive = cf.ModelArchive(empty_state, None, ["w0"], ["q1", "q2"],
                                    ["s1", "s2"], cf.FitReport((), False, 0, 0.0))
    dot = cf.export_graph(empty_archive, "dot")
    assert "--" not in dot and "shape=box" in dot
    import json as _json

    jtext = cf.export_graph(empty_archive, "json")
    doc = _json.loads(jtext)
    assert _json.loads(cf.export_graph(empty_archive, "json")) == doc

    from conceptfit.cli import main as cli_main
    from conceptfit.io import (
        learner_labels,
        question_labels,
        write_corpus_jsonl,
        write_responses_csv,
    )

    write_responses_csv(Ysm, question_labels(8), learner_labels(10),
                        tmp_path / "r.csv")
    write_corpus_jsonl(Bsm, question_labels(8), tmp_path / "cc.jsonl")
    outs = []
    for name in ("m1.json", "m2.json"):
        code = cli_main([
            "fit", "--responses", str(tmp_path / "r.csv"),
            "--corpus", str(tmp_path / "cc.jsonl"),
            "--lambda", "0.2", "--gamma", "0.2", "--eta", "0.2",
            "--tau", "2.0", "-k", "2", "--seed", "4",
            "--output", str(tmp_path / name),
        ])
        assert code == 0
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]

    T5 = np.abs(np.random.default_rng(3).standard_normal((5, 9)))
    S5 = cf.FactorState(np.ones((3, 5)), np.zeros(3), np.ones((5, 2)), T5)
    arch5 = cf.ModelArchive(S5, None, [f"w{v}" for v in range(9)],
                            ["qa", "qb", "qc"], ["s1", "s2"],
                            cf.FitReport((), False, 0, 0.0))
    a5 = tmp_path / "k5.json"
    cf.save_archive(arch5, a5)
    kw_out = tmp_path / "kw.csv"
    assert cli_main(["keywords", "--archive", str(a5), "--top", "3",
                     "--output", str(kw_out)]) == 0
    rows = kw_out.read_text().splitlines()[1:]
    concepts = {}
    for row in rows:
        concepts.setdefault(row.split(",")[0], []).append(row)
    assert len(concepts) == 5
    assert all(len(v) <= 3 for v in concepts.values())

    capsys.readouterr()
    report(9, "trivial-case ledger")
