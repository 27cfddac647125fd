"""Checks of each operation's output against the benchmark's own computations.

Each check returns a list of problems; an empty list means the output is
correct. A fit that is not a first-order stationary point is not a problem
here: it is a failed operation, which ``fit_is_stationary`` reports.
"""

import csv

import numpy as np

import reference as ref

OBJECTIVE_RTOL = 1e-9
TRACE_RTOL = 1e-9
PROB_ATOL = 1e-12


def expected_vocabulary(truth):
    totals = truth["counts"].sum(axis=0)
    words = [str(w) for w in truth["vocab"]]
    kept = [(int(totals[v]), words[v], v) for v in range(len(words)) if totals[v] > 0]
    kept.sort(key=lambda item: (-item[0], item[1]))
    return [word for _, word, _ in kept], [v for _, _, v in kept]


def setup(truth, loaded, vocabulary, word_counts, split, train, fraction):
    problems = []
    qids, lids = [str(q) for q in truth["qids"]], [str(s) for s in truth["lids"]]
    if list(loaded.question_ids) != qids:
        problems.append("question ids are not in file order")
    l_of = {lid: j for j, lid in enumerate(lids)}
    if sorted(loaded.learner_ids) != sorted(lids):
        problems.append("learner ids differ from the grades file")
        return problems
    learner_map = np.array([l_of[lid] for lid in loaded.learner_ids])
    r = loaded.responses
    observed, y = truth["observed"], truth["y"]
    gq, gl = r.question_idx, learner_map[r.learner_idx]
    if r.num_observed != int(observed.sum()) or not observed[gq, gl].all():
        problems.append("loaded entries differ from the observed grades")
    elif not np.array_equal(r.grades, y[gq, gl]):
        problems.append("loaded grades differ from the generated grades")

    words, columns = expected_vocabulary(truth)
    if list(vocabulary) != words:
        problems.append("vocabulary is not the nonzero words by descending count, then word")
    elif not np.array_equal(word_counts.counts, truth["counts"][:, columns]):
        problems.append("count_matrix differs from the generated counts")

    train_idx, test_idx = np.array(split.train_entries), np.array(split.test_entries)
    total = r.num_observed
    if len(test_idx) != int(round(fraction * total)):
        problems.append("holdout size is not round(fraction * observed)")
    both = np.concatenate([train_idx, test_idx])
    if both.size != total or not np.array_equal(np.sort(both), np.arange(total)):
        problems.append("holdout split is not a partition of the entries")
    if (np.bincount(r.question_idx[train_idx], minlength=r.num_questions).min() < 1
            or np.bincount(r.learner_idx[train_idx], minlength=r.num_learners).min() < 1):
        problems.append("holdout split leaves a question or learner without training data")
    if not (np.array_equal(train.question_idx, r.question_idx[train_idx])
            and np.array_equal(train.learner_idx, r.learner_idx[train_idx])
            and np.array_equal(train.grades, r.grades[train_idx])):
        problems.append("training subset differs from the split's entries")
    return problems


def fit(state, report, data, params, with_text):
    """Objective, trace and feasibility checks of one fit."""
    problems = []
    trace = np.asarray(report.objective_trace, dtype=float)
    if trace.size == 0:
        return ["fit recorded no sweep"]
    for name in ("W", "mu", "C", "T"):
        if not np.all(np.isfinite(getattr(state, name))):
            problems.append(f"{name} is not finite")
    if state.W.min() < 0 or (state.T.size and state.T.min() < 0):
        problems.append("W or T has a negative entry")
    if problems:
        return problems
    value = ref.objective(*data.grades, data.counts if with_text else None,
                          state.W, state.mu, state.C, state.T, params.lam,
                          params.gamma, params.eta, params.tau, params.epsilon)
    if abs(value - trace[-1]) > OBJECTIVE_RTOL * abs(value):
        problems.append(f"objective {value!r} differs from the last trace value {trace[-1]!r}")
    rises = np.diff(trace) > TRACE_RTOL * np.abs(trace[:-1])
    if rises.any():
        problems.append(f"objective trace rises at sweep {int(np.argmax(rises)) + 2}")
    return problems


def residual(state, data, params, with_text):
    return ref.stationarity_residual(
        *data.grades, data.counts if with_text else None, state.W, state.mu,
        state.C, state.T, params.lam, params.gamma, params.eta, params.tau,
        params.epsilon)


def score(value, state, test, tau):
    expected = ref.heldout_likelihood(*test, state.W, state.mu, state.C, tau)
    if abs(value - expected) > PROB_ATOL:
        return [f"held-out likelihood {value!r} differs from {expected!r}"]
    return []


def archive(first_bytes, second_bytes, saved, reloaded):
    problems = []
    if first_bytes != second_bytes:
        problems.append("save -> load -> save is not byte-identical")
    for name in ("W", "mu", "C", "T"):
        if not np.array_equal(getattr(saved.state, name), getattr(reloaded.state, name)):
            problems.append(f"reloaded {name} differs from the saved one")
    if (saved.params != reloaded.params or saved.vocabulary != reloaded.vocabulary
            or saved.question_ids != reloaded.question_ids
            or saved.learner_ids != reloaded.learner_ids
            or saved.report.objective_trace != reloaded.report.objective_trace):
        problems.append("reloaded archive metadata differs from the saved one")
    return problems


def predictions(exit_code, path, pairs, state, tau, q_index, l_index):
    """Every predicted probability against the benchmark's own logistic."""
    if exit_code != 0:
        return [f"conceptfit predict exited with {exit_code}"]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["question_id", "learner_id", "probability"] or len(rows) != len(pairs) + 1:
        return ["predictions file has the wrong header or row count"]
    if [tuple(row[:2]) for row in rows[1:]] != pairs:
        return ["predictions are not in request order"]
    qi = np.array([q_index[q] for q, _ in pairs])
    lj = np.array([l_index[s] for _, s in pairs])
    got = np.array([float(row[2]) for row in rows[1:]])
    expected = ref.logistic(tau * (np.einsum("mk,km->m", state.W[qi], state.C[:, lj])
                                   + state.mu[qi]))
    worst = float(np.max(np.abs(got - expected)))
    if worst > PROB_ATOL:
        return [f"a predicted probability is off by {worst:.3g}"]
    return []
