import csv
import json
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from conceptfit import (
    DataFormatError,
    FactorState,
    FitReport,
    GradedResponseSet,
    HyperParams,
    ModelArchive,
    ValidationError,
    export_graph,
    inverse_logit,
    load_archive,
    load_corpus,
    load_responses,
    save_archive,
    simulate,
)
from conceptfit.io import (
    question_labels,
    learner_labels,
    read_entries_csv,
    read_grid_csv,
    write_corpus_jsonl,
    write_keywords_csv,
    write_predictions_csv,
    write_responses_csv,
    write_scores_csv,
)
from conceptfit.evaluation import ConceptSummary, CvScore
from conceptfit.text import build_vocabulary, count_matrix, load_stop_words


# one row per fault kind, and the error it gives on line 3 of a grades file
# whose line 2 is "q1,s1,1"
RESPONSE_FAULTS = {
    "empty-id": (" ,s2,1", "empty question or learner id", (3,)),
    "bad-grade": ("q3,s3,2", "grade must be 0 or 1, got '2'", (3,)),
    "duplicate-pair": ("q1,s1,0", "duplicate pair (q1, s1)", (2, 3)),
    "field-count": ("q4,s4", "expected 3 fields, got 2", (3,)),
}


class TestLoadResponses:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("question_id,learner_id,grade\nq1,s1,1\n")
        loaded = load_responses(path)
        assert loaded.responses.num_questions == 1
        assert loaded.responses.num_learners == 1
        assert loaded.responses.entries == [(0, 0, 1)]
        assert loaded.question_ids == ["q1"] and loaded.learner_ids == ["s1"]

    def test_first_appearance_order(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "question_id,learner_id,grade\nqB,s2,0\nqA,s1,1\nqB,s1,1\n"
        )
        loaded = load_responses(path)
        assert loaded.question_ids == ["qB", "qA"]
        assert loaded.learner_ids == ["s2", "s1"]

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"question_id,learner_id,grade\r\nq1,s1,0\r\n")
        loaded = load_responses(path)
        assert loaded.responses.entries == [(0, 0, 0)]

    def test_sparse_scale_load(self, tmp_path, rng):
        # 145 learners x 80 questions at ~13.5% observed
        pairs = [(i, j) for i in range(80) for j in range(145)]
        chosen = rng.choice(len(pairs), size=1566, replace=False)
        lines = ["question_id,learner_id,grade"]
        for k in chosen:
            i, j = pairs[k]
            lines.append(f"q{i},s{j},{int(rng.random() < 0.5)}")
        path = tmp_path / "r.csv"
        path.write_text("\n".join(lines) + "\n")
        loaded = load_responses(path)
        Y = loaded.responses
        density = Y.num_observed / (Y.num_questions * Y.num_learners)
        assert Y.num_observed == 1566
        assert density == approx(0.135, abs=0.002)

    def test_duplicate_pair_reports_both_lines(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "question_id,learner_id,grade\nq1,s1,1\nq2,s1,0\nq1,s1,0\n"
        )
        with pytest.raises(DataFormatError) as err:
            load_responses(path)
        assert err.value.lines == (2, 4)

    def test_bad_grade_line_number(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("question_id,learner_id,grade\nq1,s1,2\n")
        with pytest.raises(DataFormatError) as err:
            load_responses(path)
        assert err.value.lines == (2,)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("question,learner,grade\nq1,s1,1\n")
        with pytest.raises(DataFormatError) as err:
            load_responses(path)
        assert err.value.lines == (1,)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("question_id,learner_id,grade\nq1,s1\n")
        with pytest.raises(DataFormatError) as err:
            load_responses(path)
        assert err.value.lines == (2,)

    @pytest.mark.parametrize("first, second", [
        (a, b) for a in RESPONSE_FAULTS for b in RESPONSE_FAULTS if a != b])
    def test_the_first_faulty_row_in_file_order_is_named(self, tmp_path, first, second):
        row, message, lines = RESPONSE_FAULTS[first]
        path = tmp_path / "r.csv"
        path.write_text(f"question_id,learner_id,grade\nq1,s1,1\n{row}\n"
                        f"{RESPONSE_FAULTS[second][0]}\n")
        with pytest.raises(DataFormatError) as err:
            load_responses(path)
        assert str(err.value) == str(DataFormatError(message, path, lines))


class TestLoadCorpus:
    def test_text_document(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"question_id": "q1", "text": "water heat"}\n')
        corpus = load_corpus(path, ["q1"])
        assert corpus.documents == (("q1", "water heat"),)

    def test_terms_mode_lowercases(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"question_id": "q1", "terms": ["Slope", "Fractions"]}\n')
        corpus = load_corpus(path, ["q1"])
        assert corpus.documents == (("q1", ("slope", "fractions")),)

    def test_missing_question_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"question_id": "q1", "text": "x"}\n')
        with pytest.raises(DataFormatError, match="missing"):
            load_corpus(path, ["q1", "q2"])

    def test_unknown_question_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"question_id": "q1", "text": "x"}\n{"question_id": "q9", "text": "y"}\n'
        )
        with pytest.raises(DataFormatError, match="q9"):
            load_corpus(path, ["q1"])

    def test_both_text_and_terms_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"question_id": "q1", "text": "x", "terms": ["y"]}\n')
        with pytest.raises(DataFormatError, match="both"):
            load_corpus(path, ["q1"])

    def test_duplicate_reports_both_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"question_id": "q1", "text": "x"}\n{"question_id": "q1", "text": "y"}\n'
        )
        with pytest.raises(DataFormatError) as err:
            load_corpus(path, ["q1"])
        assert err.value.lines == (1, 2)

    def test_invalid_json_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"question_id": "q1", "text": "x"}\n{bad\n')
        with pytest.raises(DataFormatError) as err:
            load_corpus(path)
        assert err.value.lines == (2,)

    def test_reorders_to_response_indexing(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"question_id": "q2", "text": "later"}\n'
            '{"question_id": "q1", "text": "earlier"}\n'
        )
        corpus = load_corpus(path, ["q1", "q2"])
        assert corpus.question_ids == ["q1", "q2"]


def toy_archive(rng, with_params=True, V=4):
    Q, N, K = 3, 5, 2
    state = FactorState(
        rng.uniform(0, 1, (Q, K)), rng.standard_normal(Q),
        rng.standard_normal((K, N)), rng.uniform(0, 1, (K, V)),
    )
    params = HyperParams(lam=0.2, gamma=0.3, eta=0.4, tau=1.5, num_concepts=K) \
        if with_params else None
    report = FitReport((10.0, 8.5, 8.4999), True, 3, 1.23)
    return ModelArchive(
        state, params, [f"w{v}" for v in range(V)],
        [f"q{i}" for i in range(Q)], [f"s{j}" for j in range(N)], report,
    )


class TestArchive:
    def test_round_trip_is_lossless_and_byte_identical(self, tmp_path, rng):
        archive = toy_archive(rng)
        p1, p2 = tmp_path / "a1.json", tmp_path / "a2.json"
        save_archive(archive, p1)
        loaded = load_archive(p1)
        save_archive(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(loaded.state.W, archive.state.W)
        assert np.array_equal(loaded.state.C, archive.state.C)
        assert loaded.params == archive.params
        assert loaded.report.objective_trace == archive.report.objective_trace

    def test_wall_time_not_persisted(self, tmp_path, rng):
        archive = toy_archive(rng)
        path = tmp_path / "a.json"
        save_archive(archive, path)
        assert "wall_time" not in path.read_text()
        assert load_archive(path).report.wall_time == 0.0

    def test_null_hyperparameters_round_trip(self, tmp_path, rng):
        archive = toy_archive(rng, with_params=False)
        path = tmp_path / "a.json"
        save_archive(archive, path)
        assert load_archive(path).params is None

    def test_empty_vocabulary_round_trip(self, tmp_path, rng):
        archive = toy_archive(rng, V=0)
        path = tmp_path / "a.json"
        save_archive(archive, path)
        loaded = load_archive(path)
        assert loaded.state.T.shape == (2, 0)
        assert loaded.vocabulary == ()

    def test_feasibility_revalidated_on_load(self, tmp_path, rng):
        archive = toy_archive(rng)
        path = tmp_path / "a.json"
        save_archive(archive, path)
        doc = json.loads(path.read_text())
        doc["W"][0][0] = -0.5
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_archive(path)

    def test_dimension_block_checked(self, tmp_path, rng):
        archive = toy_archive(rng)
        path = tmp_path / "a.json"
        save_archive(archive, path)
        doc = json.loads(path.read_text())
        doc["dimensions"]["num_questions"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError):
            load_archive(path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda doc: doc["hyperparameters"].pop("gamma"), id="no-gamma"),
        pytest.param(lambda doc: doc["fit_report"].pop("converged"), id="no-converged"),
        pytest.param(lambda doc: doc["W"][1].pop(), id="ragged-W"),
        pytest.param(lambda doc: doc["hyperparameters"].update(tau="two"), id="tau-string"),
        # HyperParams' ValidationError escaped without the archive's path
        pytest.param(lambda doc: doc["hyperparameters"].update({"lambda": 0}),
                     id="lambda-zero"),
        pytest.param(lambda doc: doc["hyperparameters"].update({"lambda": True}),
                     id="lambda-true"),
        # ModelArchive's consistency checks escaped the same way
        pytest.param(lambda doc: doc["question_ids"].pop(), id="question-ids-short"),
        pytest.param(lambda doc: doc["hyperparameters"].update(num_concepts=3),
                     id="num-concepts-not-W"),
        # FactorState's DimensionMismatchError escaped the same way
        pytest.param(lambda doc: doc["mu"].pop(), id="mu-short"),
        pytest.param(lambda doc: doc["C"].pop(), id="C-one-concept-short"),
        pytest.param(lambda doc: doc["T"].append(doc["T"][0]), id="T-one-concept-long"),
        # a W that is no Q x K matrix escaped as FactorState's ValidationError
        pytest.param(lambda doc: doc.update(W=[1.0, 2.0, 3.0]), id="W-flat"),
        pytest.param(lambda doc: doc.update(W=[]), id="W-empty"),
    ])
    def test_malformed_archive_is_a_data_format_error(self, tmp_path, rng, edit):
        path = tmp_path / "a.json"
        save_archive(toy_archive(rng), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError) as err:
            load_archive(path)
        assert err.value.path == str(path)

    @pytest.mark.parametrize("block, field, value", [
        ("fit_report", "converged", "false"),
        ("fit_report", "converged", 1),
        ("fit_report", "outer_iterations", 1.9),
        ("fit_report", "outer_iterations", 3.0),
        ("fit_report", "outer_iterations", True),
        ("fit_report", "outer_iterations", "3"),
        pytest.param("fit_report", "objective_trace", ["10.0", "8.5", "8.4999"],
                     id="trace-strings"),
        pytest.param("fit_report", "objective_trace", [10.0, True, 8.4999],
                     id="trace-bool"),
        ("hyperparameters", "num_concepts", 2.7),
        ("hyperparameters", "num_concepts", True),
        ("hyperparameters", "num_concepts", "2"),
    ])
    def test_archive_types_are_checked_not_coerced(self, tmp_path, rng, block, field,
                                                   value):
        # bool("false") is True and int(1.9) is 1: a loader that converts
        # instead of checking would accept every one of these
        path = tmp_path / "a.json"
        save_archive(toy_archive(rng), path)
        doc = json.loads(path.read_text())
        doc[block][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=field) as err:
            load_archive(path)
        assert err.value.path == str(path)

    @pytest.mark.parametrize("field", ["vocabulary", "question_ids", "learner_ids"])
    @pytest.mark.parametrize("kind", ["string", "number", "non-string-item"])
    def test_id_lists_are_checked_not_coerced(self, tmp_path, rng, field, kind):
        # tuple() turned a string of the right length into one id per
        # character and a number into a bare TypeError
        path = tmp_path / "a.json"
        save_archive(toy_archive(rng), path)
        doc = json.loads(path.read_text())
        names = doc[field]
        doc[field] = {"string": "x" * len(names), "number": 5,
                      "non-string-item": names[:-1] + [1]}[kind]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=field) as err:
            load_archive(path)
        assert err.value.path == str(path)

    @pytest.mark.parametrize("field", ["vocabulary", "question_ids", "learner_ids"])
    @pytest.mark.parametrize("kind", ["repeated", "empty"])
    def test_id_lists_are_distinct_nonempty_names(self, tmp_path, rng, field, kind):
        # a repeated question id loaded, and predict scored it with the
        # factors of the last row that carried it
        path = tmp_path / "a.json"
        save_archive(toy_archive(rng), path)
        doc = json.loads(path.read_text())
        doc[field][-1] = doc[field][0] if kind == "repeated" else ""
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=field) as err:
            load_archive(path)
        assert err.value.path == str(path)

    def test_a_non_finite_trace_value_is_a_data_format_error(self, tmp_path, rng):
        path = tmp_path / "a.json"
        save_archive(toy_archive(rng), path)
        doc = json.loads(path.read_text())
        doc["fit_report"]["objective_trace"][1] = math.nan
        path.write_text(json.dumps(doc))  # json writes NaN, and reads it back
        with pytest.raises(DataFormatError, match="objective_trace") as err:
            load_archive(path)
        assert err.value.path == str(path)

    @pytest.mark.parametrize("factor", ["W", "mu", "C", "T"])
    def test_a_non_finite_factor_stays_a_validation_error(self, tmp_path, rng, factor):
        path = tmp_path / "a.json"
        save_archive(toy_archive(rng), path)
        doc = json.loads(path.read_text())
        row = doc[factor] if factor == "mu" else doc[factor][0]
        row[0] = math.inf
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"^{factor} must be finite"):
            load_archive(path)

    def test_unsupported_schema_rejected(self, tmp_path, rng):
        archive = toy_archive(rng)
        path = tmp_path / "a.json"
        save_archive(archive, path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError):
            load_archive(path)


class TestSimulate:
    def test_no_missing_gives_full_grid(self):
        Y, _, _ = simulate(6, 7, 3, 2, sparsity=1, tau=1.0, missing_fraction=0.0, seed=0)
        assert Y.num_observed == 42

    def test_missing_fraction_drops_rounded_count(self):
        Y, _, _ = simulate(10, 10, 3, 2, sparsity=1, tau=1.0,
                           missing_fraction=0.33, seed=0)
        assert Y.num_observed == 100 - 33

    def test_deterministic_per_seed(self):
        a = simulate(5, 6, 4, 2, sparsity=2, tau=2.0, missing_fraction=0.2, seed=9)
        b = simulate(5, 6, 4, 2, sparsity=2, tau=2.0, missing_fraction=0.2, seed=9)
        assert a[0].entries == b[0].entries
        assert np.array_equal(a[1].counts, b[1].counts)
        assert np.array_equal(a[2].W, b[2].W)

    def test_sparsity_pattern(self):
        _, _, truth = simulate(20, 5, 3, 4, sparsity=2, tau=1.0, seed=3)
        nonzeros = (truth.W > 0).sum(axis=1)
        assert np.all(nonzeros == 2)

    def test_sparsity_exceeding_concepts_rejected(self):
        with pytest.raises(ValidationError):
            simulate(5, 5, 3, 2, sparsity=3, tau=1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_tau_that_is_not_finite_and_positive_rejected(self, tau):
        # inf used to pass and drew every grade at probability 0 or 1
        with pytest.raises(ValidationError, match="tau must be finite and > 0"):
            simulate(10, 12, 8, 2, sparsity=1, tau=tau)

    def test_poisson_mean_matches_rates(self):
        # empirical mean of counts over many questions at fixed profiles is
        # within 3 standard errors of the rate
        reps = 400
        _, B, truth = simulate(reps, 2, 3, 1, sparsity=1, tau=1.0, seed=5)
        # instead: single fixed rate, many draws via one big simulate call
        rng = np.random.default_rng(0)
        rate = 2.7
        draws = rng.poisson(rate, size=5000)
        se = math.sqrt(rate / draws.size)
        assert abs(draws.mean() - rate) < 3 * se
        # and the generator's counts are consistent with its own rates
        rates = np.maximum(truth.W @ truth.T, 1e-6)
        resid = (B.counts - rates) / np.sqrt(np.maximum(rates, 1e-6))
        assert abs(resid.mean()) < 3 / math.sqrt(resid.size)

    def test_grade_rate_half_at_zero_slack(self):
        # zero weights and difficulties give probability one half
        rng = np.random.default_rng(1)
        draws = rng.random(8000) < inverse_logit(0.0)
        se = 0.5 / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) < 3 * se

    def test_output_passes_loaders(self, tmp_path):
        Y, B, truth = simulate(6, 7, 5, 2, sparsity=1, tau=2.0,
                               missing_fraction=0.3, seed=2)
        qids, lids = question_labels(6), learner_labels(7)
        rp, cp = tmp_path / "r.csv", tmp_path / "c.jsonl"
        write_responses_csv(Y, qids, lids, rp)
        write_corpus_jsonl(B, qids, cp)
        loaded = load_responses(rp)
        # loader indices follow first appearance, so compare at the id level
        original = {(qids[i], lids[j], y) for i, j, y in Y.entries}
        rebuilt = {
            (loaded.question_ids[i], loaded.learner_ids[j], y)
            for i, j, y in loaded.responses.entries
        }
        assert rebuilt == original
        corpus = load_corpus(cp, loaded.question_ids)
        vocab = build_vocabulary(corpus, load_stop_words(), 1)
        counts = count_matrix(corpus, vocab)
        # counts rebuild exactly, up to dropping never-seen words
        kept = [v for v, w in enumerate(B.vocabulary) if w in set(vocab)]
        col = {w: k for k, w in enumerate(vocab)}
        for v in kept:
            rebuilt = counts.counts[:, col[B.vocabulary[v]]]
            assert np.array_equal(rebuilt, B.counts[:, v])


class TestExportGraph:
    def test_dot_no_edges_only_nodes(self, rng):
        state = FactorState(np.zeros((2, 1)), np.zeros(2), np.zeros((1, 2)),
                            np.zeros((1, 1)))
        archive = ModelArchive(state, None, ["w0"], ["q1", "q2"], ["s1", "s2"],
                               FitReport((), False, 0, 0.0))
        text = export_graph(archive, "dot")
        assert "--" not in text
        assert "q0 [shape=box" in text and "c0 [shape=circle" in text

    def test_dot_concept_label_has_at_most_three_keywords(self, rng):
        archive = toy_archive(rng, V=8)
        text = export_graph(archive, "dot", weight_floor=0.0)
        for line in text.splitlines():
            if "shape=circle" in line:
                label = line.split('label="')[1].rsplit('"', 1)[0]
                assert len(label.split("\\n")) <= 3

    def test_dot_question_label_two_decimal_difficulty(self, rng):
        archive = toy_archive(rng)
        text = export_graph(archive, "dot")
        mu0 = archive.state.mu[0]
        assert f"mu={mu0:.2f}" in text

    def test_json_round_trips_node_edge_multiset(self, rng, tmp_path):
        archive = toy_archive(rng)
        path = tmp_path / "g.json"
        text = export_graph(archive, "json", weight_floor=0.0, path=path)
        doc = json.loads(path.read_text())
        assert json.loads(text) == doc
        assert len(doc["nodes"]) == 3 + 2
        assert len(doc["edges"]) == sum(
            1 for w in archive.state.W.ravel() if w > 0
        )
        edge_set = {(e["source"], e["target"], e["weight"]) for e in doc["edges"]}
        assert len(edge_set) == len(doc["edges"])

    def test_unknown_format_rejected(self, rng):
        with pytest.raises(ValidationError):
            export_graph(toy_archive(rng), "pdf")


class TestAuxCsv:
    def test_grid_csv_round_trip(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(
            "lambda,gamma,eta,tau,k\n0.1,0.2,0.3,2.0,3\n0.4,0.5,0.6,1.0,2\n"
        )
        grid = read_grid_csv(path)
        assert grid[0] == HyperParams(0.1, 0.2, 0.3, 2.0, 3)
        assert grid[1] == HyperParams(0.4, 0.5, 0.6, 1.0, 2)

    def test_grid_csv_bad_header(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("lambda,gamma\n0.1,0.2\n")
        with pytest.raises(DataFormatError):
            read_grid_csv(path)

    @pytest.mark.parametrize("header", ["lambda,gamma,eta,tau,k,lambda",
                                        "lambda,gamma,eta,tau,k,epsilon,epsilon",
                                        "lambda,gamma,eta,tau, k ,k"])
    def test_grid_csv_repeated_column_is_named_on_line_1(self, tmp_path, header):
        path = tmp_path / "grid.csv"
        values = ",".join(["0.3", "0.2", "0.2", "2.0", "2", "9", "9"][:header.count(",") + 1])
        path.write_text(f"{header}\n{values}\n")
        repeated = header.rsplit(",", 1)[1]
        with pytest.raises(DataFormatError, match=f"'{repeated}'") as err:
            read_grid_csv(path)
        assert err.value.lines == (1,)

    def test_grid_csv_bad_value_line(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("lambda,gamma,eta,tau,k\n0.1,0.2,0.3,2.0,0\n")
        with pytest.raises(DataFormatError) as err:
            read_grid_csv(path)
        assert err.value.lines == (2,)

    def test_scores_csv_blank_for_missing(self, tmp_path):
        p = HyperParams(0.1, 0.2, 0.3, 2.0, 2)
        path = tmp_path / "scores.csv"
        write_scores_csv([CvScore(p, 0.75, True), CvScore(p, None, False)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lambda,gamma,eta,tau,mean_likelihood,converged"
        assert lines[1].endswith("0.75,true")
        assert lines[2].endswith(",false")

    def test_writers_emit_exact_bytes(self, tmp_path):
        Y = GradedResponseSet(2, 2, [(0, 1, 1), (1, 0, 0)])
        write_responses_csv(Y, ["q1", "q2"], ["s1", "s2"], tmp_path / "r.csv")
        p = HyperParams(0.1, 0.2, 0.3, 2.0, 2)
        write_scores_csv([CvScore(p, 0.75, True), CvScore(p, None, False)],
                         tmp_path / "s.csv")
        write_keywords_csv([ConceptSummary(0, (("apple", 0.5), ("pear, ripe", 0.25)))],
                           tmp_path / "k.csv")
        write_predictions_csv([("q1", "s2", 0.125), ("q2", "s1", np.float64(1.0))],
                              tmp_path / "p.csv")
        assert (tmp_path / "r.csv").read_bytes() == (
            b"question_id,learner_id,grade\nq1,s2,1\nq2,s1,0\n")
        assert (tmp_path / "s.csv").read_bytes() == (
            b"lambda,gamma,eta,tau,mean_likelihood,converged\n"
            b"0.1,0.2,0.3,2.0,0.75,true\n0.1,0.2,0.3,2.0,,false\n")
        assert (tmp_path / "k.csv").read_bytes() == (
            b'concept,rank,word,weight\n0,1,apple,0.5\n0,2,"pear, ripe",0.25\n')
        assert (tmp_path / "p.csv").read_bytes() == (
            b"question_id,learner_id,probability\nq1,s2,0.125\nq2,s1,1.0\n")

    def test_entries_csv(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("question_id,learner_id\nq1,s2\n")
        assert read_entries_csv(path) == [("q1", "s2")]
        path.write_text("question_id\nq1\n")
        with pytest.raises(DataFormatError):
            read_entries_csv(path)


def per_row_predictions(rows, path):
    """The predictions file as a per-row ``csv.writer`` writes it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["question_id", "learner_id", "probability"])
        for question_id, learner_id, prob in rows:
            writer.writerow([question_id, learner_id, repr(float(prob))])


# ids that csv must quote, or must leave alone, and one in non-ASCII text
AWKWARD_IDS = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "  padded  ", " ",
               "naïve ünïcode 日本", "plain"]


class TestWritePredictionsCsv:
    def check(self, tmp_path, rows):
        write_predictions_csv(iter(rows), tmp_path / "fast.csv")  # read once, as zip is
        per_row_predictions(rows, tmp_path / "reference.csv")
        written = (tmp_path / "fast.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        return written

    def test_awkward_and_repeated_ids(self, tmp_path):
        rows = [(q, s, 0.25 * (k % 5)) for k, (q, s) in enumerate(
            (q, s) for q in AWKWARD_IDS for s in reversed(AWKWARD_IDS))]
        rows += rows[:7]  # every id again, some pairs too
        self.check(tmp_path, rows)
        self.check(tmp_path, rows * 17)  # more lines than one write takes

    def test_extreme_probabilities(self, tmp_path):
        rows = [("q1", "s1", 5e-324), ("q1", "s2", 1e-05), ("q2", "s1", 0.0),
                ("q2", "s2", 1.0), ("q3", "s1", np.float64(0.1) + np.float64(0.2))]
        written = self.check(tmp_path, rows)
        assert written.splitlines()[1:] == [
            b"q1,s1,5e-324", b"q1,s2,1e-05", b"q2,s1,0.0", b"q2,s2,1.0",
            b"q3,s1,0.30000000000000004"]

    def test_no_rows_give_the_header_only(self, tmp_path):
        assert self.check(tmp_path, []) == b"question_id,learner_id,probability\n"

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.text(min_size=1, max_size=6),
                              st.text(min_size=1, max_size=6),
                              st.floats(0.0, 1.0)), max_size=12))
    def test_any_rows_match_the_per_row_writer(self, tmp_path_factory, rows):
        self.check(tmp_path_factory.mktemp("predictions"), rows)


class CsvCase(NamedTuple):
    """One CSV reader, the rows to feed it, and its (message, lines) errors."""

    read: object
    header: str
    good: str  # a valid data row
    short: str  # a row one field short
    empty: str  # a row whose first field is empty
    empty_error: tuple
    header_only_error: tuple
    empty_file_error: tuple


CSV_READERS = {
    "responses": CsvCase(
        lambda path: load_responses(path).responses.entries,
        "question_id,learner_id,grade", "q1,s1,1", "q1,s1", " ,s1,1",
        ("empty question or learner id", (2,)),
        ("no data rows", ()),
        ("expected header 'question_id,learner_id,grade'", (1,)),
    ),
    "entries": CsvCase(
        read_entries_csv,
        "question_id,learner_id", "q1,s2", "q1", " ,s2",
        ("empty question or learner id", (2,)),
        ("no data rows", ()),
        ("expected header 'question_id,learner_id'", (1,)),
    ),
    "grid": CsvCase(
        read_grid_csv,
        "lambda,gamma,eta,tau,k", "0.1,0.2,0.3,2.0,3", "0.1,0.2,0.3,2.0", ",0.2,0.3,2.0,3",
        ("bad grid row: could not convert string to float: ''", (2,)),
        ("grid file has no rows", ()),
        ("empty grid file", (1,)),
    ),
}


@pytest.mark.parametrize("case", CSV_READERS.values(), ids=CSV_READERS.keys())
class TestCsvReaders:
    """One test per error kind, run on each of the three CSV readers."""

    @staticmethod
    def fails(case, path, error):
        message, lines = error
        with pytest.raises(DataFormatError) as err:
            case.read(path)
        assert str(err.value) == str(DataFormatError(message, path, lines))

    @staticmethod
    def field_count_error(case, line):
        want, got = case.header.count(",") + 1, case.short.count(",") + 1
        return f"expected {want} fields, got {got}", (line,)

    def test_wrong_field_count_names_the_line(self, tmp_path, case):
        path = tmp_path / "f.csv"
        path.write_text(f"{case.header}\n{case.good}\n{case.short}\n")
        self.fails(case, path, self.field_count_error(case, 3))

    def test_blank_lines_are_skipped_but_counted(self, tmp_path, case):
        path = tmp_path / "f.csv"
        path.write_text(f"{case.header}\n{case.good}\n")
        plain = case.read(path)
        path.write_text(f"{case.header}\n\n{case.good}\n\n")
        assert case.read(path) == plain
        path.write_text(f"{case.header}\n\n{case.good}\n\n\n{case.short}\n")
        self.fails(case, path, self.field_count_error(case, 6))

    def test_rows_after_a_record_spanning_lines_name_their_physical_line(self,
                                                                        tmp_path, case):
        # the good row's first field holds a quoted newline, so the short row
        # is the third record but starts on line 4
        first, rest = case.good.split(",", 1)
        path = tmp_path / "f.csv"
        path.write_text(f'{case.header}\n"{first}\n",{rest}\n{case.short}\n')
        self.fails(case, path, self.field_count_error(case, 4))

    def test_the_first_faulty_row_in_file_order_is_named(self, tmp_path, case):
        path = tmp_path / "f.csv"
        path.write_text(f"{case.header}\n{case.empty}\n{case.short}\n")
        self.fails(case, path, case.empty_error)
        path.write_text(f"{case.header}\n{case.short}\n{case.empty}\n")
        self.fails(case, path, self.field_count_error(case, 2))

    def test_a_byte_order_mark_before_the_header_is_dropped(self, tmp_path, case):
        path = tmp_path / "f.csv"
        path.write_text(f"{case.header}\n{case.good}\n")
        plain = case.read(path)
        path.write_bytes(f"\ufeff{case.header}\r\n{case.good}\r\n".encode("utf-8"))
        assert case.read(path) == plain

    def test_empty_first_field_is_rejected_on_its_line(self, tmp_path, case):
        path = tmp_path / "f.csv"
        path.write_text(f"{case.header}\n{case.empty}\n")
        self.fails(case, path, case.empty_error)

    def test_header_only_file_has_no_rows(self, tmp_path, case):
        path = tmp_path / "f.csv"
        path.write_text(f"{case.header}\n\n")
        self.fails(case, path, case.header_only_error)

    def test_empty_file_is_rejected_on_line_1(self, tmp_path, case):
        path = tmp_path / "f.csv"
        path.write_text("")
        self.fails(case, path, case.empty_file_error)
