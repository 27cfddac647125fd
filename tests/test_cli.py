import json

import numpy as np
import pytest

from conceptfit import load_archive
from conceptfit.cli import build_parser, main


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def sim_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("sim")
    prefix = base / "demo"
    code = run(
        "simulate", "--questions", 20, "--learners", 30, "--vocab", 25,
        "-k", 2, "--sparsity", 1, "--tau", 2.0, "--missing", 0.3,
        "--seed", 5, "--out-prefix", prefix,
    )
    assert code == 0
    return {
        "responses": f"{prefix}_responses.csv",
        "corpus": f"{prefix}_corpus.jsonl",
        "truth": f"{prefix}_truth.json",
        "dir": base,
    }


HYPER = ["--lambda", "0.2", "--gamma", "0.2", "--eta", "0.2", "--tau", "2.0", "-k", "2"]


def test_simulate_outputs_valid_files(sim_files):
    truth = load_archive(sim_files["truth"])
    assert truth.params is None
    assert truth.state.num_questions == 20


def test_fit_then_evaluate_beats_coin_flip(sim_files, capsys):
    out = sim_files["dir"] / "model.json"
    code = run(
        "fit", "--responses", sim_files["responses"], "--corpus", sim_files["corpus"],
        *HYPER, "--seed", "1", "--holdout-fraction", "0.2", "--output", out,
    )
    assert code == 0
    capsys.readouterr()
    code = run(
        "evaluate", "--archive", out, "--responses", sim_files["responses"],
        "--holdout-fraction", "0.2", "--seed", "1",
    )
    assert code == 0
    score = float(capsys.readouterr().out.strip())
    assert score > 0.5


def test_fit_is_byte_deterministic(sim_files):
    a = sim_files["dir"] / "m_a.json"
    b = sim_files["dir"] / "m_b.json"
    for out in (a, b):
        code = run(
            "fit", "--responses", sim_files["responses"],
            "--corpus", sim_files["corpus"], *HYPER, "--seed", "3",
            "--output", out,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_baseline_has_no_word_profiles(sim_files):
    out = sim_files["dir"] / "baseline.json"
    code = run(
        "fit-baseline", "--responses", sim_files["responses"],
        "--lambda", "0.2", "--gamma", "0.2", "--tau", "2.0", "-k", "2",
        "--seed", "1", "--output", out,
    )
    assert code == 0
    archive = load_archive(out)
    assert archive.state.T.shape == (2, 0)
    assert archive.vocabulary == ()


def test_predict_writes_probabilities(sim_files, tmp_path):
    model = sim_files["dir"] / "model.json"
    entries = tmp_path / "e.csv"
    entries.write_text("question_id,learner_id\nq0001,s0002\nq0003,s0001\n")
    out = tmp_path / "p.csv"
    code = run("predict", "--archive", model, "--entries", entries, "--output", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "question_id,learner_id,probability"
    assert len(lines) == 3
    for line in lines[1:]:
        prob = float(line.split(",")[2])
        assert 0.0 <= prob <= 1.0


def test_keywords_table_shape(sim_files, tmp_path):
    model = sim_files["dir"] / "model.json"
    out = tmp_path / "kw.csv"
    code = run("keywords", "--archive", model, "--top", "3", "--output", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "concept,rank,word,weight"
    per_concept = {}
    for line in lines[1:]:
        concept, rank, word, weight = line.split(",")
        per_concept.setdefault(concept, []).append(word)
        assert float(weight) > 0
    assert all(len(words) <= 3 for words in per_concept.values())


def test_export_graph_both_formats(sim_files, tmp_path):
    model = sim_files["dir"] / "model.json"
    dot = tmp_path / "g.dot"
    js = tmp_path / "g.json"
    assert run("export-graph", "--archive", model, "--format", "dot",
               "--output", dot) == 0
    assert run("export-graph", "--archive", model, "--format", "json",
               "--output", js) == 0
    assert dot.read_text().startswith("graph associations {")
    doc = json.loads(js.read_text())
    assert {n["type"] for n in doc["nodes"]} == {"question", "concept"}


def test_cv_writes_table_and_best_archive(sim_files, tmp_path):
    grid = tmp_path / "grid.csv"
    grid.write_text(
        "lambda,gamma,eta,tau,k\n0.1,0.2,0.2,2.0,2\n0.3,0.2,0.2,2.0,2\n"
    )
    table = tmp_path / "scores.csv"
    best = tmp_path / "best.json"
    code = run(
        "cv", "--responses", sim_files["responses"], "--corpus", sim_files["corpus"],
        "--grid", grid, "--fraction", "0.25", "--seed", "2",
        "--table", table, "--output", best,
    )
    assert code == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "lambda,gamma,eta,tau,mean_likelihood,converged"
    assert len(lines) == 3
    archive = load_archive(best)
    assert archive.params.lam in (0.1, 0.3)


def test_missing_file_exits_nonzero(tmp_path, capsys):
    code = run("evaluate", "--archive", tmp_path / "nope.json",
               "--responses", tmp_path / "nope.csv")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_malformed_archive_exits_with_one_error_line(sim_files, tmp_path, capsys):
    archive = tmp_path / "m.json"
    assert run("fit", "--responses", sim_files["responses"], "--corpus",
               sim_files["corpus"], *HYPER, "--max-outer", 2, "--output", archive) == 0
    doc = json.loads(archive.read_text())
    doc["hyperparameters"]["tau"] = "two"
    archive.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run("keywords", "--archive", archive, "--output", tmp_path / "k.csv")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_malformed_responses_exit_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("question_id,learner_id,grade\nq1,s1,7\n")
    out = tmp_path / "m.json"
    code = run("fit-baseline", "--responses", bad, "--lambda", "0.1",
               "--gamma", "0.1", "--tau", "1.0", "-k", "1", "--output", out)
    assert code == 1
    assert "grade" in capsys.readouterr().err


def test_evaluate_tau_override_required_for_truth_archive(sim_files, capsys):
    code = run("evaluate", "--archive", sim_files["truth"],
               "--responses", sim_files["responses"])
    assert code == 1
    assert "tau" in capsys.readouterr().err
    code = run("evaluate", "--archive", sim_files["truth"],
               "--responses", sim_files["responses"], "--tau", "2.0")
    assert code == 0
    score = float(capsys.readouterr().out.strip())
    assert score > 0.5


def test_weight_floor_help_names_mean_positive_weight():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    graph = sub.choices["export-graph"]
    floor = next(a for a in graph._actions if a.dest == "weight_floor")
    assert "mean positive" in floor.help
