import json
import math
from pathlib import Path

import numpy as np
import pytest

import conceptfit.cli
import conceptfit.model
from conceptfit import load_archive, predict_response_prob
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


def test_a_baseline_archive_exports_its_concepts_without_keywords(sim_files, tmp_path):
    # over an empty vocabulary DOT labels each concept by its number, and
    # JSON lists no keywords for it
    archive = tmp_path / "baseline.json"
    assert run("fit-baseline", "--responses", sim_files["responses"], "--lambda", "0.2",
               "--gamma", "0.2", "--tau", "2.0", "-k", "2", "--max-outer", 2,
               "--output", archive) == 0
    dot, js = tmp_path / "g.dot", tmp_path / "g.json"
    assert run("export-graph", "--archive", archive, "--format", "dot",
               "--output", dot) == 0
    assert run("export-graph", "--archive", archive, "--format", "json",
               "--output", js) == 0
    circles = [line for line in dot.read_text().splitlines() if "shape=circle" in line]
    assert circles == [f'  c{k} [shape=circle, label="concept {k + 1}"];' for k in range(2)]
    nodes = json.loads(js.read_text())["nodes"]
    assert [n["keywords"] for n in nodes if n["type"] == "concept"] == [[], []]


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


def test_archive_with_a_string_for_a_bool_exits_with_one_error_line(sim_files, tmp_path,
                                                                    capsys):
    archive = tmp_path / "m.json"
    assert run("fit", "--responses", sim_files["responses"], "--corpus",
               sim_files["corpus"], *HYPER, "--max-outer", 2, "--output", archive) == 0
    doc = json.loads(archive.read_text())
    doc["fit_report"]["converged"] = "false"
    archive.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run("keywords", "--archive", archive, "--output", tmp_path / "k.csv")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "converged" in err
    assert len(err.strip().splitlines()) == 1


def predict_on_edited_truth(sim_files, tmp_path, capsys, edit):
    """Exit code and stderr of ``predict`` on the simulated truth archive after ``edit``."""
    archive = tmp_path / "m.json"
    doc = json.loads(Path(sim_files["truth"]).read_text())
    edit(doc)
    archive.write_text(json.dumps(doc))
    entries = tmp_path / "e.csv"
    entries.write_text("question_id,learner_id\nq0001,s0001\nq0002,s0002\n")
    out = tmp_path / "p.csv"
    capsys.readouterr()
    code = run("predict", "--archive", archive, "--entries", entries, "--tau", "2.0",
               "--output", out)
    assert not out.exists()
    return code, capsys.readouterr().err


@pytest.mark.parametrize("field", ["vocabulary", "question_ids", "learner_ids"])
@pytest.mark.parametrize("kind", ["repeated", "empty"])
def test_predict_on_an_archive_with_a_bad_id_list_exits_with_one_error_line(
        sim_files, tmp_path, capsys, field, kind):
    # with question ids q0001, q0001 predict scored q0001 by the second row
    def edit(doc):
        doc[field][1] = doc[field][0] if kind == "repeated" else ""

    code, err = predict_on_edited_truth(sim_files, tmp_path, capsys, edit)
    assert code == 1
    assert err.startswith("error: ") and field in err and "m.json" in err
    assert len(err.strip().splitlines()) == 1


def test_predict_on_an_archive_with_non_finite_factors_exits_with_one_error_line(
        sim_files, tmp_path, capsys):
    # json reads NaN and Infinity, and predict wrote nan probabilities
    def edit(doc):
        doc["W"][0][0] = math.nan
        doc["C"][1][0] = math.inf

    code, err = predict_on_edited_truth(sim_files, tmp_path, capsys, edit)
    assert code == 1
    assert err.startswith("error: ") and "must be finite" in err
    assert len(err.strip().splitlines()) == 1


def test_malformed_responses_exit_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("question_id,learner_id,grade\nq1,s1,7\n")
    out = tmp_path / "m.json"
    code = run("fit-baseline", "--responses", bad, "--lambda", "0.1",
               "--gamma", "0.1", "--tau", "1.0", "-k", "1", "--output", out)
    assert code == 1
    assert "grade" in capsys.readouterr().err


def test_a_holdout_that_rounds_to_no_test_entry_exits_with_one_error_line(tmp_path,
                                                                          capsys):
    # 20 observed grades at 0.02 used to train on all of them
    responses = tmp_path / "r.csv"
    responses.write_text("question_id,learner_id,grade\n" + "".join(
        f"q{i},s{j},{(i + j) % 2}\n" for i in range(4) for j in range(5)))
    out = tmp_path / "m.json"
    code = run("fit-baseline", "--responses", responses, "--lambda", "0.1",
               "--gamma", "0.1", "--tau", "1.0", "-k", "1",
               "--holdout-fraction", "0.02", "--output", out)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: holdout fraction 0.02 of 20 observed grades")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_every_fit_option_has_help():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    for command in ("fit", "fit-baseline", "cv"):
        helps = {a.option_strings[-1]: a.help for a in subparsers[command]._actions}
        for flag in ("--max-outer", "--outer-tol", "--inner-max-iter", "--inner-tol"):
            assert helps[flag], (command, flag)
    assert "full-accuracy" in helps["--outer-tol"]
    assert "0.1x the last sweep's relative decrease" in helps["--inner-tol"]


def test_every_option_of_every_subcommand_has_help():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    for command, sub in subparsers.items():
        for action in sub._actions:
            assert action.help, (command, action.option_strings)
    evaluate = {a.dest: a.help for a in subparsers["evaluate"]._actions}
    assert "must equal that fit's --seed" in evaluate["seed"]


def test_predict_gives_the_bits_of_per_pair_predictions(sim_files, tmp_path):
    model = tmp_path / "m.json"
    assert run("fit", "--responses", sim_files["responses"], "--corpus",
               sim_files["corpus"], *HYPER, "--max-outer", 5, "--output", model) == 0
    archive = load_archive(model)
    rng = np.random.default_rng(11)
    qi = rng.integers(0, len(archive.question_ids), 2000)
    lj = rng.integers(0, len(archive.learner_ids), 2000)
    entries = tmp_path / "e.csv"
    entries.write_text("question_id,learner_id\n" + "".join(
        f"{archive.question_ids[i]},{archive.learner_ids[j]}\n" for i, j in zip(qi, lj)))
    out = tmp_path / "p.csv"
    assert run("predict", "--archive", model, "--entries", entries, "--output", out) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(q, s) for q, s, _ in rows] == [
        (archive.question_ids[i], archive.learner_ids[j]) for i, j in zip(qi, lj)]
    expected = [predict_response_prob(archive.state, int(i), int(j), archive.params.tau)
                for i, j in zip(qi, lj)]
    assert [float(p) for _, _, p in rows] == expected


def test_an_unknown_id_names_the_first_pair_and_writes_nothing(sim_files, tmp_path,
                                                                capsys):
    model = tmp_path / "m.json"
    assert run("fit", "--responses", sim_files["responses"], "--corpus",
               sim_files["corpus"], *HYPER, "--max-outer", 2, "--output", model) == 0
    entries = tmp_path / "e.csv"
    entries.write_text("question_id,learner_id\nq0001,s0002\nq0002,nobody\n"
                       "nothing,s0001\nnothing,nobody\n")
    out = tmp_path / "p.csv"
    capsys.readouterr()
    assert run("predict", "--archive", model, "--entries", entries, "--output", out) == 1
    assert capsys.readouterr().err == "error: unknown learner_id 'nobody'\n"
    entries.write_text("question_id,learner_id\nq0001,s0002\nnothing,nobody\n")
    assert run("predict", "--archive", model, "--entries", entries, "--output", out) == 1
    assert capsys.readouterr().err == "error: unknown question_id 'nothing'\n"
    assert not out.exists()


def test_an_infinite_tolerance_exits_with_one_error_line(sim_files, tmp_path, capsys):
    # --outer-tol inf used to fit one sweep and report it converged
    out = tmp_path / "m.json"
    for flag in ("--outer-tol", "--inner-tol"):
        capsys.readouterr()
        code = run("fit-baseline", "--responses", sim_files["responses"],
                   "--lambda", "0.2", "--gamma", "0.2", "--tau", "2.0", "-k", "2",
                   flag, "inf", "--output", out)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "tolerance must be finite and > 0" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
    assert not out.exists()


def test_a_nan_weight_floor_exits_with_one_error_line(sim_files, tmp_path, capsys):
    # a nan floor used to write a graph with no edges
    archive = tmp_path / "m.json"
    assert run("fit", "--responses", sim_files["responses"], "--corpus",
               sim_files["corpus"], *HYPER, "--max-outer", 2, "--output", archive) == 0
    graph = tmp_path / "g.dot"
    capsys.readouterr()
    code = run("export-graph", "--archive", archive, "--weight-floor", "nan",
               "--output", graph)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: weight_floor must be finite and >= 0")
    assert len(err.strip().splitlines()) == 1
    assert not graph.exists()


def test_cv_with_zero_threads_exits_with_one_error_line(sim_files, tmp_path, capsys):
    # --threads 0 used to run serially
    grid = tmp_path / "grid.csv"
    grid.write_text("lambda,gamma,eta,tau,k\n0.1,0.2,0.2,2.0,2\n")
    table = tmp_path / "scores.csv"
    code = run("cv", "--responses", sim_files["responses"], "--corpus",
               sim_files["corpus"], "--grid", grid, "--threads", 0,
               "--table", table, "--output", tmp_path / "best.json")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n_threads must be an integer >= 1")
    assert len(err.strip().splitlines()) == 1
    assert not table.exists()


def test_a_negative_seed_exits_with_one_error_line(sim_files, tmp_path, capsys):
    # fit-baseline and simulate used to print a numpy ValueError traceback
    grid = tmp_path / "grid.csv"
    grid.write_text("lambda,gamma,eta,tau,k\n0.1,0.2,0.2,2.0,2\n")
    out = tmp_path / "out.json"
    commands = [
        ("fit", "--responses", sim_files["responses"], "--corpus", sim_files["corpus"],
         *HYPER, "--output", out),
        ("fit-baseline", "--responses", sim_files["responses"], "--lambda", "0.2",
         "--gamma", "0.2", "--tau", "2.0", "-k", "2", "--output", out),
        ("cv", "--responses", sim_files["responses"], "--corpus", sim_files["corpus"],
         "--grid", grid, "--table", tmp_path / "scores.csv", "--output", out),
        ("simulate", "--questions", 10, "--learners", 12, "--vocab", 8, "-k", 2,
         "--sparsity", 1, "--tau", 2.0, "--out-prefix", tmp_path / "demo"),
        ("evaluate", "--archive", sim_files["truth"], "--responses",
         sim_files["responses"], "--tau", "2.0", "--holdout-fraction", "0.2"),
    ]
    for command in commands:
        capsys.readouterr()
        assert run(*command, "--seed", "-1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: "), command[0]
        assert "seed must be an integer >= 0" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv"]


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


def test_tau_override_that_is_not_finite_and_positive_exits_with_one_error_line(
        sim_files, tmp_path, capsys):
    # -2 used to write flipped probabilities and 0 to score 0.5, with exit 0
    model = tmp_path / "m.json"
    assert run("fit", "--responses", sim_files["responses"], "--corpus",
               sim_files["corpus"], *HYPER, "--max-outer", 2, "--output", model) == 0
    entries = tmp_path / "e.csv"
    entries.write_text("question_id,learner_id\nq0001,s0002\n")
    out = tmp_path / "p.csv"
    commands = [
        ("predict", "--archive", model, "--entries", entries, "--output", out),
        ("evaluate", "--archive", model, "--responses", sim_files["responses"]),
        ("evaluate", "--archive", model, "--responses", sim_files["responses"], "--log"),
    ]
    for tau in ("-2", "0", "nan", "inf"):
        for command in commands:
            capsys.readouterr()
            assert run(*command, "--tau", tau) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert "tau" in captured.err
            assert len(captured.err.strip().splitlines()) == 1
    assert not out.exists()


def test_fit_with_a_non_finite_hyperparameter_names_it(sim_files, tmp_path, capsys):
    # --tau inf used to fail only at the first objective, "objective non-finite
    # at initialization", without naming the option
    out = tmp_path / "m.json"
    for flag in ("--lambda", "--gamma", "--eta", "--tau", "--epsilon"):
        capsys.readouterr()
        args = [*HYPER, flag, "inf"]
        assert run("fit", "--responses", sim_files["responses"], "--corpus",
                   sim_files["corpus"], *args, "--output", out) == 1
        err = capsys.readouterr().err
        name = {"--lambda": "lam"}.get(flag, flag[2:])
        assert err.startswith(f"error: {name} must be finite and > 0"), err
        assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_simulate_with_a_tau_that_is_not_finite_names_it(tmp_path, capsys):
    # --tau inf used to write a data set of grades drawn at probabilities 0 and 1
    prefix = tmp_path / "demo"
    for tau in ("inf", "nan"):
        capsys.readouterr()
        assert run("simulate", "--questions", 10, "--learners", 12, "--vocab", 8,
                   "-k", 2, "--sparsity", 1, "--tau", tau, "--out-prefix", prefix) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: tau must be finite and > 0, got {tau}")
        assert len(captured.err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_weight_floor_help_names_mean_positive_weight():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    graph = sub.choices["export-graph"]
    floor = next(a for a in graph._actions if a.dest == "weight_floor")
    assert "mean positive" in floor.help


def test_the_kept_parser_carries_nothing_from_one_call_to_the_next(
        sim_files, tmp_path, monkeypatch, capsys):
    baseline, model = tmp_path / "b.json", tmp_path / "m.json"
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("question_id,learner_id\nq0001,s0002\nq0003,s0001\n")
    bad.write_text("question_id,learner_id\nq0001,nobody\n")
    predictions = tmp_path / "p.csv"
    fit_options = ["--responses", sim_files["responses"], "--lambda", "0.2",
                   "--gamma", "0.2", "--tau", "2.0", "-k", "2", "--max-outer", "2"]
    calls = [
        # fit-baseline sets corpus=None and eta=1.0 by default; fit must not see them
        ["fit-baseline", *fit_options, "--output", baseline],
        ["fit", *fit_options, "--corpus", sim_files["corpus"], "--eta", "0.2",
         "--output", model],
        # a failing call, then a good one
        ["predict", "--archive", model, "--entries", bad, "--output", predictions],
        ["predict", "--archive", model, "--entries", good, "--output", predictions,
         "--tau", "3.0"],
        # an exit from inside the parser, then a good call that must not see tau 3.0
        ["--help"],
        ["predict", "--archive", model, "--entries", good, "--output", predictions],
    ]
    calls = [[str(a) for a in argv] for argv in calls]

    def outcomes():
        """Per call: exit code, stdout, stderr and the bytes of every file written."""
        seen = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            written = {f.name: f.read_bytes() for f in (baseline, model, predictions)
                       if f.exists()}
            seen.append((code, *capsys.readouterr(), written))
        for f in (baseline, model, predictions):
            f.unlink(missing_ok=True)
        return seen

    kept = conceptfit.cli._parser()
    assert conceptfit.cli._parser() is kept
    with_kept = outcomes()
    assert [outcome[0] for outcome in with_kept] == [0, 0, 1, 0, ("exit", 0), 0]
    assert with_kept[2][2] == "error: unknown learner_id 'nobody'\n"
    assert with_kept[3][3] != with_kept[5][3]  # tau 3.0 and the archived 2.0 differ
    for argv in calls[:2] + calls[3:4] + calls[5:]:
        assert kept.parse_args(argv) == build_parser().parse_args(argv)
    monkeypatch.setattr(conceptfit.cli, "_parser", build_parser)  # a new one per call
    assert with_kept == outcomes()


def test_predict_calls_each_traced_name_once(sim_files, tmp_path, monkeypatch):
    model = tmp_path / "m.json"
    assert run("fit", "--responses", sim_files["responses"], "--corpus",
               sim_files["corpus"], *HYPER, "--max-outer", 2, "--output", model) == 0
    entries = tmp_path / "e.csv"
    entries.write_text("question_id,learner_id\nq0001,s0002\nq0003,s0001\n")
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("load_archive", "read_entries_csv", "write_predictions_csv"):
        counted(conceptfit.cli, name)
    counted(conceptfit.model, "predict_response_prob")
    assert run("predict", "--archive", model, "--entries", entries,
               "--output", tmp_path / "p.csv") == 0
    assert calls == {"load_archive": 1, "read_entries_csv": 1,
                     "write_predictions_csv": 1, "predict_response_prob": 1}
