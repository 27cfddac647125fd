"""Command-line interface.

Subcommands: fit, fit-baseline, predict, evaluate, cv, keywords,
export-graph, simulate. All randomness flows from --seed. Exit code 0 on
success; on failure a single ``error: ...`` line goes to stderr and the
exit code is nonzero.
"""

import argparse
import sys

import numpy as np

from .errors import ConceptfitError
from .estimator import FitConfig, fit
from .evaluation import (
    cross_validate,
    holdout_split,
    mean_predicted_likelihood,
    top_keywords,
)
from .io import (
    ModelArchive,
    export_graph,
    learner_labels,
    load_archive,
    load_corpus,
    load_responses,
    question_labels,
    read_entries_csv,
    read_grid_csv,
    save_archive,
    simulate,
    write_corpus_jsonl,
    write_keywords_csv,
    write_predictions_csv,
    write_responses_csv,
    write_scores_csv,
)
from .model import FitReport, HyperParams, WordCountMatrix
from .solvers import FistaConfig
from .text import build_vocabulary, count_matrix, load_stop_words


def _add_config_options(parser):
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every random choice (default 0)")
    parser.add_argument("--max-outer", type=int, default=100)
    parser.add_argument("--outer-tol", type=float, default=1e-5)
    parser.add_argument("--inner-max-iter", type=int, default=200)
    parser.add_argument("--inner-tol", type=float, default=1e-7)


def _add_hyper_options(parser, with_eta=True):
    parser.add_argument("--lambda", dest="lam", type=float, required=True,
                        help="l1 weight on the question-concept associations")
    parser.add_argument("--gamma", type=float, required=True,
                        help="ridge weight on learner knowledge")
    if with_eta:
        parser.add_argument("--eta", type=float, required=True,
                            help="ridge weight on word profiles")
    parser.add_argument("--tau", type=float, required=True,
                        help="response precision")
    parser.add_argument("--epsilon", type=float, default=1e-6,
                        help="Poisson rate floor (default 1e-6)")
    parser.add_argument("-k", "--num-concepts", type=int, required=True)


def _add_text_options(parser):
    parser.add_argument("--stop-words", default=None,
                        help="stop-word file; packaged default list if omitted")
    parser.add_argument("--min-count", type=int, default=1,
                        help="drop words with total count below this (default 1)")


def _config_from(args):
    return FitConfig(
        max_outer_iterations=args.max_outer,
        outer_relative_tolerance=args.outer_tol,
        inner=FistaConfig(
            max_iterations=args.inner_max_iter,
            relative_tolerance=args.inner_tol,
        ),
        rng_seed=args.seed,
    )


def _train_side(responses, args):
    if args.holdout_fraction is None:
        return responses
    split = holdout_split(responses, args.holdout_fraction, args.seed)
    return responses.subset(split.train_entries)


def _print_fit_summary(path, report):
    final = repr(report.objective_trace[-1]) if report.objective_trace else "n/a"
    print(
        f"wrote {path}: converged={str(report.converged).lower()} "
        f"sweeps={report.outer_iterations} objective={final}"
    )


def _word_counts(args, loaded):
    """(vocabulary, counts) of the question text; zero words without a corpus."""
    if args.corpus is None:
        num_questions = loaded.responses.num_questions
        return (), WordCountMatrix(num_questions, (), np.zeros((num_questions, 0)))
    corpus = load_corpus(args.corpus, loaded.question_ids)
    stops = load_stop_words(args.stop_words)
    vocabulary = build_vocabulary(corpus, stops, args.min_count)
    return vocabulary, count_matrix(corpus, vocabulary)


def cmd_fit(args):
    loaded = load_responses(args.responses)
    vocabulary, word_counts = _word_counts(args, loaded)
    params = HyperParams(args.lam, args.gamma, args.eta, args.tau,
                         args.num_concepts, args.epsilon)
    state, report = fit(
        _train_side(loaded.responses, args), word_counts, params, _config_from(args)
    )
    archive = ModelArchive(state, params, tuple(vocabulary),
                           tuple(loaded.question_ids), tuple(loaded.learner_ids),
                           report)
    save_archive(archive, args.output)
    _print_fit_summary(args.output, report)
    return 0


def _resolve_tau(args, archive):
    if args.tau is not None:
        return args.tau
    if archive.params is not None:
        return archive.params.tau
    raise ConceptfitError(
        "archive carries no hyperparameters; pass --tau explicitly"
    )


def cmd_predict(args):
    archive = load_archive(args.archive)
    tau = _resolve_tau(args, archive)
    q_index = {qid: i for i, qid in enumerate(archive.question_ids)}
    l_index = {lid: j for j, lid in enumerate(archive.learner_ids)}
    rows = []
    from .model import predict_response_prob

    for qid, lid in read_entries_csv(args.entries):
        if qid not in q_index:
            raise ConceptfitError(f"unknown question_id {qid!r}")
        if lid not in l_index:
            raise ConceptfitError(f"unknown learner_id {lid!r}")
        prob = predict_response_prob(archive.state, q_index[qid], l_index[lid], tau)
        rows.append((qid, lid, prob))
    write_predictions_csv(rows, args.output)
    print(f"wrote {args.output}: {len(rows)} prediction(s)")
    return 0


def cmd_evaluate(args):
    archive = load_archive(args.archive)
    tau = _resolve_tau(args, archive)
    loaded = load_responses(args.responses)
    q_index = {qid: i for i, qid in enumerate(archive.question_ids)}
    l_index = {lid: j for j, lid in enumerate(archive.learner_ids)}

    def remap(triples):
        out = []
        for i, j, y in triples:
            qid = loaded.question_ids[i]
            lid = loaded.learner_ids[j]
            if qid not in q_index:
                raise ConceptfitError(f"unknown question_id {qid!r}")
            if lid not in l_index:
                raise ConceptfitError(f"unknown learner_id {lid!r}")
            out.append((q_index[qid], l_index[lid], y))
        return out

    if args.holdout_fraction is not None:
        split = holdout_split(loaded.responses, args.holdout_fraction, args.seed)
        triples = loaded.responses.triples(split.test_entries)
    else:
        triples = loaded.responses.triples()
    score = mean_predicted_likelihood(archive.state, remap(triples), tau,
                                      log=args.log)
    print(repr(score))
    return 0


def cmd_cv(args):
    loaded = load_responses(args.responses)
    vocabulary, word_counts = _word_counts(args, loaded)
    grid = read_grid_csv(args.grid)
    config = _config_from(args)
    folds_or_fraction = args.folds if args.folds is not None else args.fraction
    best, table = cross_validate(loaded.responses, word_counts, grid, config,
                                 folds_or_fraction, n_threads=args.threads)
    write_scores_csv(table, args.table)
    state, report = fit(loaded.responses, word_counts, best, config)
    archive = ModelArchive(state, best, tuple(vocabulary),
                           tuple(loaded.question_ids), tuple(loaded.learner_ids),
                           report)
    save_archive(archive, args.output)
    print(
        f"best: lambda={best.lam} gamma={best.gamma} eta={best.eta} "
        f"tau={best.tau} k={best.num_concepts}"
    )
    return 0


def cmd_keywords(args):
    archive = load_archive(args.archive)
    summaries = top_keywords(archive.state, list(archive.vocabulary), args.top)
    write_keywords_csv(summaries, args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_export_graph(args):
    archive = load_archive(args.archive)
    export_graph(archive, args.format, args.weight_floor, args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_simulate(args):
    responses, word_counts, truth = simulate(
        args.questions, args.learners, args.vocab, args.num_concepts,
        args.sparsity, args.tau, args.missing, args.seed,
    )
    qids = question_labels(args.questions)
    lids = learner_labels(args.learners)
    paths = {
        "responses": f"{args.out_prefix}_responses.csv",
        "corpus": f"{args.out_prefix}_corpus.jsonl",
        "truth": f"{args.out_prefix}_truth.json",
    }
    write_responses_csv(responses, qids, lids, paths["responses"])
    write_corpus_jsonl(word_counts, qids, paths["corpus"])
    truth_archive = ModelArchive(
        truth, None, word_counts.vocabulary, qids, lids,
        FitReport((), True, 0, 0.0),
    )
    save_archive(truth_archive, paths["truth"])
    for label, path in paths.items():
        print(f"wrote {label}: {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conceptfit",
        description="Estimate question-concept structure, learner knowledge, "
                    "difficulties, and concept keywords from graded responses "
                    "and question text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit the full model from grades and text")
    p.add_argument("--responses", required=True)
    p.add_argument("--corpus", required=True)
    _add_hyper_options(p)
    _add_text_options(p)
    _add_config_options(p)
    p.add_argument("--holdout-fraction", type=float, default=None,
                   help="exclude this fraction of grades from training")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("fit-baseline", help="fit the grades-only baseline")
    p.add_argument("--responses", required=True)
    _add_hyper_options(p, with_eta=False)
    _add_config_options(p)
    p.add_argument("--holdout-fraction", type=float, default=None)
    p.add_argument("--output", required=True)
    # the joint fit over zero words; eta weighs nothing then, but
    # HyperParams requires it and the archive records it
    p.set_defaults(func=cmd_fit, corpus=None, eta=1.0)

    p = sub.add_parser("predict", help="probabilities for listed pairs")
    p.add_argument("--archive", required=True)
    p.add_argument("--entries", required=True,
                   help="CSV with header question_id,learner_id")
    p.add_argument("--tau", type=float, default=None,
                   help="override the archived precision")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="mean predicted likelihood on grades")
    p.add_argument("--archive", required=True)
    p.add_argument("--responses", required=True)
    p.add_argument("--holdout-fraction", type=float, default=None,
                   help="score only the held-out side of this split")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--log", action="store_true",
                   help="mean log-likelihood instead of mean probability")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cv", help="cross-validate a hyperparameter grid")
    p.add_argument("--responses", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--grid", required=True,
                   help="CSV with columns lambda,gamma,eta,tau,k")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--fraction", type=float, default=0.2,
                       help="single random holdout fraction (default 0.2)")
    group.add_argument("--folds", type=int, default=None,
                       help="k-fold cross-validation instead of one holdout")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes fitting grid points in parallel; "
                        "the scores equal those of a serial run (default 1)")
    _add_text_options(p)
    _add_config_options(p)
    p.add_argument("--table", required=True, help="score table CSV to write")
    p.add_argument("--output", required=True, help="archive refit on all data")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("keywords", help="per-concept keyword table")
    p.add_argument("--archive", required=True)
    p.add_argument("--top", type=int, default=3)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_keywords)

    p = sub.add_parser("export-graph", help="question-concept graph")
    p.add_argument("--archive", required=True)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--weight-floor", type=float, default=None,
                   help="default: 5%% of the mean positive association weight")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_export_graph)

    p = sub.add_parser("simulate", help="draw a synthetic dataset")
    p.add_argument("--questions", type=int, required=True)
    p.add_argument("--learners", type=int, required=True)
    p.add_argument("--vocab", type=int, required=True)
    p.add_argument("-k", "--num-concepts", type=int, required=True)
    p.add_argument("--sparsity", type=int, required=True,
                   help="nonzero associations per question")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--missing", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConceptfitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
