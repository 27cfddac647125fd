"""Command-line interface.

Subcommands: fit, fit-baseline, predict, evaluate, cv, keywords,
export-graph, simulate. All randomness flows from --seed. Exit code 0 on
success; on failure a single ``error: ...`` line goes to stderr and the
exit code is nonzero.

``main`` parses with one parser per process, built by ``build_parser`` on
first use and kept; it only parses with it and never changes it, so each
call's namespace depends on that call's arguments alone. A caller that
runs many commands in one process, such as a batch of ``predict`` calls,
pays for building the parser once.
"""

import argparse
import functools
import sys
from itertools import repeat

import numpy as np

from . import model
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


_RESPONSES_HELP = "grades CSV with header question_id,learner_id,grade"
_CORPUS_HELP = ("question text JSONL: one object per line with question_id "
                "and text or terms")
_ARCHIVE_HELP = "model archive JSON written by fit, fit-baseline or cv"
_ARCHIVE_OUT_HELP = "model archive JSON to write"
_HOLDOUT_HELP = "exclude this fraction of grades from training"


def _add_config_options(parser):
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every random choice (default 0)")
    parser.add_argument("--max-outer", type=int, default=100,
                        help="most outer sweeps of block descent (default 100)")
    parser.add_argument("--outer-tol", type=float, default=1e-5,
                        help="stop once a sweep of full-accuracy block solves "
                             "lowers the objective by at most this relative "
                             "amount (default 1e-5)")
    parser.add_argument("--inner-max-iter", type=int, default=200,
                        help="most FISTA iterations per block solve (default 200)")
    parser.add_argument("--inner-tol", type=float, default=1e-7,
                        help="relative change that ends a block solve in the "
                             "sweeps that may end the fit; earlier sweeps solve "
                             "to 0.1x the last sweep's relative decrease, 1e-3 "
                             "in the first (default 1e-7)")


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
    parser.add_argument("-k", "--num-concepts", type=int, required=True,
                        help="number of latent concepts K")


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
    archive = ModelArchive(state, params, vocabulary, loaded.question_ids,
                           loaded.learner_ids, report)
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


def _archive_pairs(archive, question_ids, learner_ids, questions, learners):
    """Archive indices of the pairs (question_ids[q], learner_ids[l]).

    q and l run over the index arrays questions and learners; each id is
    looked up once. The first pair with an id the archive lacks raises.
    """
    def lookup(known, ids):
        index = {x: k for k, x in enumerate(known)}
        return np.fromiter(map(index.get, ids, repeat(-1)), dtype=np.int64,
                           count=len(ids))

    qi = lookup(archive.question_ids, question_ids)[questions]
    lj = lookup(archive.learner_ids, learner_ids)[learners]
    unknown = np.flatnonzero((qi < 0) | (lj < 0))
    if unknown.size:
        k = unknown[0]
        if qi[k] < 0:
            raise ConceptfitError(f"unknown question_id {question_ids[questions[k]]!r}")
        raise ConceptfitError(f"unknown learner_id {learner_ids[learners[k]]!r}")
    return qi, lj


def cmd_predict(args):
    archive = load_archive(args.archive)
    tau = _resolve_tau(args, archive)
    question_ids, learner_ids = zip(*read_entries_csv(args.entries))
    pairs = np.arange(len(question_ids))
    qi, lj = _archive_pairs(archive, question_ids, learner_ids, pairs, pairs)
    # through the module, so a wrapper set on it at run time sees the call
    probs = model.predict_response_prob(archive.state, qi, lj, tau)
    write_predictions_csv(zip(question_ids, learner_ids, probs.tolist()), args.output)
    print(f"wrote {args.output}: {len(probs)} prediction(s)")
    return 0


def cmd_evaluate(args):
    archive = load_archive(args.archive)
    tau = _resolve_tau(args, archive)
    loaded = load_responses(args.responses)
    responses = loaded.responses
    if args.holdout_fraction is not None:
        split = holdout_split(responses, args.holdout_fraction, args.seed)
        selected = np.array(split.test_entries)
    else:
        selected = np.arange(responses.num_observed)
    qi, lj = _archive_pairs(archive, loaded.question_ids, loaded.learner_ids,
                            responses.question_idx[selected],
                            responses.learner_idx[selected])
    entries = np.stack([qi, lj, responses.grades[selected]], axis=1)
    print(repr(mean_predicted_likelihood(archive.state, entries, tau, log=args.log)))
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
    archive = ModelArchive(state, best, vocabulary, loaded.question_ids,
                           loaded.learner_ids, report)
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
    p.add_argument("--responses", required=True, help=_RESPONSES_HELP)
    p.add_argument("--corpus", required=True, help=_CORPUS_HELP)
    _add_hyper_options(p)
    _add_text_options(p)
    _add_config_options(p)
    p.add_argument("--holdout-fraction", type=float, default=None,
                   help=_HOLDOUT_HELP)
    p.add_argument("--output", required=True, help=_ARCHIVE_OUT_HELP)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("fit-baseline", help="fit the grades-only baseline")
    p.add_argument("--responses", required=True, help=_RESPONSES_HELP)
    _add_hyper_options(p, with_eta=False)
    _add_config_options(p)
    p.add_argument("--holdout-fraction", type=float, default=None, help=_HOLDOUT_HELP)
    p.add_argument("--output", required=True, help=_ARCHIVE_OUT_HELP)
    # the joint fit over zero words; eta weighs nothing then, but
    # HyperParams requires it and the archive records it
    p.set_defaults(func=cmd_fit, corpus=None, eta=1.0)

    p = sub.add_parser("predict", help="probabilities for listed pairs")
    p.add_argument("--archive", required=True, help=_ARCHIVE_HELP)
    p.add_argument("--entries", required=True,
                   help="CSV with header question_id,learner_id")
    p.add_argument("--tau", type=float, default=None,
                   help="override the archived precision")
    p.add_argument("--output", required=True,
                   help="CSV to write: question_id,learner_id,probability")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="mean predicted likelihood on grades")
    p.add_argument("--archive", required=True, help=_ARCHIVE_HELP)
    p.add_argument("--responses", required=True,
                   help="grades CSV to score, header question_id,learner_id,grade")
    p.add_argument("--holdout-fraction", type=float, default=None,
                   help="score only the held-out side of this split")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the split (default 0); to score a fit's "
                        "held-out grades it must equal that fit's --seed, "
                        "with the same --holdout-fraction")
    p.add_argument("--tau", type=float, default=None,
                   help="override the archived precision")
    p.add_argument("--log", action="store_true",
                   help="mean log-likelihood instead of mean probability")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cv", help="cross-validate a hyperparameter grid")
    p.add_argument("--responses", required=True, help=_RESPONSES_HELP)
    p.add_argument("--corpus", required=True, help=_CORPUS_HELP)
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
    p.add_argument("--archive", required=True, help=_ARCHIVE_HELP)
    p.add_argument("--top", type=int, default=3,
                   help="most keywords per concept (default 3)")
    p.add_argument("--output", required=True,
                   help="CSV to write: concept,rank,word,weight")
    p.set_defaults(func=cmd_keywords)

    p = sub.add_parser("export-graph", help="question-concept graph")
    p.add_argument("--archive", required=True, help=_ARCHIVE_HELP)
    p.add_argument("--format", choices=("dot", "json"), default="dot",
                   help="Graphviz dot or JSON (default dot)")
    p.add_argument("--weight-floor", type=float, default=None,
                   help="default: 5%% of the mean positive association weight")
    p.add_argument("--output", required=True, help="graph file to write")
    p.set_defaults(func=cmd_export_graph)

    p = sub.add_parser("simulate", help="draw a synthetic dataset")
    p.add_argument("--questions", type=int, required=True, help="number of questions")
    p.add_argument("--learners", type=int, required=True, help="number of learners")
    p.add_argument("--vocab", type=int, required=True, help="number of vocabulary words")
    p.add_argument("-k", "--num-concepts", type=int, required=True,
                   help="number of latent concepts K")
    p.add_argument("--sparsity", type=int, required=True,
                   help="nonzero associations per question")
    p.add_argument("--tau", type=float, required=True,
                   help="response precision the grades are drawn at")
    p.add_argument("--missing", type=float, default=0.0,
                   help="fraction of grades left unobserved (default 0)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for every random draw (default 0)")
    p.add_argument("--out-prefix", required=True,
                   help="writes PREFIX_responses.csv, PREFIX_corpus.jsonl and "
                        "PREFIX_truth.json")
    p.set_defaults(func=cmd_simulate)

    return parser


@functools.cache
def _parser():
    """The one parser ``main`` parses with, built on first use."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConceptfitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
