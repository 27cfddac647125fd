"""End-to-end benchmark of conceptfit: fit time, fit quality, prediction rate.

    python3 bench/run.py --workload canonical --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The run generates its inputs (``bench/gen.py``), then repeats
whole rounds until ``--seconds`` have passed. One round drives the program
through its public functions, per dataset, in the order the CLI's
``fit --holdout-fraction``, ``fit-baseline`` and ``predict`` use them:

1. load and count (``io``, ``text``), then hold out 20% of the grades
   (``evaluation``): the set-up, repeated and timed;
2. joint fits from each start and one grades-only fit (``estimator``);
3. the held-out likelihood of each fit (``evaluation``);
4. save, reload and re-save the archive of the best joint fit (``io``);
5. ``conceptfit predict`` on a batch of pairs, in-process via ``cli.main``.

The end-to-end times are given at reference speed, so that the shared
machine's swings in speed cancel: a calibration kernel (``bench/speed.py``)
is timed between every two timed operations, each set-up and predict call is
scaled by the kernel's reference time over the mean of the two measures
around it, and each fit likewise over the measures around it and those taken
every ``SAMPLE_INTERVAL`` seconds during it.
Every output is checked against ``bench/reference.py``. A fit that is not a
first-order stationary point counts as a failed operation. The last line of
standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import os

# One BLAS thread: the arrays are small, and a fixed thread count keeps the
# floating-point results, and so the set of stalled fits, the same per run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io as stdio  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ETA, GAMMA, HOLDOUT_FRACTION, HOLDOUT_SEED, LAM, NUM_CONCEPTS, PREDICT_REPEATS,
    SETUP_REPEATS, STARTS, TAU, WORKLOADS,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s", "solve_s": "s", "baseline_solve_s": "s",
    "final_objective": "objective", "heldout_lik": "probability",
    "baseline_lik": "probability", "recovery": "cosine",
    "predict_rate": "pairs/s", "peak_mb": "MB",
}
BLOCK_UNITS = {
    "calls": "count", "inner_iters": "count", "value_evals_per_iter": "count/iter",
    "value_us": "us", "grad_us": "us", "self_s": "s", "floor_stalls": "count",
    "max_iter_hits": "count",
}
PER_LAYER_UNITS = {
    "io.load_responses_s": "s", "io.load_corpus_s": "s",
    "text.load_stop_words_s": "s", "text.build_vocabulary_s": "s",
    "text.count_matrix_s": "s",
    "text.tokens_per_s": "1/s", "evaluation.holdout_split_s": "s",
    "estimator.fit_s": "s", "estimator.sweeps": "count", "estimator.sweep_ms": "ms",
    "estimator.baseline_fit_s": "s", "estimator.baseline_sweeps": "count",
    "estimator.fit_alloc_peak_mb": "MB", "model.objective_ms": "ms",
    **{f"solvers.{b}.{m}": u for b in "WCT" for m, u in BLOCK_UNITS.items()},
    "io.save_archive_s": "s", "io.load_archive_s": "s", "io.read_entries_s": "s",
    "io.write_predictions_s": "s", "model.predict_us": "us",
}


# Seconds between two kernel measures during a fit: about 2% of its time.
SAMPLE_INTERVAL = 0.25

SETUP_PARTS = ("total", "load_responses", "load_corpus", "load_stop_words",
               "build_vocabulary", "count_matrix", "holdout_split")


def die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    package = SRC / "conceptfit"
    if not (package / "__init__.py").is_file():
        die(f"no conceptfit sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import conceptfit
    import conceptfit.cli
    if Path(conceptfit.__file__).resolve().parent != package.resolve():
        die(f"imported conceptfit from {conceptfit.__file__}, not from {package}")
    return conceptfit


class Data(NamedTuple):
    """Arrays the reference checks need: training grades, counts, test grades."""

    grades: tuple  # (qi, lj, y) of the training entries
    counts: np.ndarray
    test: tuple  # (qi, lj, y) of the held-out entries


class Fit(NamedTuple):
    """Outcome of one fit; ``recovery`` is None for grades-only fits.

    ``ref_s`` is ``wall_s`` at reference speed (``bench/speed.py``).
    """

    dataset: int
    start: int
    wall_s: float
    ref_s: float
    sweeps: int
    stationary: bool
    objective: float
    heldout_lik: float
    recovery: object


class Run:
    """State of one benchmark run: timings, outcomes and problems found."""

    def __init__(self, cf, workload, inputs, tracer):
        self.cf, self.w, self.inputs, self.tracer = cf, workload, inputs, tracer
        self.params = cf.HyperParams(LAM, GAMMA, ETA, TAU, NUM_CONCEPTS)
        self.truth = [dict(np.load(inputs / f"d{d}" / "truth.npz"))
                      for d in range(workload.datasets)]
        self.pairs = [self._read_pairs(inputs / f"d{d}" / "pairs.csv")
                      for d in range(workload.datasets)]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.rounds = 0
        self.setup = {k: [] for k in SETUP_PARTS}
        self.calibration = []  # seconds of every speed.measure(), in order
        self.setup_ref = []  # set-up totals in reference seconds
        self.joint = []  # Fit per joint fit
        self.baseline = []  # Fit per grades-only fit
        self.residuals = []
        self.predict_rates = []  # pairs per wall second
        self.predict_ref_rates = []  # pairs per reference second
        self.save_s = []
        self.objective_ms = []
        self.tokens = {}  # dataset -> tokens the tokenizer yields for its corpus

    @staticmethod
    def _read_pairs(path):
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        return [tuple(line.split(",")) for line in lines]

    def _check(self, what, problems):
        self.attempted += 1
        for problem in problems:
            self.problems.append(f"round {self.rounds + 1} {what}: {problem}")

    # -- one round ----------------------------------------------------------

    def round(self, work):
        for d in range(self.w.datasets):
            self.dataset(d, work / f"d{d}")
        self.rounds += 1

    def setup_once(self, d):
        """The CLI's path from the input files to the training set.

        Returns its outputs and the seconds of each part, keyed as SETUP_PARTS.
        """
        cf, paths = self.cf, self.inputs / f"d{d}"
        t0 = time.perf_counter()
        loaded = cf.io.load_responses(paths / "grades.csv")
        t1 = time.perf_counter()
        corpus = cf.io.load_corpus(paths / "corpus.jsonl", loaded.question_ids)
        t2 = time.perf_counter()
        stops = cf.text.load_stop_words()
        t3 = time.perf_counter()
        vocabulary = cf.text.build_vocabulary(corpus, stops)
        t4 = time.perf_counter()
        word_counts = cf.text.count_matrix(corpus, vocabulary)
        t5 = time.perf_counter()
        split = cf.evaluation.holdout_split(loaded.responses, HOLDOUT_FRACTION, HOLDOUT_SEED)
        train = loaded.responses.subset(split.train_entries)
        t6 = time.perf_counter()
        seconds = dict(zip(SETUP_PARTS, (t6 - t0, t1 - t0, t2 - t1, t3 - t2, t4 - t3,
                                         t5 - t4, t6 - t5)))
        return (loaded, corpus, vocabulary, word_counts, split, train), seconds

    def dataset(self, d, work):
        for start in STARTS:
            self.pipeline(d, work, "joint", start)
        for start in self.w.baseline_starts:
            self.pipeline(d, work, "baseline", start)

    def pipeline(self, d, work, kind, start):
        """One pass the CLI would make: set up, fit, score, archive, predict.

        Each fit gets its own set-ups and predict calls, so the short timed
        operations are spread over the whole run rather than bunched together.
        """
        cf, params, truth = self.cf, self.params, self.truth[d]
        what = f"d{d} {kind} start {start}"
        joint = kind == "joint"
        self._calibrate()
        for _ in range(SETUP_REPEATS):
            outputs, seconds = self.setup_once(d)
            self.setup_ref.append(seconds["total"] * self._calibrate())
            for part, value in seconds.items():
                self.setup[part].append(value)
            loaded, corpus, vocabulary, word_counts, split, train = outputs
            self._check(f"{what} setup", checks.setup(
                truth, loaded, vocabulary, word_counts, split, train, HOLDOUT_FRACTION))
        if self.tracer is not None:
            self.tokens.setdefault(d, sum(len(cf.text.document_tokens(c))
                                          for _, c in corpus.documents))
        r = loaded.responses
        test_idx = np.array(split.test_entries)
        test = (r.question_idx[test_idx], r.learner_idx[test_idx],
                r.grades[test_idx].astype(float))
        data = Data((train.question_idx, train.learner_idx, train.grades.astype(float)),
                    word_counts.counts.astype(float), test)
        if joint:
            call = functools.partial(cf.estimator.fit, train, word_counts, params)
            occurrences = float(word_counts.counts.sum())
        else:
            call = functools.partial(cf.estimator.fit_responses_only, train, params)
            occurrences = 0.0
        threshold = ref.stationarity_threshold(train.num_observed, occurrences)
        dims = (r.num_questions, r.num_learners, word_counts.num_words if joint else 0,
                NUM_CONCEPTS)
        state, report, wall, ref_s = self._fit(kind, d, start, dims, call)
        stationary = self._judge(f"{what} fit", state, report, data, joint, threshold)
        lik = self._score(f"{what} score", state, r.triples(split.test_entries), test)
        if joint and self.tracer is not None:
            self._time_objective(train, word_counts, state)
        archive_path = self._archive(what, work, state, report,
                                     vocabulary if joint else (), loaded)
        self._predict(what, d, work, archive_path, state, loaded)
        if joint:
            self.joint.append(Fit(d, start, wall, ref_s, report.outer_iterations, stationary,
                                  report.objective_trace[-1], lik,
                                  ref.recovery(state.W, truth["W"])))
        else:
            self.baseline.append(Fit(d, start, wall, ref_s, report.outer_iterations,
                                     stationary, report.objective_trace[-1], lik, None))

    def _fit(self, kind, d, start, dims, call):
        config = self.cf.FitConfig(rng_seed=start)
        if self.tracer is not None:
            self.tracer.begin_fit(kind, d, start, dims)
        # the traced run samples nothing during fits, so spans hold no kernel time
        with speed.Sampler(SAMPLE_INTERVAL if self.tracer is None else 0) as sampler:
            t0 = time.perf_counter()
            state, report = call(config)
            wall = time.perf_counter() - t0 - sampler.seconds
        if self.tracer is not None:
            self.tracer.end_fit(wall, report.outer_iterations)
        measures = [self.calibration[-1], *sampler.measures]
        self._calibrate()
        measures.append(self.calibration[-1])
        return state, report, wall, wall * speed.REFERENCE_S / statistics.fmean(measures)

    def _calibrate(self):
        """Measure the kernel; return the scale for the operation just timed.

        The scale turns that operation's wall seconds into reference seconds,
        from the two measures around it.
        """
        before = self.calibration[-1] if self.calibration else None
        self.calibration.append(speed.measure())
        if before is None:
            return None
        return speed.REFERENCE_S / (0.5 * (before + self.calibration[-1]))

    def _judge(self, what, state, report, data, with_text, threshold):
        self._check(what, checks.fit(state, report, data, self.params, with_text))
        residual = checks.residual(state, data, self.params, with_text)
        self.residuals.append((what, residual, threshold))
        if residual > threshold:
            self.failed += 1
            return False
        return True

    def _score(self, what, state, test_triples, test):
        value = self.cf.evaluation.mean_predicted_likelihood(state, test_triples,
                                                             self.params.tau)
        self._check(what, checks.score(value, state, test, self.params.tau))
        return value

    def _time_objective(self, train, word_counts, state):
        for _ in range(5):
            t0 = time.perf_counter()
            self.cf.model.objective(train, word_counts, state, self.params)
            self.objective_ms.append((time.perf_counter() - t0) * 1e3)

    def _archive(self, what, work, state, report, vocabulary, loaded):
        cf = self.cf
        saved = cf.io.ModelArchive(state, self.params, tuple(vocabulary),
                                   tuple(loaded.question_ids), tuple(loaded.learner_ids),
                                   report)
        first, second = work / "model.json", work / "model-resaved.json"
        t0 = time.perf_counter()
        cf.io.save_archive(saved, first)
        self.save_s.append(time.perf_counter() - t0)
        reloaded = cf.io.load_archive(first)
        cf.io.save_archive(reloaded, second)
        self._check(f"{what} archive", checks.archive(
            first.read_bytes(), second.read_bytes(), saved, reloaded))
        return first

    def _predict(self, what, d, work, archive_path, state, loaded):
        pairs_path = self.inputs / f"d{d}" / "pairs.csv"
        out_path = work / "predictions.csv"
        q_index = {q: i for i, q in enumerate(loaded.question_ids)}
        l_index = {s: j for j, s in enumerate(loaded.learner_ids)}
        argv = ["predict", "--archive", str(archive_path), "--entries", str(pairs_path),
                "--output", str(out_path)]
        self._calibrate()
        for _ in range(PREDICT_REPEATS):
            sink = stdio.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                code = self.cf.cli.main(argv)
            wall = time.perf_counter() - t0
            self.predict_rates.append(len(self.pairs[d]) / wall)
            self.predict_ref_rates.append(len(self.pairs[d]) / (wall * self._calibrate()))
            self._check(f"{what} predict", checks.predictions(
                code, out_path, self.pairs[d], state, self.params.tau, q_index, l_index))

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, scaled=True):
        """The end-to-end metrics; times at reference speed unless not ``scaled``."""
        joint_passing = sum(f.stationary for f in self.joint)
        base_passing = sum(f.stationary for f in self.baseline)
        setups = self.setup_ref if scaled else self.setup["total"]
        rates = self.predict_ref_rates if scaled else self.predict_rates
        seconds = (lambda f: f.ref_s) if scaled else (lambda f: f.wall_s)
        # time to a usable model: stalled fits are charged to the ones that pass
        return {
            "setup_s": statistics.median(setups),
            "solve_s": sum(map(seconds, self.joint)) / max(joint_passing, 1),
            "baseline_solve_s": sum(map(seconds, self.baseline)) / max(base_passing, 1),
            "final_objective": statistics.fmean(f.objective for f in self.joint),
            "heldout_lik": statistics.fmean(f.heldout_lik for f in self.joint),
            "baseline_lik": statistics.fmean(f.heldout_lik for f in self.baseline),
            "recovery": statistics.fmean(f.recovery for f in self.joint),
            "predict_rate": statistics.median(rates),
            "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, alloc_peak_mb):
        tracer, med = self.tracer, statistics.median
        out = {
            "io.load_responses_s": med(self.setup["load_responses"]),
            "io.load_corpus_s": med(self.setup["load_corpus"]),
            "text.load_stop_words_s": med(self.setup["load_stop_words"]),
            "text.build_vocabulary_s": med(self.setup["build_vocabulary"]),
            "text.count_matrix_s": med(self.setup["count_matrix"]),
            "text.tokens_per_s": (statistics.fmean(self.tokens.values())
                                  / med(self.setup["build_vocabulary"])),
            "evaluation.holdout_split_s": med(self.setup["holdout_split"]),
            "estimator.fit_s": med(f.wall_s for f in self.joint),
            "estimator.sweeps": med(f.sweeps for f in self.joint),
            "estimator.sweep_ms": 1e3 * sum(f.wall_s for f in self.joint)
                                  / sum(f.sweeps for f in self.joint),
            "estimator.baseline_fit_s": med(f.wall_s for f in self.baseline),
            "estimator.baseline_sweeps": med(f.sweeps for f in self.baseline),
            "estimator.fit_alloc_peak_mb": alloc_peak_mb,
            "model.objective_ms": med(self.objective_ms),
            "io.save_archive_s": med(self.save_s),
        }
        spans = tracer.spans
        joint_fits = {s["id"] for s in spans if s["name"] == "fit" and s["kind"] == "joint"}
        solves = [s for s in spans if s["name"] == "solve" and s["parent"] in joint_fits]
        fista_absent = "conceptfit.estimator.fista_minimize" in tracer.absent
        for block in "WCT":
            mine = [s for s in solves if s["block"] == block]
            if fista_absent or not mine:
                out.update({f"solvers.{block}.{m}": None for m in BLOCK_UNITS})
                continue
            iters = sum(s["iterations"] for s in mine)
            value_calls = sum(s["value_calls"] for s in mine)
            grad_calls = sum(s["grad_calls"] for s in mine)
            out.update({
                f"solvers.{block}.calls": len(mine) / len(joint_fits),
                f"solvers.{block}.inner_iters": iters / len(mine),
                f"solvers.{block}.value_evals_per_iter": value_calls / max(iters, 1),
                f"solvers.{block}.value_us": 1e6 * sum(s["value_s"] for s in mine)
                                             / max(value_calls, 1),
                f"solvers.{block}.grad_us": 1e6 * sum(s["grad_s"] for s in mine)
                                            / max(grad_calls, 1),
                f"solvers.{block}.self_s": sum(s["self_s"] for s in mine) / len(joint_fits),
            })
            for metric, flag in (("floor_stalls", "floor_stall"),
                                 ("max_iter_hits", "max_iter_hit")):
                flags = [s[flag] for s in mine]
                out[f"solvers.{block}.{metric}"] = (
                    None if None in flags else sum(flags) / self.rounds)
        batches = [s for s in spans if s.get("calls")]
        for metric, name, scale in (
                ("io.load_archive_s", "io.load_archive", 1.0),
                ("io.read_entries_s", "io.read_entries_csv", 1.0),
                ("io.write_predictions_s", "io.write_predictions_csv", 1.0),
                ("model.predict_us", "model.predict_response_prob", 1e6)):
            mine = [s for s in batches if s["name"] == name]
            out[metric] = (None if not mine else
                           scale * sum(s["total_s"] for s in mine)
                           / sum(s["calls"] for s in mine))
        return out


def fit_alloc_peak_mb(run):
    """tracemalloc peak of one joint fit on dataset 0, outside the timed rounds."""
    (_, _, _, word_counts, _, train), _ = run.setup_once(0)
    tracemalloc.start()
    try:
        run.cf.estimator.fit(train, word_counts, run.params,
                             run.cf.FitConfig(rng_seed=STARTS[0]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def metric_block(values, units):
    block = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            block[name] = {"value": None, "unit": unit, "absent": True}
        else:
            block[name] = {"value": float(value), "unit": unit}
    return block


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cf = import_program()
    w = WORKLOADS[args.workload]

    out = BENCH / "out" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    inputs, work = out / "inputs", out / "work"
    shutil.rmtree(out, ignore_errors=True)
    subprocess.run([sys.executable, str(BENCH / "gen.py"), "--workload", w.name,
                    "--seed", str(args.seed), "--out", str(inputs)], check=True)
    for d in range(w.datasets):
        (work / f"d{d}").mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        tracer = Tracer(cf.estimator, cf.solvers, cf.cli, cf.model)
        tracer.install()
    run = Run(cf, w, inputs, tracer)
    started = time.perf_counter()
    try:
        while True:
            run.round(work)
            if tracer is not None:
                tracer.flush_timed()
            if time.perf_counter() - started >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    measured = time.perf_counter() - started

    if args.trace:
        metrics = metric_block(run.per_layer(fit_alloc_peak_mb(run)),
                               PER_LAYER_UNITS)
        tracer.write(out / "spans.jsonl")
    else:
        metrics = metric_block(run.end_to_end(), END_TO_END_UNITS)
    for problem in run.problems:
        print(f"bench: {problem}", file=sys.stderr)
    detail = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "rounds": run.rounds, "measured_s": measured,
        "joint_fits": [f._asdict() for f in run.joint],
        "baseline_fits": [f._asdict() for f in run.baseline],
        "residuals": run.residuals, "problems": run.problems,
        "calibration_s": run.calibration,
        # the end-to-end figures in wall time, not scaled to reference speed
        "wall": run.end_to_end(scaled=False),
    }
    (out / "detail.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(inputs, ignore_errors=True)
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
