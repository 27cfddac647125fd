"""File formats, model persistence, exporters, and the synthetic generator.

The model archive is a single JSON document with an explicit schema
version and row-major nested arrays: inspectable, diffable, and adequate at
the scale this package targets (hundreds of questions). Serialization is
canonical, so saving the same archive twice yields identical bytes; wall
time is deliberately not persisted so that repeated same-seed fits produce
byte-identical files.
"""

import csv
import json
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import DataFormatError, DimensionMismatchError, ValidationError
from .evaluation import association_graph, top_keywords
from .model import (
    FactorState,
    FitReport,
    GradedResponseSet,
    HyperParams,
    WordCountMatrix,
    _check_count,
    _check_names,
    _check_positive,
    _check_real,
    inverse_logit,
)
from .text import Corpus

__all__ = [
    "SCHEMA_VERSION",
    "LoadedResponses",
    "ModelArchive",
    "load_responses",
    "load_corpus",
    "save_archive",
    "load_archive",
    "export_graph",
    "simulate",
    "question_labels",
    "learner_labels",
    "write_responses_csv",
    "write_corpus_jsonl",
    "read_grid_csv",
    "write_scores_csv",
    "write_keywords_csv",
    "read_entries_csv",
    "write_predictions_csv",
]

SCHEMA_VERSION = 1

_RESPONSES_HEADER = ["question_id", "learner_id", "grade"]
_GRID_COLUMNS = ["lambda", "gamma", "eta", "tau", "k"]


class LoadedResponses(NamedTuple):
    responses: GradedResponseSet
    question_ids: list
    learner_ids: list


def load_responses(path):
    """Parse a grades CSV with header ``question_id,learner_id,grade``.

    Ids map to dense indices in first-appearance order; pairs absent from
    the file are unobserved. Malformed rows, duplicate pairs, and grades
    outside {0, 1} are rejected with line numbers. The file is read in one
    pass and checked a column at a time; an error names the first faulty
    row in file order, whatever its fault.
    """
    path = Path(path)
    loaded = _read_csv(path, _exact_header(_RESPONSES_HEADER),
                       lambda lines, columns: _response_columns(path, lines, columns))
    if loaded is None:
        raise DataFormatError("no data rows", path)
    return loaded


def _response_columns(path, lines, columns):
    """``load_responses``'s checks and indexing, over whole columns."""
    qids, lids, grades = columns
    q_index = {qid: i for i, qid in enumerate(dict.fromkeys(qids))}
    l_index = {lid: j for j, lid in enumerate(dict.fromkeys(lids))}
    qi = np.fromiter(map(q_index.__getitem__, qids), np.int64, len(qids))
    lj = np.fromiter(map(l_index.__getitem__, lids), np.int64, len(lids))
    pairs = qi * len(l_index) + lj
    _, first = np.unique(pairs, return_index=True)
    # each kind's first faulty row as (row, rank, message, rows to name); the
    # least is the file's first fault, a row with two taking the lower rank
    faults = []
    r = _first_empty(qids, lids)
    if r is not None:
        faults.append((r, 0, "empty question or learner id", (r,)))
    if not set(grades) <= {"0", "1"}:
        r = next(r for r, grade in enumerate(grades) if grade not in ("0", "1"))
        faults.append((r, 1, f"grade must be 0 or 1, got {grades[r]!r}", (r,)))
    if len(first) < len(pairs):
        seen_before = np.ones(len(pairs), dtype=bool)
        seen_before[first] = False
        r = int(np.argmax(seen_before))
        earlier = int(np.argmax(pairs == pairs[r]))
        faults.append((r, 2, f"duplicate pair ({qids[r]}, {lids[r]})", (earlier, r)))
    if faults:
        _, _, message, at = min(faults)
        raise DataFormatError(message, path, tuple(lines[k] for k in at))
    entries = np.stack([qi, lj, np.array(grades) == "1"], axis=1)
    # an int64 array, whose dtype rules out a bool, spares the check a scan
    responses = GradedResponseSet(len(q_index), len(l_index), entries)
    return LoadedResponses(responses, list(q_index), list(l_index))


def load_corpus(path, question_ids=None):
    """Parse a JSONL corpus: one object per line with ``question_id`` and
    either ``text`` (raw string) or ``terms`` (pre-tokenized list, lowercased
    on load).

    When ``question_ids`` is given, every id must appear exactly once and
    the documents come back in that order, ready for count_matrix.
    """
    path = Path(path)
    docs = {}
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"invalid JSON: {exc.msg}", path, (line_no,))
            if not isinstance(obj, dict):
                raise DataFormatError("each line must be a JSON object", path, (line_no,))
            qid = obj.get("question_id")
            if not isinstance(qid, str) or not qid:
                raise DataFormatError(
                    "missing or empty 'question_id'", path, (line_no,)
                )
            has_text = "text" in obj
            has_terms = "terms" in obj
            if has_text and has_terms:
                raise DataFormatError(
                    f"{qid!r} has both 'text' and 'terms'", path, (line_no,)
                )
            if not has_text and not has_terms:
                raise DataFormatError(
                    f"{qid!r} has neither 'text' nor 'terms'", path, (line_no,)
                )
            if has_text:
                if not isinstance(obj["text"], str):
                    raise DataFormatError("'text' must be a string", path, (line_no,))
                content = obj["text"]
            else:
                terms = obj["terms"]
                if not isinstance(terms, list) or any(
                    not isinstance(t, str) or not t for t in terms
                ):
                    raise DataFormatError(
                        "'terms' must be a list of nonempty strings", path, (line_no,)
                    )
                content = tuple(t.lower() for t in terms)
            if qid in docs:
                raise DataFormatError(
                    f"duplicate question_id {qid!r}", path, (docs[qid][0], line_no)
                )
            docs[qid] = (line_no, content)
    if question_ids is not None:
        wanted = list(question_ids)
        missing = [q for q in wanted if q not in docs]
        if missing:
            raise DataFormatError(
                f"corpus is missing question_id(s): {', '.join(missing)}", path
            )
        known = set(wanted)
        unknown = [q for q in docs if q not in known]
        if unknown:
            raise DataFormatError(
                f"question_id(s) not present in responses: {', '.join(unknown)}",
                path,
                (docs[unknown[0]][0],),
            )
        ordered = [(q, docs[q][1]) for q in wanted]
    else:
        ordered = [(q, content) for q, (_, content) in docs.items()]
    return Corpus(tuple(ordered))


@dataclass(frozen=True)
class ModelArchive:
    """Everything needed to reuse a fitted model, plus its fit report.

    ``params`` may be None for archives that hold generated ground-truth
    factors rather than a fit. The parts check their own fields; the archive
    owns the names and how the parts fit together: each name list is
    distinct nonempty strings (``_check_names``), kept as a tuple, with one
    name per column of T, row of W and column of C, and the params' concept
    count is W's.
    """

    state: FactorState
    params: object
    vocabulary: tuple
    question_ids: tuple
    learner_ids: tuple
    report: FitReport
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        for name in ("vocabulary", "question_ids", "learner_ids"):
            object.__setattr__(self, name, _check_names(name, getattr(self, name)))
        if len(self.vocabulary) != self.state.num_words:
            raise ValidationError("vocabulary length does not match T")
        if len(self.question_ids) != self.state.num_questions:
            raise ValidationError("question_ids length does not match W")
        if len(self.learner_ids) != self.state.num_learners:
            raise ValidationError("learner_ids length does not match C")
        if self.params is not None and self.params.num_concepts != self.state.num_concepts:
            raise ValidationError("hyperparameter concept count does not match W")


def _archive_doc(archive):
    s = archive.state
    if archive.params is None:
        hyper = None
    else:
        p = archive.params
        hyper = {
            "lambda": float(p.lam),
            "gamma": float(p.gamma),
            "eta": float(p.eta),
            "tau": float(p.tau),
            "epsilon": float(p.epsilon),
            "num_concepts": int(p.num_concepts),
        }
    return {
        "schema_version": archive.schema_version,
        "dimensions": {
            "num_questions": s.num_questions,
            "num_learners": s.num_learners,
            "vocabulary_size": s.num_words,
            "num_concepts": s.num_concepts,
        },
        "hyperparameters": hyper,
        "W": s.W.tolist(),
        "mu": s.mu.tolist(),
        "C": s.C.tolist(),
        "T": s.T.tolist(),
        "vocabulary": list(archive.vocabulary),
        "question_ids": list(archive.question_ids),
        "learner_ids": list(archive.learner_ids),
        # wall time deliberately not persisted: same-seed fits must produce
        # byte-identical archives.
        "fit_report": {
            "objective_trace": list(archive.report.objective_trace),
            "converged": bool(archive.report.converged),
            "outer_iterations": int(archive.report.outer_iterations),
        },
    }


def save_archive(archive, path):
    """Write the archive as canonical JSON (fixed key order, full precision)."""
    text = json.dumps(_archive_doc(archive), indent=2, ensure_ascii=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_archive(path):
    """Read an archive, rebuilding it through the types that own its rules.

    The loader checks the file: JSON, an object, schema version 1, and a
    dimensions block that matches the arrays. Each field is checked by the
    type it builds: a factor by ``FactorState``, whose ValidationError
    stands, the rest by ``HyperParams``, ``FitReport`` and ``ModelArchive``.
    A missing key, a ragged or mistyped value, a W that is no Q x K matrix,
    factors whose shapes disagree, or a field those three reject is a
    DataFormatError naming the file.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc.msg}", path, (exc.lineno,))
    if not isinstance(doc, dict):
        raise DataFormatError("archive must be a JSON object", path)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DataFormatError(
            f"unsupported schema_version {doc.get('schema_version')!r}", path
        )
    state = None
    try:
        state = FactorState(doc["W"], doc["mu"], doc["C"], doc["T"])
        dims, hyper, fr = doc["dimensions"], doc["hyperparameters"], doc["fit_report"]
        params = None if hyper is None else HyperParams(
            lam=hyper["lambda"], gamma=hyper["gamma"], eta=hyper["eta"],
            tau=hyper["tau"], num_concepts=hyper["num_concepts"],
            epsilon=hyper["epsilon"])
        report = FitReport(fr["objective_trace"], fr["converged"],
                           fr["outer_iterations"], 0.0)
        archive = ModelArchive(state, params, doc["vocabulary"], doc["question_ids"],
                               doc["learner_ids"], report)
    except KeyError as exc:
        raise DataFormatError(f"archive is missing field {exc.args[0]!r}", path) from None
    except (TypeError, ValueError, ValidationError, DimensionMismatchError) as exc:
        if state is None and isinstance(exc, ValidationError):
            raise  # the factors' own feasibility error
        # ragged arrays, factors of disagreeing shapes, values of the wrong
        # type, and fields out of range
        raise DataFormatError(f"malformed archive field: {exc}", path) from None
    expected = {
        "num_questions": state.num_questions,
        "num_learners": state.num_learners,
        "vocabulary_size": state.num_words,
        "num_concepts": state.num_concepts,
    }
    if dims != expected:
        raise DataFormatError(
            f"dimensions block {dims} does not match the stored arrays {expected}",
            path,
        )
    return archive


def _dot_quote(label):
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _concept_keywords(archive):
    """Each concept's top three keywords; none over an empty vocabulary."""
    if not archive.state.num_words:
        return {}
    return {
        summary.concept_index: [w for w, _ in summary.keywords]
        for summary in top_keywords(archive.state, list(archive.vocabulary), 3)
    }


def _graph_to_dot(graph, archive):
    keywords = _concept_keywords(archive)
    lines = ["graph associations {"]
    for i, mu in graph.question_nodes:
        label = f"{archive.question_ids[i]}\\nmu={mu:.2f}"
        lines.append(f"  q{i} [shape=box, label={_dot_quote(label)}];")
    for k in graph.concept_nodes:
        words = keywords.get(k)
        label = "\\n".join(words) if words else f"concept {k + 1}"
        lines.append(f"  c{k} [shape=circle, label={_dot_quote(label)}];")
    max_w = max((w for _, _, w in graph.edges), default=0.0)
    for i, k, w in graph.edges:
        pen = 4.0 * w / max_w if max_w > 0 else 1.0
        lines.append(f"  q{i} -- c{k} [penwidth={pen:.3f}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _graph_to_json(graph, archive):
    keywords = _concept_keywords(archive)
    nodes = [
        {
            "id": f"q{i}",
            "type": "question",
            "question_id": archive.question_ids[i],
            "difficulty": mu,
        }
        for i, mu in graph.question_nodes
    ]
    nodes += [
        {"id": f"c{k}", "type": "concept", "keywords": keywords.get(k, [])}
        for k in graph.concept_nodes
    ]
    edges = [
        {"source": f"q{i}", "target": f"c{k}", "weight": w}
        for i, k, w in graph.edges
    ]
    return json.dumps({"nodes": nodes, "edges": edges}, indent=2) + "\n"


def export_graph(archive, format, weight_floor=None, path=None):
    """Write the question-concept association graph as DOT or JSON.

    DOT draws questions as boxes labeled with their id and difficulty (two
    decimals), concepts as circles labeled with their top three keywords,
    and edge pen widths proportional to the association weight. JSON keeps
    the raw weights. Returns the rendered text.
    """
    if format not in ("dot", "json"):
        raise ValidationError(f"unknown graph format {format!r}")
    graph = association_graph(archive.state, weight_floor)
    text = (
        _graph_to_dot(graph, archive)
        if format == "dot"
        else _graph_to_json(graph, archive)
    )
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def simulate(num_questions, num_learners, num_words, num_concepts, sparsity,
             tau, missing_fraction=0.0, seed=0, epsilon=1e-6):
    """Draw (responses, word counts, true factors) from the generative model.

    Each association row gets ``sparsity`` uniformly chosen support
    positions with exponential(mean 1) magnitudes; C and mu are standard
    normal; T entries are exponential(mean 0.5). Grades are Bernoulli
    through the tau-scaled logit and then a uniformly random
    round(missing_fraction * Q * N) subset is dropped; counts are Poisson
    at the epsilon-floored rates. Deterministic per seed, which must be an
    integer >= 0.
    """
    for name, value in (("num_questions", num_questions), ("num_learners", num_learners),
                        ("num_words", num_words), ("num_concepts", num_concepts),
                        ("sparsity", sparsity)):
        _check_count(name, value, 1)
    if sparsity > num_concepts:
        raise ValidationError("sparsity cannot exceed the number of concepts")
    _check_real("missing_fraction", missing_fraction, "in [0, 1)", lambda v: 0 <= v < 1)
    _check_positive("tau", tau)
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    W = np.zeros((num_questions, num_concepts))
    for i in range(num_questions):
        support = rng.choice(num_concepts, size=sparsity, replace=False)
        W[i, support] = rng.exponential(1.0, size=sparsity)
    C = rng.standard_normal((num_concepts, num_learners))
    mu = rng.standard_normal(num_questions)
    T = rng.exponential(0.5, size=(num_concepts, num_words))

    prob = inverse_logit(tau * (W @ C + mu[:, None]))
    y = (rng.random((num_questions, num_learners)) < prob).astype(np.int64)
    total = num_questions * num_learners
    n_drop = int(round(missing_fraction * total))
    if total - n_drop < 1:
        raise ValidationError("missing_fraction leaves no observed entries")
    observed = np.ones(total, dtype=bool)
    if n_drop:
        observed[rng.choice(total, size=n_drop, replace=False)] = False
    mask = observed.reshape(num_questions, num_learners)
    qi, lj = np.nonzero(mask)
    responses = GradedResponseSet(
        num_questions, num_learners, np.stack([qi, lj, y[qi, lj]], axis=1)
    )

    counts = rng.poisson(np.maximum(W @ T, epsilon))
    width = max(4, len(str(num_words)))
    vocab = [f"w{v + 1:0{width}d}" for v in range(num_words)]
    word_counts = WordCountMatrix(num_questions, vocab, counts)
    return responses, word_counts, FactorState(W, mu, C, T)


def question_labels(num_questions):
    width = max(4, len(str(num_questions)))
    return [f"q{i + 1:0{width}d}" for i in range(num_questions)]


def learner_labels(num_learners):
    width = max(4, len(str(num_learners)))
    return [f"s{j + 1:0{width}d}" for j in range(num_learners)]


def _write_csv(path, header, rows):
    """Write a header line and the rows as UTF-8 CSV with bare LF line ends."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path, check_header, read_rows):
    """Read a CSV file in one pass and return ``read_rows(lines, columns)``.

    ``columns`` holds one list of stripped fields per header column, a row
    per data row, and ``lines`` the physical line each row's record starts
    on, so a quoted field that spans lines moves the rows after it down.
    The file is read as UTF-8, a leading byte order mark dropped.
    ``check_header(header, path)`` gets the stripped header fields, None for
    an empty file, and raises DataFormatError to reject them. Blank rows are
    skipped but counted, and every other row must have as many fields as
    the header. ``read_rows`` gets the rows before the first one with the
    wrong field count, when there are any, and raises DataFormatError on the
    first faulty one; that row's own error comes only after it, so an error
    always names the first faulty row in file order. A file with no data
    rows gives None.
    """
    with Path(path).open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None:
            header = [h.strip() for h in header]
        check_header(header, path)
        lines, rows, wrong_width = [], [], None
        start = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) != len(header):
                    wrong_width = DataFormatError(
                        f"expected {len(header)} fields, got {len(row)}", path, (start,))
                    break
                lines.append(start)
                rows.append(row)
            start = reader.line_num + 1
    result = None
    if rows:
        # stripped a column at a time
        result = read_rows(lines, [list(map(str.strip, column)) for column in zip(*rows)])
    if wrong_width is not None:
        raise wrong_width
    return result


def _first_empty(*columns):
    """The index of the first row with an empty field in the columns, or None."""
    if not any("" in column for column in columns):
        return None
    return next(r for r, fields in enumerate(zip(*columns)) if "" in fields)


def _exact_header(names):
    """A ``_read_csv`` header check that accepts exactly the given columns."""
    def check(header, path):
        if header != names:
            raise DataFormatError(f"expected header '{','.join(names)}'", path, (1,))
    return check


def write_responses_csv(responses, question_ids, learner_ids, path):
    _write_csv(path, _RESPONSES_HEADER, (
        [question_ids[i], learner_ids[j], int(y)]
        for i, j, y in zip(
            responses.question_idx, responses.learner_idx, responses.grades
        )
    ))


def write_corpus_jsonl(word_counts, question_ids, path):
    """Emit a term-mode corpus whose counts reproduce the given matrix."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for i in range(word_counts.num_questions):
            terms = []
            for v, word in enumerate(word_counts.vocabulary):
                terms.extend([word] * int(word_counts.counts[i, v]))
            fh.write(
                json.dumps({"question_id": question_ids[i], "terms": terms}) + "\n"
            )


def read_grid_csv(path):
    """Parse a hyperparameter grid CSV with columns lambda,gamma,eta,tau,k.

    An optional epsilon column is honored; anything else is rejected.
    """
    path = Path(path)
    col = {}  # each column's index, filled in by the header check

    def check_header(header, path):
        if header is None:
            raise DataFormatError("empty grid file", path, (1,))
        try:
            _check_names("grid header", header)
        except ValidationError as exc:
            raise DataFormatError(str(exc), path, (1,)) from None
        allowed = set(_GRID_COLUMNS) | {"epsilon"}
        if set(header) - allowed or not set(_GRID_COLUMNS) <= set(header):
            raise DataFormatError(
                "grid header must be the columns lambda,gamma,eta,tau,k"
                " (epsilon optional)",
                path,
                (1,),
            )
        col.update((name, k) for k, name in enumerate(header))

    def read_rows(lines, columns):
        grid = []
        for line, row in zip(lines, zip(*columns)):
            try:
                params = HyperParams(
                    lam=float(row[col["lambda"]]),
                    gamma=float(row[col["gamma"]]),
                    eta=float(row[col["eta"]]),
                    tau=float(row[col["tau"]]),
                    num_concepts=int(row[col["k"]]),
                    epsilon=float(row[col["epsilon"]]) if "epsilon" in col else 1e-6,
                )
            except (ValueError, ValidationError) as exc:
                raise DataFormatError(f"bad grid row: {exc}", path, (line,))
            grid.append(params)
        return grid

    grid = _read_csv(path, check_header, read_rows)
    if grid is None:
        raise DataFormatError("grid file has no rows", path)
    return grid


def write_scores_csv(table, path):
    """Emit the cross-validation score table (the data behind a tau curve)."""
    _write_csv(path, ["lambda", "gamma", "eta", "tau", "mean_likelihood", "converged"], (
        [repr(row.params.lam), repr(row.params.gamma), repr(row.params.eta),
         repr(row.params.tau), "" if row.score is None else repr(row.score),
         str(row.converged).lower()]
        for row in table
    ))


def write_keywords_csv(summaries, path):
    _write_csv(path, ["concept", "rank", "word", "weight"], (
        [summary.concept_index, rank, word, repr(weight)]
        for summary in summaries
        for rank, (word, weight) in enumerate(summary.keywords, start=1)
    ))


def read_entries_csv(path):
    """Parse a prediction request CSV with header question_id,learner_id.

    Returns one (question_id, learner_id) tuple per data row, in file order,
    each id stripped of outer whitespace. Raises DataFormatError for a file
    with no data rows and for a row with an empty id.
    """
    path = Path(path)

    def read_rows(lines, columns):
        r = _first_empty(*columns)
        if r is not None:
            raise DataFormatError("empty question or learner id", path, (lines[r],))
        return list(zip(*columns))

    pairs = _read_csv(path, _exact_header(["question_id", "learner_id"]), read_rows)
    if pairs is None:
        raise DataFormatError("no data rows", path)
    return pairs


def write_predictions_csv(rows, path):
    """Write (question_id, learner_id, probability) rows as a predictions CSV.

    The header question_id,learner_id,probability comes first, then one
    line per row in input order, with bare LF line ends as ``_write_csv``
    writes them. Ids are strings, quoted as ``csv.writer`` quotes them;
    each probability is written as ``repr(float(p))``. Each distinct id is
    formatted once and the lines are written 512 at a time, with the bytes
    of a per-row ``csv.writer``.
    """
    rows = list(rows)
    question_ids, learner_ids, _ = zip(*rows) if rows else ((), (), ())
    distinct = list(dict.fromkeys(chain(question_ids, learner_ids)))
    formatted = []  # one line "<field>,\n" per distinct id
    writer = csv.writer(SimpleNamespace(write=formatted.append), lineterminator="\n")
    writer.writerows((x, "") for x in distinct)
    field = dict(zip(distinct, (line[:-2] for line in formatted)))
    lines = (f"{field[q]},{field[l]},{float(p)!r}\n" for q, l, p in rows)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write("question_id,learner_id,probability\n")
        # a few hundred lines per write: one string of the whole file, freed
        # after each call, made the heap shrink and grow again between calls
        while chunk := "".join(islice(lines, 512)):
            fh.write(chunk)
