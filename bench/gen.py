"""Input generator: draws each workload's datasets from numpy and writes files.

    python3 bench/gen.py --workload canonical --seed 7 --out DIR

For each fitted dataset ``d`` it writes into ``DIR/d<d>/``:

- ``grades.csv``: ``question_id,learner_id,grade`` rows, question-major;
- ``corpus.jsonl``: one document per question, a ``terms`` list or, for raw
  text workloads, a ``text`` string;
- ``pairs.csv``: the ``question_id,learner_id`` batch for ``predict``;
- ``truth.npz``: the generating factors and counts, read only by the
  benchmark's checks.

The generative model is the paper's: each question loads on ``SPARSITY``
concepts with exponential(1) weights, knowledge and difficulties are
standard normal, word profiles are exponential(mean 0.5), grades are
Bernoulli through the tau-scaled logit and counts are Poisson at the
epsilon-floored rates. It is written here from the formulas, apart from
``conceptfit.io.simulate``.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from workloads import NUM_CONCEPTS, SPARSITY, TAU, WORKLOADS, data_seed, surface_seed

EPSILON = 1e-6
ROOT = Path(__file__).resolve().parent.parent
STOP_WORDS_FILE = ROOT / "src" / "conceptfit" / "data" / "stopwords.txt"

_ONSETS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_NOISE_SEPARATORS = (" ", " ", " ", ", ", ". ", "; ", " - ", "\n", "! ", " (", ") ",
                     "_", "/", ": ", "? ")


def read_stop_words():
    words = []
    for line in STOP_WORDS_FILE.read_text(encoding="utf-8").splitlines():
        word = line.split("#", 1)[0].strip().lower()
        if word:
            words.append(word)
    return sorted(set(words))


def pseudo_words(count, stop_words):
    """``count`` distinct letter-only words, none of them a stop word."""
    stops = set(stop_words)
    words = []
    n = 0
    while len(words) < count:
        parts, k = [], n
        for _ in range(3):
            parts.append(_ONSETS[k % len(_ONSETS)] + _VOWELS[(k // len(_ONSETS)) % 5])
            k //= len(_ONSETS) * 5
        word = "".join(parts) + _ONSETS[n % 7]
        n += 1
        if word not in stops and word not in words:
            words.append(word)
    return words


def draw_dataset(w, dataset):
    """Factors, grades, observation pattern and counts of one dataset."""
    rng = np.random.default_rng(data_seed(w, dataset))
    Q, N, V, K = w.num_questions, w.num_learners, w.num_words, NUM_CONCEPTS
    W = np.zeros((Q, K))
    for i in range(Q):
        support = rng.choice(K, size=SPARSITY, replace=False)
        W[i, support] = rng.exponential(1.0, size=SPARSITY)
    C = rng.standard_normal((K, N))
    mu = rng.standard_normal(Q)
    T = rng.exponential(0.5, size=(K, V))
    z = TAU * (W @ C + mu[:, None])
    prob = np.exp(-np.logaddexp(0.0, -z))
    y = (rng.random((Q, N)) < prob).astype(np.int64)
    if w.answered:
        observed = np.zeros((Q, N), dtype=bool)
        for j in range(N):
            observed[rng.choice(Q, size=w.answered, replace=False), j] = True
    else:
        n_obs = int(round(w.observed_fraction * Q * N))
        observed = np.zeros(Q * N, dtype=bool)
        observed[rng.choice(Q * N, size=n_obs, replace=False)] = True
        observed = observed.reshape(Q, N)
    counts = rng.poisson(np.maximum(W @ T, EPSILON))
    if not (observed.any(axis=0).all() and observed.any(axis=1).all()):
        raise ValueError(f"{w.name} d{dataset}: a question or learner has no grade")
    return W, mu, C, T, y, observed, counts


def render_raw(terms, rng, stop_words):
    """Raw text whose tokenization yields exactly ``terms`` plus dropped noise.

    Words come in lower, title or upper case; between them sit separators,
    packaged stop words, pure numbers and single letters, all of which the
    tokenizer or the stop list removes.
    """
    pieces = []
    for term in terms:
        case = rng.integers(3)
        pieces.append(term if case == 0 else term.title() if case == 1 else term.upper())
        pieces.append(_NOISE_SEPARATORS[rng.integers(len(_NOISE_SEPARATORS))])
        noise = rng.random()
        if noise < 0.35:
            stop = stop_words[rng.integers(len(stop_words))]
            pieces.append(stop.title() if rng.random() < 0.3 else stop)
            pieces.append(" ")
        elif noise < 0.45:
            pieces.append(str(int(rng.integers(0, 3000))))
            pieces.append(", ")
        elif noise < 0.5:
            pieces.append("xyz"[rng.integers(3)])
            pieces.append(" ")
    return "".join(pieces).rstrip()


def write_dataset(w, dataset, run_seed, out, stop_words, vocab):
    W, mu, C, T, y, observed, counts = draw_dataset(w, dataset)
    rng = np.random.default_rng(surface_seed(w, dataset, run_seed))
    Q, N = y.shape
    qids = [f"q{i + 1:04d}" for i in range(Q)]
    lids = [f"s{j + 1:05d}" for j in range(N)]
    out.mkdir(parents=True, exist_ok=True)

    qi, lj = np.nonzero(observed)
    with (out / "grades.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["question_id", "learner_id", "grade"])
        for i, j in zip(qi, lj):
            writer.writerow([qids[i], lids[j], int(y[i, j])])

    with (out / "corpus.jsonl").open("w", encoding="utf-8") as fh:
        for i in range(Q):
            terms = np.repeat(np.array(vocab, dtype=object), counts[i]).tolist()
            terms = [terms[k] for k in rng.permutation(len(terms))]
            if w.raw_text:
                doc = {"question_id": qids[i], "text": render_raw(terms, rng, stop_words)}
            else:
                doc = {"question_id": qids[i], "terms": terms}
            fh.write(json.dumps(doc) + "\n")

    pi = rng.integers(0, Q, size=w.pairs)
    pj = rng.integers(0, N, size=w.pairs)
    with (out / "pairs.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["question_id", "learner_id"])
        for i, j in zip(pi, pj):
            writer.writerow([qids[i], lids[j]])

    np.savez(
        out / "truth.npz", W=W, mu=mu, C=C, T=T, y=y, observed=observed,
        counts=counts, vocab=np.array(vocab), qids=np.array(qids),
        lids=np.array(lids),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    stop_words = read_stop_words()
    vocab = pseudo_words(w.num_words, stop_words)
    for d in range(w.datasets):
        write_dataset(w, d, args.seed, Path(args.out) / f"d{d}", stop_words, vocab)
    return 0


if __name__ == "__main__":
    sys.exit(main())
