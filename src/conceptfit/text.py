"""Question text to word counts: tokens, stop words, vocabulary, counting.

A document is either raw text (tokenized here) or a pre-split list of
terms, which passes through untouched; the latter supports tag-style
vocabularies where each term may contain spaces. No stemming: keyword
tables should show surface forms.

Each document is tokenized once per corpus: a ``Corpus`` counts its
documents' terms on first use and keeps the counts, which both
``build_vocabulary`` and ``count_matrix`` read.
"""

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import EmptyVocabularyError, ValidationError
from .model import WordCountMatrix, _check_count

__all__ = [
    "Corpus",
    "StopWordList",
    "tokenize",
    "document_tokens",
    "build_vocabulary",
    "count_matrix",
    "load_stop_words",
]

_TOKEN = re.compile(r"[^\W_]+")


def tokenize(text):
    """Lowercase, split on runs of non-alphanumerics, drop short and numeric tokens.

    Tokens shorter than two characters and pure numbers are noise at this
    corpus scale and are removed.
    """
    return [t for t in _TOKEN.findall(text.lower()) if len(t) >= 2 and not t.isdigit()]


def document_tokens(content):
    """Token stream for one document: tokenize raw text, pass term lists through."""
    if isinstance(content, str):
        return tokenize(content)
    return list(content)


@dataclass(frozen=True)
class StopWordList:
    """Words excluded from every vocabulary. All entries lowercase."""

    words: frozenset

    def __post_init__(self):
        for w in self.words:
            if not isinstance(w, str) or not w or w != w.lower():
                raise ValidationError(f"stop words must be nonempty lowercase: {w!r}")
        object.__setattr__(self, "words", frozenset(self.words))

    def __contains__(self, word):
        return word in self.words


def load_stop_words(path=None):
    """Read a stop-word file: one word per line, '#' starts a comment.

    Words are lowercased. With no path the packaged default list is used.
    """
    if path is None:
        text = resources.files("conceptfit").joinpath("data/stopwords.txt").read_text(
            encoding="utf-8"
        )
    else:
        text = Path(path).read_text(encoding="utf-8")
    words = set()
    for line in text.splitlines():
        word = line.split("#", 1)[0].strip().lower()
        if word:
            words.add(word)
    return StopWordList(frozenset(words))


@dataclass(frozen=True)
class Corpus:
    """One document per question: (question_id, text or term tuple) pairs.

    The per-document term counts are formed once, on first use, and kept
    for the corpus's life; the documents are immutable, so they cannot go
    stale.
    """

    documents: tuple

    def __post_init__(self):
        docs = []
        for entry in self.documents:
            qid, content = entry
            if not isinstance(qid, str) or not qid:
                raise ValidationError("question ids must be nonempty strings")
            if not isinstance(content, str):
                content = tuple(content)
                if any(not isinstance(t, str) or not t for t in content):
                    raise ValidationError(
                        f"terms for {qid!r} must be nonempty strings"
                    )
            docs.append((qid, content))
        ids = [qid for qid, _ in docs]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate question ids in corpus")
        object.__setattr__(self, "documents", tuple(docs))

    @property
    def question_ids(self):
        return [qid for qid, _ in self.documents]

    def __len__(self):
        return len(self.documents)

    @cached_property
    def _term_counts(self):
        """One ``Counter`` of ``document_tokens`` per document, in corpus order."""
        return tuple(Counter(document_tokens(content)) for _, content in self.documents)


def build_vocabulary(corpus, stop_words, min_count=1):
    """All corpus tokens minus stop words and words rarer than min_count.

    Ordered by descending total count, ties broken lexicographically, so
    the result is deterministic.
    """
    _check_count("min_count", min_count, 1)
    totals = Counter()
    for terms in corpus._term_counts:
        totals.update(terms)
    items = [
        (word, count)
        for word, count in totals.items()
        if count >= min_count and word not in stop_words
    ]
    if not items:
        raise EmptyVocabularyError(
            "no vocabulary left after stop-word and min-count filtering"
        )
    items.sort(key=lambda wc: (-wc[1], wc[0]))
    return [word for word, _ in items]


def count_matrix(corpus, vocabulary):
    """Occurrence counts of each vocabulary word per document, in corpus order.

    Out-of-vocabulary tokens are ignored. The caller is responsible for
    ordering the corpus consistently with the response set's question
    indexing. It reads the corpus's kept term counts, so no document is
    tokenized twice, and writes each row in one assignment.
    """
    index = {word: v for v, word in enumerate(vocabulary)}
    counts = np.zeros((len(corpus.documents), len(vocabulary)), dtype=np.int64)
    for row, terms in enumerate(corpus._term_counts):
        hits = [(index[word], n) for word, n in terms.items() if word in index]
        if hits:
            columns, values = zip(*hits)
            counts[row, list(columns)] = values
    return WordCountMatrix(len(corpus.documents), list(vocabulary), counts)
