r"""Question text to word counts: tokens, stop words, vocabulary, counting.

A document is either raw text (tokenized here) or a pre-split list of
terms, which passes through untouched; the latter supports tag-style
vocabularies where each term may contain spaces. No stemming: keyword
tables should show surface forms.

Raw text is split into the maximal runs of letters and digits, the
regular expression ``[^\W_]+`` over the lowercased text. Text that is ASCII
once lowercased takes a faster route to the same tokens: one ``translate``
maps every ASCII character that is not a letter or digit to a space and
``split`` cuts at the spaces. Over ASCII the expression's letters and digits
are exactly the characters for which ``str.isalnum`` holds, so both routes
give the same runs.

Each document is tokenized once per corpus: a ``Corpus`` counts its
documents' terms on first use, gives each distinct term an integer id and
keeps the nonzero (document, term, count) triples as arrays, which both
``build_vocabulary`` and ``count_matrix`` read.
"""

import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import EmptyVocabularyError, ValidationError
from .model import WordCountMatrix, _check_count, _check_names

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
# every ASCII character that is not a letter or digit, to a space
_ASCII_SEPARATORS = str.maketrans(
    {c: " " for c in map(chr, range(128)) if not c.isalnum()})


def tokenize(text):
    r"""Lowercase, split on runs of non-alphanumerics, drop short and numeric tokens.

    The tokens are the maximal runs matched by ``[^\W_]+`` in the lowercased
    text. If that text is ASCII they come from one ``translate`` of every
    other character to a space and a ``split``, which gives the same runs,
    since an ASCII character is a letter or digit to the expression exactly
    when ``str.isalnum`` holds; other text is matched by the expression.
    Tokens shorter than two characters and pure numbers are noise at this
    corpus scale and are removed.
    """
    text = text.lower()
    if text.isascii():
        tokens = text.translate(_ASCII_SEPARATORS).split()
    else:
        tokens = _TOKEN.findall(text)
    return [t for t in tokens if len(t) >= 2 and not t.isdigit()]


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


class _TermCounts(NamedTuple):
    """A corpus's nonzero (document, term, count) triples, terms by id.

    ``terms[i]`` is the term of id i, in order of first occurrence;
    ``document``, ``term`` and ``count`` are the triples' int64 arrays,
    sorted by document and then by term id.
    """

    terms: list
    document: np.ndarray
    term: np.ndarray
    count: np.ndarray


@dataclass(frozen=True)
class Corpus:
    """One document per question: (question_id, text or term tuple) pairs.

    Owns the rules of its documents: the question ids distinct nonempty
    strings (``_check_names``), and each document a string of text or an
    iterable of nonempty string terms, kept as a tuple. The term counts are
    formed once, on first use, and kept for the corpus's life; the
    documents are immutable, so they cannot go stale.
    """

    documents: tuple

    def __post_init__(self):
        docs = tuple((qid, content if isinstance(content, str) else tuple(content))
                     for qid, content in self.documents)
        _check_names("question_ids", [qid for qid, _ in docs])
        for qid, content in docs:
            if not isinstance(content, str) and (
                    not all(map(isinstance, content, repeat(str))) or "" in content):
                raise ValidationError(f"terms for {qid!r} must be nonempty strings")
        object.__setattr__(self, "documents", docs)

    @property
    def question_ids(self):
        return [qid for qid, _ in self.documents]

    def __len__(self):
        return len(self.documents)

    @cached_property
    def _term_counts(self):
        """The ``_TermCounts`` of every document's ``document_tokens``."""
        streams = [document_tokens(content) for _, content in self.documents]
        tokens = list(chain.from_iterable(streams))
        terms = list(dict.fromkeys(tokens))
        ids = {term: i for i, term in enumerate(terms)}
        term = np.fromiter(map(ids.__getitem__, tokens), np.int64, len(tokens))
        lengths = np.fromiter(map(len, streams), np.int64, len(streams))
        # one key per token, document * width + term id, counted by np.unique;
        # a corpus without tokens still divides by 1
        width = max(len(terms), 1)
        keys = np.repeat(np.arange(len(streams), dtype=np.int64) * width, lengths) + term
        keys, count = np.unique(keys, return_counts=True)
        document, term = np.divmod(keys, width)
        return _TermCounts(terms, document, term, count)


def build_vocabulary(corpus, stop_words, min_count=1):
    """All corpus tokens minus stop words and words rarer than min_count.

    Ordered by descending total count, ties broken lexicographically, so
    the result is deterministic.
    """
    _check_count("min_count", min_count, 1)
    terms, _, term, count = corpus._term_counts
    totals = np.bincount(term, count, len(terms)).astype(np.int64).tolist()
    items = [
        (word, total)
        for word, total in zip(terms, totals)
        if total >= min_count and word not in stop_words
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
    tokenized twice, and scatters every counted vocabulary word in one
    assignment.
    """
    terms, document, term, count = corpus._term_counts
    index = {word: v for v, word in enumerate(vocabulary)}
    column = np.array([index.get(t, -1) for t in terms], dtype=np.int64)[term]
    hit = column >= 0
    counts = np.zeros((len(corpus.documents), len(vocabulary)), dtype=np.int64)
    counts[document[hit], column[hit]] = count[hit]
    return WordCountMatrix(len(corpus.documents), list(vocabulary), counts)
