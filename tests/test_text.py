import re
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conceptfit.text
from conceptfit import (
    Corpus,
    EmptyVocabularyError,
    StopWordList,
    ValidationError,
    build_vocabulary,
    count_matrix,
    load_stop_words,
    tokenize,
)
from conceptfit.text import document_tokens

# raw text over letters, digits and separators, so that tokenizing splits,
# drops short and numeric tokens and folds case; terms may hold spaces
RAW_TEXT = st.text(alphabet="abAB1 _-.,", max_size=30)
TERMS = st.lists(st.text(alphabet="ab c", min_size=1, max_size=4), max_size=8)
# any text, weighted towards letters, digits, "_", ASCII punctuation and
# control characters, and characters beyond ASCII, among them the Kelvin
# sign, which lowercases to the ASCII "k"
ANY_TEXT = st.text(st.one_of(st.characters(max_codepoint=127),
                             st.sampled_from("aZ9_-.\t\x00\x7f\u212a\u0130\u00c9\u00df\u0663"),
                             st.characters()), max_size=40)
# term documents whose terms tokenizing would drop: one character, all digits
SHORT_TERMS = st.lists(st.text(alphabet="ab1 ", min_size=1, max_size=3), max_size=8)


def reference_tokenize(text):
    return [t for t in re.findall(r"[^\W_]+", text.lower())
            if len(t) >= 2 and not t.isdigit()]


class TestTokenize:
    def test_case_folding_and_punctuation(self):
        assert tokenize("Water boils. WATER freezes!") == [
            "water", "boils", "water", "freezes",
        ]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_short_and_numeric_tokens_dropped(self):
        # "a" too short, "42" numeric, "x" too short after splitting on '-'
        assert tokenize("a 42 x-ray") == ["ray"]

    def test_underscore_splits(self):
        assert tokenize("heat_transfer") == ["heat", "transfer"]

    def test_mixed_alphanumeric_kept(self):
        assert tokenize("co2 rises") == ["co2", "rises"]

    @given(ANY_TEXT)
    @example("\u212aelvin 42 x_y")  # the Kelvin sign: ASCII once lowercased
    @example("Caf\u00e9 CAF\u00c9-au_lait 7\u0663")
    @example("a\x1cbc\x00de\x7fgh\u3000ij")
    def test_tokens_are_the_regular_expression_runs(self, text):
        assert tokenize(text) == reference_tokenize(text)


class TestStopWords:
    def test_default_list_has_common_words(self):
        stops = load_stop_words()
        for w in ("the", "and", "in"):
            assert w in stops

    def test_file_parsing_with_comments(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("# a comment\nThe\n\nand # trailing note\n", encoding="utf-8")
        stops = load_stop_words(path)
        assert stops.words == frozenset({"the", "and"})

    def test_rejects_uppercase_entries(self):
        with pytest.raises(ValidationError):
            StopWordList(frozenset({"The"}))


class TestBuildVocabulary:
    def test_stop_word_removed(self):
        corpus = Corpus((("q1", "the water"),))
        vocab = build_vocabulary(corpus, StopWordList(frozenset({"the"})), 1)
        assert vocab == ["water"]

    def test_min_count_can_empty_vocabulary(self):
        corpus = Corpus((("q1", "water heat"),))
        with pytest.raises(EmptyVocabularyError):
            build_vocabulary(corpus, StopWordList(frozenset()), min_count=2)

    def test_equal_counts_break_lexicographically(self):
        corpus = Corpus((("q1", "zinc apple zinc apple"),))
        vocab = build_vocabulary(corpus, StopWordList(frozenset()), 1)
        assert vocab == ["apple", "zinc"]

    def test_ordered_by_descending_count(self):
        corpus = Corpus((("q1", "heat heat water"), ("q2", "heat water soil")))
        vocab = build_vocabulary(corpus, StopWordList(frozenset()), 1)
        assert vocab == ["heat", "water", "soil"]

    def test_term_documents_pass_through(self):
        # tag mode: multiword terms survive as single vocabulary entries
        corpus = Corpus((("q1", ("solving equations", "slope")),))
        vocab = build_vocabulary(corpus, StopWordList(frozenset()), 1)
        assert vocab == ["slope", "solving equations"]

    def test_no_stop_word_survives(self):
        stops = load_stop_words()
        corpus = Corpus(
            (("q1", "the water and the heat"), ("q2", "in a sample of soil")),
        )
        vocab = build_vocabulary(corpus, stops, 1)
        assert not set(vocab) & stops.words

    def test_determinism(self):
        corpus = Corpus((("q1", "water heat water"), ("q2", "soil heat")))
        stops = StopWordList(frozenset())
        assert build_vocabulary(corpus, stops, 1) == build_vocabulary(corpus, stops, 1)

    @settings(deadline=None)
    @given(st.lists(st.one_of(RAW_TEXT, SHORT_TERMS), min_size=1, max_size=6),
           st.sets(st.sampled_from(["ab", "ba", "a", "1", "a b"])), st.integers(1, 4))
    def test_vocabulary_equals_a_counter_oracle(self, contents, stops, min_count):
        corpus = Corpus(tuple((f"q{i}", c) for i, c in enumerate(contents)))
        totals = Counter(t for c in contents for t in document_tokens(c))
        kept = [(word, n) for word, n in totals.items()
                if n >= min_count and word not in stops]
        # by descending count, equal counts in lexicographic order
        expected = [word for word, _ in sorted(kept, key=lambda wn: (-wn[1], wn[0]))]
        stop_list = StopWordList(frozenset(stops))
        if not expected:
            with pytest.raises(EmptyVocabularyError):
                build_vocabulary(corpus, stop_list, min_count)
            return
        assert build_vocabulary(corpus, stop_list, min_count) == expected


class TestCountMatrix:
    def test_counts_row(self):
        corpus = Corpus((("q1", "water water heat"),))
        counts = count_matrix(corpus, ["water", "heat"])
        assert counts.counts.tolist() == [[2, 1]]

    def test_empty_document_gives_zero_row(self):
        corpus = Corpus((("q1", "water"), ("q2", "")))
        counts = count_matrix(corpus, ["water"])
        assert counts.counts.tolist() == [[1], [0]]

    def test_out_of_vocabulary_ignored(self):
        corpus = Corpus((("q1", "water plasma"),))
        counts = count_matrix(corpus, ["water"])
        assert counts.counts.tolist() == [[1]]

    def test_total_equals_in_vocabulary_token_count(self, rng):
        words = [f"word{k:02d}" for k in range(20)]
        docs = []
        expected_total = 0
        for i in range(15):
            chosen = rng.choice(words, size=rng.integers(0, 30))
            expected_total += len(chosen)
            docs.append((f"q{i}", " ".join(chosen)))
        corpus = Corpus(tuple(docs))
        counts = count_matrix(corpus, words)
        assert int(counts.counts.sum()) == expected_total
        # row sums match per-document token counts
        for row, (_, text) in zip(counts.counts, corpus.documents):
            assert int(row.sum()) == len(text.split()) if text else True

    def test_each_document_is_tokenized_once(self, monkeypatch):
        calls = []
        real = conceptfit.text.tokenize
        monkeypatch.setattr(conceptfit.text, "tokenize",
                            lambda text: calls.append(text) or real(text))
        texts = ("water heat water", "soil heat", "")
        corpus = Corpus(tuple((f"q{i}", text) for i, text in enumerate(texts)))
        vocab = build_vocabulary(corpus, StopWordList(frozenset()), 1)
        count_matrix(corpus, vocab)
        assert sorted(calls) == sorted(texts)

    @settings(deadline=None)
    @given(st.lists(st.one_of(RAW_TEXT, TERMS), min_size=1, max_size=6), st.data())
    def test_counts_equal_a_per_token_count(self, contents, data):
        corpus = Corpus(tuple((f"q{i}", c) for i, c in enumerate(contents)))
        seen = sorted({t for c in contents for t in document_tokens(c)})
        # words from the corpus and words it lacks, in any order
        vocab = data.draw(st.lists(st.sampled_from(seen + ["absent", "zz z"]),
                                   unique=True).flatmap(st.permutations))
        oracle = [Counter(document_tokens(c)) for c in contents]
        expected = [[tokens[word] for word in vocab] for tokens in oracle]
        assert count_matrix(corpus, vocab).counts.tolist() == expected

    def test_corpus_scale_performance(self, rng):
        words = [f"term{k:03d}" for k in range(400)]
        docs = tuple(
            (f"q{i}", " ".join(rng.choice(words, size=60)))
            for i in range(300)
        )
        corpus = Corpus(docs)
        start = time.perf_counter()
        vocab = build_vocabulary(corpus, load_stop_words(), 1)
        count_matrix(corpus, vocab)
        assert time.perf_counter() - start < 1.0


class TestCorpusType:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            Corpus((("q1", "a"), ("q1", "b")))

    def test_empty_terms_rejected(self):
        with pytest.raises(ValidationError):
            Corpus((("q1", ("ok", "")),))
