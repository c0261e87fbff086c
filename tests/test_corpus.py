import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kgvec.corpus
from kgvec.corpus import (
    NEGATIVE_TABLE_SIZE,
    PhraseIndex,
    Vocabulary,
    build_negative_table,
    build_vocabulary,
    context_pair_arrays,
    load_phrase_lexicon,
    merge_phrases,
    normalize_token,
    tokenize,
)
from kgvec.errors import DegenerateDistributionError, EmptyCorpusError, ParseError
from oracles import ContextPair, longest_match_merge, stream_context_pairs


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("The Cat  sat") == ["the", "cat", "sat"]

    def test_edge_punctuation_stripped(self):
        assert tokenize("(hello), world!") == ["hello", "world"]

    def test_interior_punctuation_kept(self):
        assert tokenize("don't stop-go") == ["don't", "stop-go"]

    def test_underscore_is_a_separator(self):
        # guarantees no base token ever contains the phrase separator
        assert tokenize("new_york x") == ["new", "york", "x"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("... -- !!") == []

    def test_normalize_token_keeps_interior_underscore(self):
        assert normalize_token("New_York,") == "new_york"


class TestMergePhrases:
    def test_longest_match_wins(self):
        lex = PhraseIndex([("john", "f", "kennedy"), ("john", "f")])
        assert merge_phrases(["john", "f", "kennedy", "died"], lex) == [
            "john_f_kennedy",
            "died",
        ]

    def test_empty_lexicon_is_identity(self):
        toks = ["a", "b", "c"]
        assert merge_phrases(toks, PhraseIndex()) == toks

    def test_repeated_phrase(self):
        lex = PhraseIndex([("a", "b")])
        assert merge_phrases(["a", "b", "a", "b"], lex) == ["a_b", "a_b"]

    def test_shorter_entry_used_when_longer_fails(self):
        lex = PhraseIndex([("john", "f", "kennedy"), ("john", "f")])
        assert merge_phrases(["john", "f", "x"], lex) == ["john_f", "x"]

    # Some words are others run together, so a merge that lost its
    # separator would make tokens a second pass could merge again.
    WORDS = st.sampled_from(["a", "b", "c", "ab", "bc", "abc"])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        toks=st.lists(WORDS, max_size=30),
        lex=st.lists(st.lists(WORDS, min_size=1, max_size=4).map(tuple), max_size=6),
    )
    @example(toks=["a", "b", "c"], lex=[("a", "b"), ("ab", "c")])
    def test_idempotent_on_random_sequences(self, toks, lex):
        """Merging a merged sequence again changes nothing, and the indexed
        merge is the brute-force longest match."""
        index = PhraseIndex(lex)
        once = merge_phrases(toks, index)
        assert once == longest_match_merge(toks, lex)
        assert merge_phrases(once, index) == once
        assert len(once) <= len(toks)

    @pytest.mark.parametrize("entry", [(), tuple("abcdefghi")], ids=["0-words", "9-words"])
    def test_index_rejects_entry_length(self, entry):
        with pytest.raises(ValueError, match="1..8 words"):
            PhraseIndex([("a", "b"), entry])

    def test_index_length_counts_entries(self):
        assert len(PhraseIndex()) == 0
        assert len(PhraseIndex([("a", "b"), ("a",), ("c", "d", "e")])) == 3
        assert len(PhraseIndex([("a", "b"), ["a", "b"], ("a",)])) == 2

    def test_index_matches_brute_force_longest_match(self):
        # Overlapping ("a b" / "b c") and nested ("a" / "a b" / "a b c")
        # entries, one index reused across every stream.
        rng = np.random.default_rng(11)
        words = list("abcde")
        lex = [("a", "b"), ("b", "c"), ("a",), ("a", "b", "c"), ("c", "d", "e", "a"),
               ("e", "e"), ("d",)]
        index = PhraseIndex(lex)
        for _ in range(200):
            toks = [words[i] for i in rng.integers(0, len(words), size=int(rng.integers(0, 25)))]
            assert merge_phrases(toks, index) == longest_match_merge(toks, lex)


class TestBuildVocabulary:
    def test_min_count_boundary(self):
        vocab = build_vocabulary("a a a b", min_count=2)
        assert vocab.tokens == ["a"]
        assert vocab.counts.tolist() == [3]

    def test_phrase_merge_then_count(self):
        vocab = build_vocabulary(
            "new york is big", min_count=1, phrase_lexicon=PhraseIndex([("new", "york")])
        )
        assert dict(zip(vocab.tokens, vocab.counts.tolist())) == {
            "new_york": 1,
            "is": 1,
            "big": 1,
        }

    def test_digit_only_tokens_removed(self):
        vocab = build_vocabulary("12 cats 12", min_count=1)
        assert dict(zip(vocab.tokens, vocab.counts.tolist())) == {"cats": 1}

    def test_lexicon_entry_absent_from_corpus_gets_count_zero(self):
        vocab = build_vocabulary(
            "plain words here",
            min_count=1,
            phrase_lexicon=PhraseIndex([("missing", "entity")]),
        )
        assert "missing_entity" in vocab
        assert vocab.counts[vocab.index["missing_entity"]] == 0

    def test_lexicon_entry_below_min_count_zeroed(self):
        vocab = build_vocabulary(
            "rare name rare name common common common",
            min_count=3,
            phrase_lexicon=PhraseIndex([("rare", "name")]),
        )
        assert vocab.counts[vocab.index["rare_name"]] == 0
        assert vocab.counts[vocab.index["common"]] == 3

    def test_digit_only_lexicon_entry_gets_count_zero(self):
        """A digit-only entry is kept at count 0 even when it reaches
        ``min_count``; an ordinary entry next to it keeps its count."""
        vocab = build_vocabulary(
            "1999 was new york 1999 new york",
            min_count=2,
            phrase_lexicon=PhraseIndex([("1999",), ("new", "york")]),
        )
        assert dict(zip(vocab.tokens, vocab.counts.tolist())) == {
            "new_york": 2,
            "1999": 0,
        }

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpusError):
            build_vocabulary("", min_count=1)

    def test_bad_min_count_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary("a", min_count=0)

    def test_index_is_bijection(self):
        vocab = build_vocabulary("b a c a b a", min_count=1)
        assert sorted(vocab.index.values()) == list(range(len(vocab)))
        for tok, i in vocab.index.items():
            assert vocab.tokens[i] == tok

    def test_accepts_line_iterables(self):
        vocab = build_vocabulary(iter(["a a\n", "a b\n"]), min_count=1)
        assert vocab.counts[vocab.index["a"]] == 3

    def test_prebuilt_index_gives_the_same_vocabulary(self):
        """The vocabulary counts what the brute-force longest match merges;
        every lexicon entry is kept, below ``min_count`` at count 0."""
        text = "new york is new and old york is old new york\n" * 3
        lex = [("new", "york"), ("old",), ("old", "york"), ("is", "new")]
        vocab = build_vocabulary(text, min_count=4, phrase_lexicon=PhraseIndex(lex))
        merged = Counter(t for line in text.splitlines()
                         for t in longest_match_merge(tokenize(line), lex))
        want = {t: c for t, c in merged.items() if c >= 4}
        want.update({t: 0 for t in ("_".join(e) for e in lex) if merged[t] < 4})
        assert dict(zip(vocab.tokens, vocab.counts.tolist())) == want
        assert want["is_new"] == 0 and want["new_york"] == 6


class TestVocabularyFile:
    def test_round_trip_preserves_order_counts_indices(self, tmp_path):
        vocab = build_vocabulary(
            "the cat sat on the mat the cat",
            min_count=1,
            phrase_lexicon=PhraseIndex([("red", "cat")]),
        )
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.counts.tolist() == vocab.counts.tolist()
        assert loaded.index == vocab.index

    def test_header_line(self, tmp_path):
        vocab = build_vocabulary("a b a", min_count=1)
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        assert path.read_text().splitlines()[0] == f"#vocab {len(vocab)}"

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("nonsense\n")
        with pytest.raises(ParseError):
            Vocabulary.load(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("#vocab x\na\t1\n", "line 1: bad vocabulary size"),
            ("\n#vocab 1\na\t1\n", "line 1: expected '#vocab <size>' header"),
            ("", "line 1: expected '#vocab <size>' header"),
        ],
        ids=["size-not-an-integer", "header-on-line-2", "empty-file"],
    )
    def test_bad_header_names_line_1(self, tmp_path, text, message):
        path = tmp_path / "vocab.tsv"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{path}: {message}")):
            Vocabulary.load(path)

    def test_size_mismatch_raises(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("#vocab 3\na\t1\n")
        with pytest.raises(ParseError):
            Vocabulary.load(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("foo\t3\nfoo\t2\n", "line 3: duplicate token 'foo'"),
            ("foo\t3\nbar\t99999999999999999999999\n", "line 3: bad count"),
            ("foo\t3\nbar\t-4\n", "line 3: bad count '-4'"),
            ("foo\t3\n\t2\n", "line 3: token '' is empty or holds whitespace"),
            ("foo\t3\nnew york\t3\n", "line 3: token 'new york' is empty or holds whitespace"),
        ],
        ids=["duplicate-token", "count-beyond-int64", "negative-count", "empty-token",
             "spaced-token"],
    )
    def test_bad_entry_names_its_line(self, tmp_path, body, message):
        path = tmp_path / "vocab.tsv"
        path.write_text("#vocab 2\n" + body)
        with pytest.raises(ParseError, match=re.escape(f"{path}: {message}")):
            Vocabulary.load(path)

    def test_token_beyond_the_phrase_limit_names_its_line(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        longest = "_".join("abcdefgh")  # MAX_PHRASE_WORDS words
        path.write_text(f"#vocab 2\n{longest}\t3\n{longest}_i\t2\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}: line 3: token longer")):
            Vocabulary.load(path)
        path.write_text(f"#vocab 1\n{longest}\t3\n")
        assert Vocabulary.load(path).tokens == [longest]

    @pytest.mark.parametrize(
        "tokens, counts, message",
        [
            (["a", "b"], [1], "length mismatch"),
            (["a", "a"], [1, 1], "duplicate tokens"),
            (["a", ""], [1, 1], "token '' is empty or holds whitespace"),
            (["a", "b c"], [1, 1], "token 'b c' is empty or holds whitespace"),
        ],
        ids=["length-mismatch", "duplicate-token", "empty-token", "spaced-token"],
    )
    def test_inconsistent_tokens_rejected(self, tokens, counts, message):
        with pytest.raises(ValueError, match=message):
            Vocabulary(tokens, np.array(counts))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative token count"):
            Vocabulary(["a", "b"], np.array([1, -1]))


class TestPhraseLexiconFile:
    def test_load_and_normalize(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("New York\nJohn F Kennedy\nNew York\n")
        assert load_phrase_lexicon(path).entries == [
            ("new", "york"),
            ("john", "f", "kennedy"),
        ]

    def test_too_long_entry_raises(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("a b c d e f g h i\n")
        with pytest.raises(ParseError):
            load_phrase_lexicon(path)


def smoothed_probabilities(counts):
    """count^0.75 over its sum: word2vec's noise distribution."""
    weights = np.asarray(counts, dtype=np.float64) ** 0.75
    return weights / weights.sum()


class TestNegativeTable:
    @pytest.mark.parametrize(
        "counts", [[8, 1], [100, 40, 7, 1, 0], [3] * 7], ids=["two", "with-zero", "equal"]
    )
    def test_cell_shares_match_smoothed_counts(self, counts):
        table = build_negative_table(Vocabulary(list("abcdefg")[: len(counts)], counts))
        assert table.dtype == np.int64 and len(table) == NEGATIVE_TABLE_SIZE
        shares = np.bincount(table, minlength=len(counts)) / len(table)
        assert np.all(np.abs(shares - smoothed_probabilities(counts)) <= 1 / len(table))

    def test_power_smoothing_closed_form(self):
        table = build_negative_table(Vocabulary(["a", "b"], np.array([8, 1])))
        expected = 8**0.75 / (8**0.75 + 1)
        assert np.mean(table == 0) == pytest.approx(expected, abs=1 / len(table))
        assert expected == pytest.approx(0.8262, abs=1e-4)

    def test_zero_count_excluded(self):
        table = build_negative_table(Vocabulary(["a", "b"], np.array([5, 0])))
        assert np.all(table == 0)

    def test_all_zero_counts_degenerate(self):
        vocab = Vocabulary(["a", "b"], np.array([0, 0]))
        with pytest.raises(DegenerateDistributionError):
            build_negative_table(vocab)

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="vocabulary is empty"):
            build_negative_table(Vocabulary([], np.array([], dtype=np.int64)))

    def test_table_size_must_cover_vocab(self, monkeypatch):
        monkeypatch.setattr(kgvec.corpus, "NEGATIVE_TABLE_SIZE", 2)
        vocab = Vocabulary(["a", "b", "c"], np.array([1, 1, 1]))
        with pytest.raises(ValueError, match="larger than the negative table"):
            build_negative_table(vocab)

    def test_empirical_frequencies_within_3_sigma(self):
        rng = np.random.default_rng(11)
        counts = np.array([100, 40, 7, 1, 0])
        table = build_negative_table(Vocabulary(list("abcde"), counts))
        n = 1_000_000
        draws = table[rng.integers(0, len(table), n)]
        freq = np.bincount(draws, minlength=len(counts)) / n
        p = smoothed_probabilities(counts)
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) <= 3 * sigma + 1e-12)


def brute_force_pairs(tokens, vocab, window):
    """Independent oracle: filter OOV, then enumerate every |j| <= window."""
    ids = [vocab.index[t] for t in tokens if t in vocab.index]
    pairs = []
    for k in range(len(ids)):
        for j in range(len(ids)):
            if j != k and abs(j - k) <= window:
                pairs.append((ids[k], ids[j], k))
    return pairs


class TestContextPairs:
    def _vocab(self, letters="abcdefghij"):
        return Vocabulary(list(letters), np.ones(len(letters), dtype=np.int64))

    def test_three_token_enumeration(self):
        vocab = self._vocab("abc")
        got = [
            (p.center, p.context)
            for p in stream_context_pairs(["a", "b", "c"], vocab, window=1)
        ]
        ia, ib, ic = (vocab.index[t] for t in "abc")
        assert got == [(ia, ib), (ib, ia), (ib, ic), (ic, ib)]

    def test_single_token_no_pairs(self):
        vocab = self._vocab("a")
        for window in (1, 3, 10):
            assert list(stream_context_pairs(["a"], vocab, window)) == []

    def test_oov_removed_before_windowing(self):
        vocab = self._vocab("ab")
        got = [
            (p.center, p.context)
            for p in stream_context_pairs(["a", "x", "b"], vocab, window=1)
        ]
        ia, ib = vocab.index["a"], vocab.index["b"]
        assert got == [(ia, ib), (ib, ia)]

    def test_pair_positions_within_window(self):
        vocab = self._vocab()
        pairs = list(stream_context_pairs(list("abcabca"), vocab, window=2))
        assert all(isinstance(p, ContextPair) for p in pairs)

    def test_matches_brute_force_on_random_streams(self):
        rng = np.random.default_rng(3)
        vocab = self._vocab("abcde")
        alphabet = list("abcdexyz")  # x, y, z are out-of-vocabulary
        for trial in range(60):
            n = int(rng.integers(0, 21))
            toks = [alphabet[i] for i in rng.integers(0, len(alphabet), size=n)]
            window = int(rng.integers(1, 6))
            got = [
                (p.center, p.context, p.position)
                for p in stream_context_pairs(toks, vocab, window)
            ]
            assert got == brute_force_pairs(toks, vocab, window)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(ids=st.lists(st.integers(0, 4), max_size=40), window=st.integers(1, 8))
    def test_array_form_matches_generator(self, ids, window):
        vocab = self._vocab("abcde")
        toks = [vocab.tokens[i] for i in ids]
        centers, contexts = context_pair_arrays(np.asarray(ids, dtype=np.int64), window)
        expected = list(stream_context_pairs(toks, vocab, window))
        assert centers.tolist() == [p.center for p in expected]
        assert contexts.tolist() == [p.context for p in expected]

    def test_window_beyond_the_stream_is_clipped(self):
        """A window wider than the stream gives the pairs of the widest
        window that fits, without allocating offsets it cannot use."""
        for n in (0, 1, 5):
            ids = np.arange(n, dtype=np.int64)
            tracemalloc.start()
            try:
                got = context_pair_arrays(ids, 10**6)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, (n, peak)
            want = context_pair_arrays(ids, max(n - 1, 1))
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.int64
                assert np.array_equal(g, w)

    def test_subsampling_needs_rng(self):
        vocab = self._vocab("ab")
        with pytest.raises(ValueError):
            list(stream_context_pairs(["a", "b"], vocab, 1, subsample=1e-3))

    def test_subsampling_drops_tokens(self):
        vocab = Vocabulary(["a", "b"], np.array([1000, 1]))
        toks = ["a"] * 200 + ["b"]
        rng = np.random.default_rng(0)
        pairs = list(stream_context_pairs(toks, vocab, 1, rng=rng, subsample=1e-3))
        full = list(stream_context_pairs(toks, vocab, 1))
        assert len(pairs) < len(full)
