"""Corpus ingestion: tokenization, phrase merging, vocabulary, sampling.

The pipeline is: raw text -> base tokens -> phrase-merged tokens ->
Vocabulary / negative-sampling table / (center, context) training pairs.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DegenerateDistributionError, EmptyCorpusError, ParseError

# Separator used inside merged phrase tokens.  The base tokenizer splits on
# it, so no base token can ever contain it.
PHRASE_SEP = "_"

# Longest phrase the merger will look for, in base tokens.
MAX_PHRASE_WORDS = 8

# word2vec's unigram smoothing power and negative-table size.
NEGATIVE_POWER = 0.75
NEGATIVE_TABLE_SIZE = 1_000_000

_INT64_MAX = np.iinfo(np.int64).max

_EDGE_PUNCT = string.punctuation
_TOKEN_PUNCT = string.punctuation.replace(PHRASE_SEP, "")


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for each non-blank line of a UTF-8 text
    file, its newline removed.  Line numbers count every line from 1, blank
    ones included; ``\\n``, ``\\r\\n`` and ``\\r`` all end a line.  One
    byte-order mark at the start of the file is dropped; any other is text.

    Bytes that are not UTF-8 raise ParseError naming the line of the first
    bad byte.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.isspace():
                    yield lineno, line.rstrip("\n")
    except UnicodeDecodeError:
        # The text layer decodes in chunks, so neither its error nor the
        # lines yielded so far place the bad byte; the whole file does.
        raw = Path(path).read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = raw[: exc.start].decode("utf-8")
            lineno = 1 + head.count("\n") + head.count("\r") - head.count("\r\n")
            raise ParseError(
                f"{path}: line {lineno}: can't decode byte "
                f"0x{raw[exc.start]:02x}: {exc.reason}"
            ) from None
        raise  # the file changed between the two reads


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace and underscores, strip edge punctuation.

    Empty leftovers (pure punctuation) are dropped.  Digit-only tokens are
    kept here; vocabulary construction filters them.
    """
    out = []
    for raw in text.lower().replace(PHRASE_SEP, " ").split():
        tok = raw.strip(_EDGE_PUNCT)
        if tok:
            out.append(tok)
    return out


def normalize_token(token: str) -> str:
    """Normalize a single already-tokenized word the way :func:`tokenize` would.

    Unlike :func:`tokenize` this keeps interior underscores, so phrase tokens
    such as ``new_york`` coming from question or triple files survive.
    """
    return token.lower().strip(_TOKEN_PUNCT)


class PhraseIndex:
    """A phrase lexicon indexed by first word, longest entries first.

    Build it once per lexicon and pass it to :func:`merge_phrases` for
    every line.  Repeated entries are kept once, first occurrence first.
    ``len()`` is the number of entries.
    """

    def __init__(self, entries: Iterable[Sequence[str]] = ()):
        self.entries = list(dict.fromkeys(map(tuple, entries)))
        self.by_first: dict[str, list[tuple[str, ...]]] = {}
        for words in self.entries:
            if not 1 <= len(words) <= MAX_PHRASE_WORDS:
                raise ValueError(
                    f"phrase lexicon entry must have 1..{MAX_PHRASE_WORDS} words, "
                    f"got {len(words)}: {words!r}"
                )
            self.by_first.setdefault(words[0], []).append(words)
        for candidates in self.by_first.values():
            candidates.sort(key=len, reverse=True)

    def __len__(self) -> int:
        return len(self.entries)


def merge_phrases(tokens: Sequence[str], phrase_lexicon: PhraseIndex) -> list[str]:
    """Replace lexicon phrases in a token sequence with single merged tokens.

    Matching is greedy longest-match, left to right: at each position the
    longest lexicon entry starting there wins and the scan resumes after it.
    Tokens not covered by any entry pass through unchanged.  Merging an
    already-merged sequence is a no-op because merged tokens contain
    ``PHRASE_SEP``, which no base token can.
    """
    by_first = phrase_lexicon.by_first
    if not by_first:
        return list(tokens)

    toks = list(tokens)
    out: list[str] = []
    i = 0
    n = len(toks)
    while i < n:
        for words in by_first.get(toks[i], ()):
            if tuple(toks[i : i + len(words)]) == words:
                out.append(PHRASE_SEP.join(words))
                i += len(words)
                break
        else:
            out.append(toks[i])
            i += 1
    return out


def load_phrase_lexicon(path: str | Path) -> PhraseIndex:
    """Read a phrase lexicon file: one entity name per line, words separated
    by spaces.  Names are normalized with the base tokenizer.  Duplicate
    entries are dropped, first occurrence wins."""
    entries: list[tuple[str, ...]] = []
    for lineno, line in read_lines(path):
        words = tuple(tokenize(line))
        if len(words) > MAX_PHRASE_WORDS:
            raise ParseError(
                f"{path}: line {lineno}: entity name longer than "
                f"{MAX_PHRASE_WORDS} words"
            )
        if words:
            entries.append(words)
    return PhraseIndex(entries)


@dataclass
class Vocabulary:
    """Token inventory with frequencies and a token -> index map.

    ``counts[i]`` is the post-merge corpus frequency of ``tokens[i]``, never
    negative; a count of 0 keeps the token's embedding row but never draws
    it as a negative sample.  Tokens are distinct, non-empty and free of
    whitespace, so each is one word of the embedding export.
    """

    tokens: list[str]
    counts: np.ndarray
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.tokens = list(self.tokens)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if len(self.tokens) != len(self.counts):
            raise ValueError("tokens and counts length mismatch")
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        # One pass over all tokens at once: a string splits to itself
        # exactly when it is free of whitespace.
        joined = "".join(self.tokens)
        if "" in self.index or (joined and joined.split() != [joined]):
            bad = next(t for t in self.tokens if t.split() != [t])
            raise ValueError(f"vocabulary token {bad!r} is empty or holds whitespace")
        if (self.counts < 0).any():
            raise ValueError("negative token count in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def encode(self, tokens: Iterable[str]) -> np.ndarray:
        """Map tokens to indices, silently dropping out-of-vocabulary ones."""
        index = self.index
        return np.fromiter(
            (index[t] for t in tokens if t in index), dtype=np.int64
        )

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#vocab {len(self)}\n")
            for tok, cnt in zip(self.tokens, self.counts):
                fh.write(f"{tok}\t{int(cnt)}\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        lines = read_lines(path)
        lineno, header = next(lines, (1, ""))
        parts = header.split()
        if lineno != 1 or len(parts) != 2 or parts[0] != "#vocab":
            raise ParseError(f"{path}: line 1: expected '#vocab <size>' header")
        try:
            size = int(parts[1])
        except ValueError:
            raise ParseError(f"{path}: line 1: bad vocabulary size") from None
        counts: dict[str, int] = {}
        for lineno, line in lines:
            cols = line.split("\t")
            if len(cols) != 2:
                raise ParseError(
                    f"{path}: line {lineno}: expected 'token<TAB>count'"
                )
            token, text = cols
            try:
                count = int(text)
            except ValueError:
                count = -1
            if not 0 <= count <= _INT64_MAX:
                raise ParseError(
                    f"{path}: line {lineno}: bad count {text!r}; "
                    "expected an integer in 0..2**63-1"
                )
            if token in counts:
                raise ParseError(f"{path}: line {lineno}: duplicate token {token!r}")
            if token.split() != [token]:
                raise ParseError(
                    f"{path}: line {lineno}: token {token!r} is empty or holds whitespace"
                )
            if token.count(PHRASE_SEP) >= MAX_PHRASE_WORDS:
                raise ParseError(
                    f"{path}: line {lineno}: token longer than "
                    f"{MAX_PHRASE_WORDS} words"
                )
            counts[token] = count
        if len(counts) != size:
            raise ParseError(
                f"{path}: header claims {size} tokens, file has {len(counts)}"
            )
        return cls(list(counts), list(counts.values()))


def build_vocabulary(
    text: Iterable[str] | str,
    min_count: int = 5,
    phrase_lexicon: PhraseIndex = PhraseIndex(),
) -> Vocabulary:
    """Count phrase-merged tokens and build the Vocabulary.

    ``text`` is a string or an iterable of lines (an open text file works).
    Lines are merged by ``phrase_lexicon`` (none by default).  Digit-only
    tokens are removed.  Corpus tokens below ``min_count`` are dropped.
    Every lexicon entry is retained; if its corpus frequency is below
    ``min_count`` (or it is digit-only) it is recorded with count 0, the
    same as a lexicon entry never seen in the corpus.

    Tokens are ordered by descending count, ties broken alphabetically, so
    a rebuilt vocabulary is reproducible.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    lines = text.splitlines() if isinstance(text, str) else text
    counter: Counter[str] = Counter()
    total = 0
    for line in lines:
        toks = merge_phrases(tokenize(line), phrase_lexicon)
        counter.update(toks)
        total += len(toks)
    if total == 0:
        raise EmptyCorpusError("corpus produced no tokens")

    kept = {
        tok: cnt
        for tok, cnt in counter.items()
        if cnt >= min_count and not tok.isdigit()
    }
    for words in phrase_lexicon.entries:
        kept.setdefault(PHRASE_SEP.join(words), 0)

    order = sorted(kept, key=lambda t: (-kept[t], t))
    counts = np.asarray([kept[t] for t in order], dtype=np.int64)
    return Vocabulary(order, counts)


def build_negative_table(vocab: Vocabulary) -> np.ndarray:
    """The word2vec negative-sampling table: ``NEGATIVE_TABLE_SIZE`` cells of
    token indices, each token filling a share of cells proportional to
    count^``NEGATIVE_POWER``.

    Draw with ``table[rng.integers(0, len(table), n)]``.  Each token's share
    of cells is within ``1/NEGATIVE_TABLE_SIZE`` of its probability; tokens
    with count 0 get no cell.
    """
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")
    if NEGATIVE_TABLE_SIZE < len(vocab):
        raise ValueError("vocabulary is larger than the negative table")

    # Counts are non-negative and 0.0 ** NEGATIVE_POWER == 0.0.
    weights = vocab.counts.astype(np.float64) ** NEGATIVE_POWER
    total = weights.sum()
    if total <= 0:
        raise DegenerateDistributionError("all token counts are zero")
    boundaries = np.round(np.cumsum(weights / total) * NEGATIVE_TABLE_SIZE)
    cells_per_token = np.diff(boundaries.astype(np.int64), prepend=0)
    return np.repeat(np.arange(len(vocab), dtype=np.int64), cells_per_token)


def context_pair_arrays(
    ids: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) pairs from a sliding window of radius ``window``
    over encoded ids, in position-major order: for each center position,
    its contexts from left to right.  This is the form the trainer consumes.
    """
    n = len(ids)
    # A window wider than the stream adds no pair, and ``--window`` is user
    # input: unclipped, a huge window would allocate n x 2*window offsets.
    w = max(min(window, n - 1), 0)
    offsets = np.concatenate((np.arange(-w, 0), np.arange(1, w + 1)))
    positions = np.arange(n)[:, None] + offsets
    inside = (positions >= 0) & (positions < n)
    centers = np.broadcast_to(ids[:, None], positions.shape)[inside]
    return centers, ids[positions[inside]]


def _subsample_ids(
    ids: np.ndarray,
    vocab: Vocabulary,
    subsample: float,
    rng: np.random.Generator | None,
) -> np.ndarray:
    if subsample <= 0.0:
        return ids
    if rng is None:
        raise ValueError("subsampling requires an rng")
    total = vocab.counts.sum()
    freq = vocab.counts / max(total, 1)
    keep = np.ones(len(vocab))
    positive = freq > 0
    keep[positive] = np.minimum(1.0, np.sqrt(subsample / freq[positive]))
    return ids[rng.random(len(ids)) < keep[ids]]
