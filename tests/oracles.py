"""Reference implementations the tests compare the library against.

Each is the plain, slow form of something kgvec does in vectorised or
binary form: the generator of skip-gram pairs behind
``kgvec.corpus.context_pair_arrays``, and a reader for the word2vec text
files ``kgvec.model.save_embeddings_text`` writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from kgvec.corpus import Vocabulary, _subsample_ids


@dataclass(frozen=True)
class ContextPair:
    """One (center, context) skip-gram training example.

    ``position`` is the center's offset in the in-vocabulary token stream;
    the context sits within ``window`` positions of it.
    """

    center: int
    context: int
    position: int


def stream_context_pairs(
    tokens: Sequence[str],
    vocab: Vocabulary,
    window: int,
    rng: np.random.Generator | None = None,
    subsample: float = 0.0,
) -> Iterator[ContextPair]:
    """Yield (center, context) pairs from a sliding window of radius ``window``.

    Out-of-vocabulary tokens are removed first, so the window spans the
    compacted stream.  ``subsample`` optionally drops frequent words with the
    classic 1 - sqrt(rate/frequency) probability before windowing; it is off
    by default and requires ``rng`` when enabled.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    ids = vocab.encode(tokens)
    ids = _subsample_ids(ids, vocab, subsample, rng)
    n = len(ids)
    for k in range(n):
        lo = max(0, k - window)
        hi = min(n - 1, k + window)
        for j in range(lo, hi + 1):
            if j != k:
                yield ContextPair(int(ids[k]), int(ids[j]), k)


def load_embeddings_text(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Inverse of ``save_embeddings_text`` (up to the 6-digit rounding)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed embedding header")
        n, d = int(header[0]), int(header[1])
        tokens: list[str] = []
        vectors = np.empty((n, d))
        for i in range(n):
            parts = fh.readline().split()
            if len(parts) != d + 1:
                raise ValueError(f"{path}: malformed embedding line {i + 2}")
            tokens.append(parts[0])
            vectors[i] = [float(x) for x in parts[1:]]
    return tokens, vectors
