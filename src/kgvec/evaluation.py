"""Analogical-reasoning and word-similarity evaluation.

Two analogy modes are provided: plain vector-offset scoring (3CosAdd) and
the two-step relational mode for models with per-relation projections, which
first picks the relation that best explains the (a, b) pair and then ranks
candidate answers under that relation's scoring function.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import Vocabulary, normalize_token, read_lines
from .errors import ConfigError, ParseError, UndefinedCorrelationError
from .kg import TripleSet
from .model import ModelConfig
from .trainer import ModelState, TrainConfig, train

_EPS = 1e-12
# Bytes of the largest temporary array that answering a block of analogy
# questions builds: the block's targets, a row tile of scores, a chunk of
# relation fits.  The question blocks and tiles are sized from it.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class AnalogyQuestion:
    """a : b :: c : d with a relation label for per-relation reporting."""

    a: str
    b: str
    c: str
    d: str
    relation: str = "all"

    def __post_init__(self) -> None:
        if len({self.a, self.b, self.c, self.d}) != 4:
            raise ValueError(f"analogy question tokens must be distinct: {self}")


@dataclass(frozen=True)
class SimilarityPair:
    w1: str
    w2: str
    score: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.score):
            raise ValueError("human similarity score must be finite")


@dataclass
class RelationAccuracy:
    relation: str
    answered: int = 0
    correct: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.answered if self.answered else 0.0


@dataclass
class SimilarityResult:
    """Spearman rho of one similarity dataset."""

    dataset: str
    n_used: int
    skipped: int
    rho: float

    def to_tsv(self) -> str:
        return (
            "dataset\tpairs\tskipped\tspearman_rho\n"
            f"{self.dataset}\t{self.n_used}\t{self.skipped}\t{self.rho:.4f}\n"
        )


@dataclass
class EvalReport:
    """Accuracy per relation of one analogy suite."""

    relation_rows: list[RelationAccuracy] = field(default_factory=list)
    skipped: int = 0

    @property
    def total_answered(self) -> int:
        return sum(r.answered for r in self.relation_rows)

    @property
    def total_correct(self) -> int:
        return sum(r.correct for r in self.relation_rows)

    @property
    def total_accuracy(self) -> float:
        answered = self.total_answered
        return self.total_correct / answered if answered else 0.0

    def to_tsv(self) -> str:
        lines = ["relation\tquestions\taccuracy"]
        for r in self.relation_rows:
            lines.append(f"{r.relation}\t{r.answered}\t{r.accuracy:.4f}")
        lines.append(f"TOTAL\t{self.total_answered}\t{self.total_accuracy:.4f}")
        lines.append(f"SKIPPED\t{self.skipped}\t-")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def load_analogy_questions(path: str | Path) -> list[AnalogyQuestion]:
    """word2vec questions format: ': relation' section headers, then four
    whitespace-separated tokens per line."""
    questions: list[AnalogyQuestion] = []
    relation = "all"
    for lineno, line in read_lines(path):
        line = line.strip()
        if line.startswith(":"):
            relation = line[1:].strip() or "all"
            continue
        toks = [normalize_token(t) for t in line.split()]
        if len(toks) != 4:
            raise ParseError(
                f"{path}: line {lineno}: expected 4 tokens, got {len(toks)}"
            )
        try:
            questions.append(AnalogyQuestion(*toks, relation=relation))
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
    return questions


def load_similarity_pairs(path: str | Path) -> list[SimilarityPair]:
    """``word1<TAB>word2<TAB>score`` per line."""
    pairs: list[SimilarityPair] = []
    for lineno, line in read_lines(path):
        cols = line.split("\t")
        if len(cols) != 3:
            raise ParseError(
                f"{path}: line {lineno}: expected 'word1<TAB>word2<TAB>score'"
            )
        try:
            pair = SimilarityPair(
                normalize_token(cols[0]), normalize_token(cols[1]), float(cols[2])
            )
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}: bad score {cols[2]!r}; expected a finite number"
            ) from None
        pairs.append(pair)
    return pairs


# ---------------------------------------------------------------------------
# Analogy predictors
# ---------------------------------------------------------------------------


def _span(width: int) -> int:
    """How many rows of ``width`` float64 values fit in ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (8 * width))


def _row_tiles(reduce: Callable, table: np.ndarray) -> np.ndarray:
    """``reduce`` of each row tile of ``_span(d)`` rows of ``table``, joined
    in row order; an empty table is one empty tile."""
    step = _span(table.shape[1])
    return np.concatenate([reduce(table[lo:lo + step]) for lo in range(0, max(len(table), 1), step)])


def _row_norms(vectors: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(vectors, axis=1)``, bitwise, by row tiles."""
    return _row_tiles(lambda tile: np.linalg.norm(tile, axis=1), vectors)


def _rows(vocab: Vocabulary, *columns: Sequence[str]) -> np.ndarray:
    """Vocabulary rows of the questions' tokens, ``(n, len(columns))``."""
    return np.array([[vocab.index[t] for t in col] for col in columns], dtype=np.intp).T


def _best_rows(scores: Callable, n_rows: int, exclude: np.ndarray) -> np.ndarray:
    """Row of the highest score for each question, found by row tiles.

    ``scores(lo, hi)`` returns a new array of rows ``lo:hi`` of the
    ``(rows, questions)`` score table; no question may answer one of its
    ``exclude`` rows.  A later tile replaces a question's best only with a
    strictly higher score, so ties break toward the lowest row.
    """
    n = len(exclude)
    banned, cols = exclude.ravel(), np.repeat(np.arange(n), exclude.shape[1])
    best, rows = np.full(n, -np.inf), np.zeros(n, dtype=np.intp)
    step = _span(n)
    for lo in range(0, n_rows, step):
        tile = scores(lo, lo + step)
        hit = (banned >= lo) & (banned < lo + step)
        tile[banned[hit] - lo, cols[hit]] = -np.inf
        top = tile.argmax(axis=0)
        value = tile[top, np.arange(n)]
        better = value > best
        best[better], rows[better] = value[better], top[better] + lo
        del tile  # so that two tiles are never alive at once
    return rows


def analogy_3cosadd(
    a: str | Sequence[str],
    b: str | Sequence[str],
    c: str | Sequence[str],
    vocab: Vocabulary,
    vectors: np.ndarray,
    row_norms: np.ndarray | None = None,
) -> str | list[str]:
    """argmax over the vocabulary (minus a, b, c) of cosine(b - a + c, w),
    each of the two norms floored at ``_EPS``.

    ``a``, ``b`` and ``c`` are one question's tokens, answered with a token,
    or three equally long token sequences, answered with a list; one
    question is a block of one.  Each block of questions reads the table
    once, by row tiles ``tile @ targets.T``.  ``row_norms``, if given, must
    be ``np.linalg.norm(vectors, axis=1)``; passing it saves a pass over the
    whole table per call.  Ties break toward the lowest token index.
    """
    if isinstance(a, str):
        return analogy_3cosadd([a], [b], [c], vocab, vectors, row_norms)[0]
    if row_norms is None:
        row_norms = _row_norms(vectors)
    rows = _rows(vocab, a, b, c)
    step = _span(vectors.shape[1])
    answers: list[str] = []
    for block in (rows[lo:lo + step] for lo in range(0, len(rows), step)):
        targets = vectors[block[:, 1]] - vectors[block[:, 0]] + vectors[block[:, 2]]
        scale = np.maximum(np.linalg.norm(targets, axis=1), _EPS)

        def cosines(lo, hi):
            sims = vectors[lo:hi] @ targets.T
            sims /= np.maximum(row_norms[lo:hi, None], _EPS)
            sims /= scale
            return sims

        answers += (vocab.tokens[i] for i in _best_rows(cosines, len(vectors), block))
    return answers


class RelationalAnalogy:
    """Two-step predictor: pick r* minimizing the (a, b) triple score, then
    rank every candidate w by the (c, r*, w) score.

    A call takes one question's tokens or three equally long token
    sequences, like :func:`analogy_3cosadd`.  The dense head and tail maps
    are stacked into two ``(R, d, d)`` arrays, so picking r* for a chunk of
    distinct (a, b) pairs is one product per stack, memoised per pair.
    Since ``|B w - t|^2 = |B w|^2 - 2 w . (B^T t) + |t|^2`` and ``|t|^2`` is
    the same for every candidate w, the questions of a block that share r*
    are ranked together by ``2 w . (B^T t) - |B w|^2``: one product
    ``targets @ B`` per group, then one product per row tile of the table.
    The only per-relation cache is the vector ``|B w|^2`` of |V| floats,
    computed by row tiles the first time r* is picked.  Batched sums can
    round differently from a relation-by-relation or direct difference
    scan, so answers may differ only where two relations' fits or two
    candidates' scores tie within rounding.  Every cache lives as long as
    the predictor: build a new one after the vectors change.
    Only states whose relation bundles have dense head and tail maps
    qualify; construct via :func:`make_analogy_predictor` to get the
    fallback logic.
    """

    def __init__(self, state: ModelState):
        if not _has_dense_maps(state):
            raise ValueError(
                f"variant {state.model_config.variant!r} has no relational mode"
            )
        self.vocab = state.vocab
        self.vectors = state.store.input_vectors
        self.relation_vectors = state.store.relation_vectors
        shape = (len(state.params), self.vectors.shape[1], self.vectors.shape[1])
        self.head_maps, self.tail_maps = np.empty(shape), np.empty(shape)
        for r, p in enumerate(state.params):
            self.head_maps[r], self.tail_maps[r] = p.dense_maps()
        self._tail_norms: dict[int, np.ndarray] = {}
        self._best: dict[tuple[str, str], int] = {}

    def _tail_norm(self, r: int) -> np.ndarray:
        """``|B w|^2`` of every candidate w under relation ``r``'s tail map."""
        if r not in self._tail_norms:
            def reduce(tile):
                tails = tile @ self.tail_maps[r].T
                return np.einsum("ij,ij->i", tails, tails)

            self._tail_norms[r] = _row_tiles(reduce, self.vectors)
        return self._tail_norms[r]

    def _search(self, pairs: Sequence[tuple[str, str]]) -> None:
        """Memoise each (a, b) pair's best relation: for a chunk of pairs,
        ``A a + r - B b`` over every relation is one product per stack."""
        n_rel, d, _ = self.head_maps.shape
        step = _span(n_rel * d)
        for lo in range(0, len(pairs), step):
            chunk = pairs[lo:lo + step]
            heads, tails = _rows(self.vocab, *zip(*chunk)).T
            e = self.head_maps.reshape(-1, d) @ self.vectors[heads].T
            e += self.relation_vectors.reshape(-1, 1)
            e -= self.tail_maps.reshape(-1, d) @ self.vectors[tails].T
            e = e.reshape(n_rel, d, -1)
            fits = np.einsum("rdp,rdp->rp", e, e)
            self._best.update(zip(chunk, fits.argmin(axis=0).tolist()))

    def best_relation(self, a: str, b: str) -> int:
        """Index of the relation whose projections best explain (a, b)."""
        if (a, b) not in self._best:
            self._search([(a, b)])
        return self._best[a, b]

    def __call__(
        self, a: str | Sequence[str], b: str | Sequence[str], c: str | Sequence[str]
    ) -> str | list[str]:
        if isinstance(a, str):
            return self([a], [b], [c])[0]
        rows = _rows(self.vocab, a, b, c)
        pairs = list(zip(a, b))
        best = np.empty(len(pairs), dtype=np.intp)
        step = _span(self.vectors.shape[1])
        for start in range(0, len(pairs), step):
            block = pairs[start:start + step]
            self._search([p for p in dict.fromkeys(block) if p not in self._best])
            groups: dict[int, list[int]] = {}
            for j, (x, y) in enumerate(block, start):
                groups.setdefault(self.best_relation(x, y), []).append(j)
            for r, group in groups.items():
                targets = self.vectors[rows[group, 2]] @ self.head_maps[r].T
                targets += self.relation_vectors[r]
                pulled, sq_norms = targets @ self.tail_maps[r], self._tail_norm(r)

                def scores(lo, hi):
                    s = self.vectors[lo:hi] @ pulled.T
                    s *= 2.0
                    s -= sq_norms[lo:hi, None]
                    return s

                best[group] = _best_rows(scores, len(self.vectors), rows[group])
        return [self.vocab.tokens[i] for i in best]


def _has_dense_maps(state: ModelState) -> bool:
    """Whether the state's relation bundles score ||A h + r - B t||^2 through
    dense maps A and B, which the two-step mode needs."""
    return bool(state.params) and hasattr(state.params[0], "dense_maps")


def make_analogy_predictor(
    state: ModelState, mode: str = "relational"
) -> Callable[..., str | list[str]]:
    """Predictor factory with the documented fallback: relational mode on a
    variant without usable relation parameters degrades to 3CosAdd.  The
    predictor takes one question's tokens or three token sequences, as
    :func:`analogy_3cosadd` does."""
    if mode not in ("relational", "3cosadd"):
        raise ValueError(f"unknown analogy mode {mode!r}")
    if mode == "relational" and _has_dense_maps(state):
        return RelationalAnalogy(state)
    vocab, vectors = state.vocab, state.store.input_vectors
    row_norms = _row_norms(vectors)

    def predict(a, b, c):
        return analogy_3cosadd(a, b, c, vocab, vectors, row_norms)

    return predict


def run_analogy_suite(
    questions: Sequence[AnalogyQuestion],
    predict: Callable[..., list[str]],
    vocab: Vocabulary,
) -> EvalReport:
    """Score questions, skipping (and counting) any with out-of-vocabulary
    tokens; accuracy is correct/answered per relation label.

    The answerable questions go to ``predict`` in one call, as three token
    lists, and ``predict`` returns the list of answers; the predictors of
    :func:`make_analogy_predictor` answer them block by block.
    """
    answerable = [q for q in questions if all(t in vocab for t in (q.a, q.b, q.c, q.d))]
    answers = (
        predict([q.a for q in answerable], [q.b for q in answerable], [q.c for q in answerable])
        if answerable else []
    )
    rows: dict[str, RelationAccuracy] = {}
    for q, got in zip(answerable, answers):
        row = rows.setdefault(q.relation, RelationAccuracy(q.relation))
        row.answered += 1
        if got == q.d:
            row.correct += 1
    return EvalReport(relation_rows=list(rows.values()), skipped=len(questions) - len(answerable))


# ---------------------------------------------------------------------------
# Word similarity
# ---------------------------------------------------------------------------


def fractional_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions.  All
    NaNs tie with each other."""
    _, group, sizes = np.unique(
        np.asarray(values, dtype=np.float64), return_inverse=True, return_counts=True
    )
    # A group of equal values fills positions last - size + 1 .. last.
    last = np.cumsum(sizes)
    return (last - 0.5 * (sizes - 1))[group]


def spearman_rho(
    model_scores: Sequence[float], human_scores: Sequence[float]
) -> float:
    """Pearson correlation of the fractional-rank vectors, in [-1, 1]."""
    x = np.asarray(model_scores, dtype=np.float64)
    y = np.asarray(human_scores, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("score lists must be 1-D and equally long")
    if len(x) < 2:
        raise UndefinedCorrelationError("need at least 2 score pairs")
    rx = fractional_ranks(x)
    ry = fractional_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    sx2 = float(rx @ rx)
    sy2 = float(ry @ ry)
    if sx2 == 0.0 or sy2 == 0.0:
        raise UndefinedCorrelationError("constant score list has no rank order")
    return float(np.clip((rx @ ry) / np.sqrt(sx2 * sy2), -1.0, 1.0))


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    denom = np.linalg.norm(u) * np.linalg.norm(v)
    return float(u @ v / denom) if denom > _EPS else 0.0


def run_similarity_suite(
    pairs: Sequence[SimilarityPair],
    vocab: Vocabulary,
    vectors: np.ndarray,
    dataset: str = "similarity",
) -> SimilarityResult:
    """Cosine-score every in-vocabulary pair and correlate with the human
    scores; out-of-vocabulary pairs are skipped and counted."""
    model, human = [], []
    skipped = 0
    for p in pairs:
        if p.w1 not in vocab or p.w2 not in vocab:
            skipped += 1
            continue
        u = vectors[vocab.index[p.w1]]
        v = vectors[vocab.index[p.w2]]
        model.append(cosine_similarity(u, v))
        human.append(p.score)
    if len(model) < 2:
        raise UndefinedCorrelationError(
            f"{dataset}: only {len(model)} scorable pairs"
        )
    return SimilarityResult(dataset, len(model), skipped, spearman_rho(model, human))


# ---------------------------------------------------------------------------
# Rank sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    head_rank: int
    tail_rank: int
    accuracy: float
    answered: int


def rank_sweep(
    tokens: Sequence[str],
    vocab: Vocabulary,
    triples: TripleSet,
    questions: Sequence[AnalogyQuestion],
    model_config: ModelConfig,
    train_config: TrainConfig,
    head_ranks: Sequence[int],
    tail_ranks: Sequence[int],
) -> list[SweepRow]:
    """Train one ``lowrank`` model per (head_rank, tail_rank) combination,
    all else fixed, and report two-step analogy accuracy for each.

    Raises ``ConfigError`` before training anything if ``model_config`` is
    not ``lowrank``, if either grid is empty, or if any grid point is not a
    valid ``ModelConfig``.
    """
    if model_config.variant != "lowrank":
        raise ConfigError(
            f"rank-sweep trains lowrank models only, got variant {model_config.variant!r}"
        )
    if not head_ranks or not tail_ranks:
        raise ConfigError("rank grid is empty: need at least one head and one tail rank")
    configs = []
    for m_l in head_ranks:
        for m_r in tail_ranks:
            try:
                configs.append(replace(model_config, head_rank=int(m_l), tail_rank=int(m_r)))
            except ValueError as exc:
                raise ConfigError(
                    f"rank grid point head {m_l}, tail {m_r} at dim {model_config.dim}: {exc}"
                ) from exc
    rows = []
    for cfg in configs:
        state, _ = train(tokens, vocab, triples, cfg, train_config)
        report = run_analogy_suite(
            questions, make_analogy_predictor(state, "relational"), vocab
        )
        rows.append(
            SweepRow(cfg.head_rank, cfg.tail_rank, report.total_accuracy, report.total_answered)
        )
    return rows


def sweep_to_tsv(rows: Sequence[SweepRow]) -> str:
    lines = ["head_rank\ttail_rank\taccuracy\tanswered"]
    for r in rows:
        lines.append(f"{r.head_rank}\t{r.tail_rank}\t{r.accuracy:.4f}\t{r.answered}")
    return "\n".join(lines) + "\n"
