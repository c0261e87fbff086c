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


def analogy_3cosadd(
    a: str,
    b: str,
    c: str,
    vocab: Vocabulary,
    vectors: np.ndarray,
    row_norms: np.ndarray | None = None,
) -> str:
    """argmax over the vocabulary (minus a, b, c) of cosine(b - a + c, w).

    ``row_norms``, if given, must be ``np.linalg.norm(vectors, axis=1)``;
    passing it saves a pass over the whole table per question.  Ties break
    toward the lowest token index.
    """
    ia, ib, ic = vocab.index[a], vocab.index[b], vocab.index[c]
    target = vectors[ib] - vectors[ia] + vectors[ic]
    if row_norms is None:
        row_norms = np.linalg.norm(vectors, axis=1)
    norms = row_norms * max(np.linalg.norm(target), _EPS)
    sims = (vectors @ target) / np.maximum(norms, _EPS)
    sims[[ia, ib, ic]] = -np.inf
    return vocab.tokens[int(np.argmax(sims))]


class RelationalAnalogy:
    """Two-step predictor: pick r* minimizing the (a, b) triple score, then
    rank every candidate w by the (c, r*, w) score.

    The dense head and tail maps are stacked into two ``(R, d, d)`` arrays,
    so picking r* is one batched product, memoised per (a, b).  Each
    relation's projected candidates ``P`` and their squared row norms are
    computed on first use and cached, so a question costs one
    matrix-vector product: ``|P_w - t|^2 = |P_w|^2 - 2 P_w . t + |t|^2``.
    Batched sums can round differently from a relation-by-relation or
    direct difference scan, so answers may differ only where two relations'
    fits or two candidates' scores tie within rounding.  Every cache lives
    as long as the predictor: build a new one after the vectors change.
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
        self._projected: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._best: dict[tuple[str, str], int] = {}

    def _projected_tails(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Relation ``r``'s projected candidates and their squared norms."""
        if r not in self._projected:
            tails = self.vectors @ self.tail_maps[r].T
            self._projected[r] = (tails, np.einsum("ij,ij->i", tails, tails))
        return self._projected[r]

    def best_relation(self, a: str, b: str) -> int:
        """Index of the relation whose projections best explain (a, b)."""
        if (a, b) not in self._best:
            va = self.vectors[self.vocab.index[a]]
            vb = self.vectors[self.vocab.index[b]]
            e = (np.tensordot(self.head_maps, va, 1) + self.relation_vectors
                 - np.tensordot(self.tail_maps, vb, 1))
            self._best[a, b] = int(np.argmin(np.einsum("ij,ij->i", e, e)))
        return self._best[a, b]

    def __call__(self, a: str, b: str, c: str) -> str:
        ia, ib, ic = (self.vocab.index[t] for t in (a, b, c))
        vc = self.vectors[ic]
        r_star = self.best_relation(a, b)
        target = self.head_maps[r_star] @ vc + self.relation_vectors[r_star]
        tails, sq_norms = self._projected_tails(r_star)
        scores = sq_norms - 2.0 * (tails @ target) + _sq(target)
        scores[[ia, ib, ic]] = np.inf
        return self.vocab.tokens[int(np.argmin(scores))]


def _sq(v: np.ndarray) -> float:
    return float(v @ v)


def _has_dense_maps(state: ModelState) -> bool:
    """Whether the state's relation bundles score ||A h + r - B t||^2 through
    dense maps A and B, which the two-step mode needs."""
    return bool(state.params) and hasattr(state.params[0], "dense_maps")


def make_analogy_predictor(
    state: ModelState, mode: str = "relational"
) -> Callable[[str, str, str], str]:
    """Predictor factory with the documented fallback: relational mode on a
    variant without usable relation parameters degrades to 3CosAdd."""
    if mode not in ("relational", "3cosadd"):
        raise ValueError(f"unknown analogy mode {mode!r}")
    if mode == "relational" and _has_dense_maps(state):
        return RelationalAnalogy(state)
    vocab, vectors = state.vocab, state.store.input_vectors
    row_norms = np.linalg.norm(vectors, axis=1)

    def predict(a: str, b: str, c: str) -> str:
        return analogy_3cosadd(a, b, c, vocab, vectors, row_norms)

    return predict


def run_analogy_suite(
    questions: Sequence[AnalogyQuestion],
    predict: Callable[[str, str, str], str],
    vocab: Vocabulary,
) -> EvalReport:
    """Score questions, skipping (and counting) any with out-of-vocabulary
    tokens; accuracy is correct/answered per relation label."""
    rows: dict[str, RelationAccuracy] = {}
    skipped = 0
    for q in questions:
        toks = (q.a, q.b, q.c, q.d)
        if any(t not in vocab for t in toks):
            skipped += 1
            continue
        row = rows.setdefault(q.relation, RelationAccuracy(q.relation))
        row.answered += 1
        if predict(q.a, q.b, q.c) == q.d:
            row.correct += 1
    return EvalReport(relation_rows=list(rows.values()), skipped=skipped)


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
