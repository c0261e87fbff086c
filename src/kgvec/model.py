"""Embedding parameters, triple scoring, and analytic loss gradients.

Knowledge-model variants, by what each scoring function does; each is one
relation bundle class below (see ``RELATION_TYPES``):

* ``lowrank``  — asymmetric rank-bounded projections of head and tail:
                 f = ||L h + r - R t||^2 with L, R stored as rank-1 factors.
* ``transe``   — plain translation: f = ||h + r - t||^2.
* ``transh``   — hyperplane projection of both entities (TransH):
                 f = ||h_perp + r - t_perp||^2, x_perp = x - (w.x) w.
* ``se``       — Structured Embeddings: f = ||L h - R t||_1, full matrices,
                 no relation vector in the score.
* ``transr``   — one shared full matrix per relation (TransR):
                 f = ||M h + r - M t||^2.

Lower score means a more plausible triple.  All gradients here are plain
analytic derivatives, verified against central finite differences in the
test suite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, NumericError
from .projection import LowRankProjection, init_projection

VARIANTS = ("lowrank", "transe", "transh", "se", "transr")

# Logistic inputs are clamped here before exponentiation; at 64-bit this is
# bias-free to ~1e-13 while ruling out overflow.
LOGIT_CLAMP = 30.0


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite."""
    # A sum of squares is finite exactly when every entry is, unless finite
    # entries overflow it; then the exact check decides.  One dot product
    # costs far less than ``np.isfinite`` on the whole array.
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


@dataclass
class ModelConfig:
    """Model shape: variant, dimension, rank bounds, loss constants.

    A rank left as None becomes the reference proportion of ``dim`` (50 and
    90 at d=100): ``max(1, dim // 2)`` for the head, ``max(1, dim * 9 // 10)``
    for the tail.  Only ``lowrank`` reads the ranks.  A text-only run is any
    variant trained with ``alpha = 0``.
    """

    variant: str = "lowrank"
    dim: int = 100
    head_rank: int | None = None
    tail_rank: int | None = None
    negatives: int = 5
    margin: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.dim, numbers.Integral):  # else the check below names dim
            if self.head_rank is None:
                self.head_rank = max(1, self.dim // 2)
            if self.tail_rank is None:
                self.tail_rank = max(1, self.dim * 9 // 10)
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name in ("dim", "head_rank", "tail_rank", "negatives"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))  # a numpy integer is not JSON
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.variant == "lowrank" and not (
            1 <= self.head_rank <= self.dim and 1 <= self.tail_rank <= self.dim
        ):
            raise ConfigError("rank bounds must satisfy 1 <= m <= dim")
        if not 0 < self.margin < math.inf:
            raise ConfigError(f"margin must be finite and > 0, got {self.margin!r}")
        if self.negatives < 1:
            raise ConfigError("negatives must be >= 1")


@dataclass
class EmbeddingStore:
    """Input/output word matrices plus relation vectors.

    Input vectors double as entity vectors; output vectors exist for the
    skip-gram objective only.
    """

    input_vectors: np.ndarray  # (|V|, d)
    output_vectors: np.ndarray  # (|V|, d)
    relation_vectors: np.ndarray  # (|R|, d)

    @classmethod
    def init(
        cls,
        vocab_size: int,
        n_relations: int,
        dim: int,
        rng: np.random.Generator,
        dtype=np.float64,
    ) -> "EmbeddingStore":
        """word2vec-style start: uniform +-0.5/d inputs and relations,
        zero outputs."""
        scale = 0.5 / dim
        inp = rng.uniform(-scale, scale, size=(vocab_size, dim)).astype(dtype)
        out = np.zeros((vocab_size, dim), dtype=dtype)
        rel = rng.uniform(-scale, scale, size=(n_relations, dim)).astype(dtype)
        return cls(inp, out, rel)

    def check_finite(self) -> None:
        for name, arr in (
            ("input_vectors", self.input_vectors),
            ("output_vectors", self.output_vectors),
            ("relation_vectors", self.relation_vectors),
        ):
            if not all_finite(arr):
                raise NumericError(f"non-finite values in {name}")


# ---------------------------------------------------------------------------
# Per-relation parameters: one bundle class per knowledge variant
# ---------------------------------------------------------------------------
#
# A bundle class is the whole definition of its variant: the shapes and start
# values of its arrays, its score, and the gradients of its hinge.  Each
# bundle shows its arrays through one ordered view, ``arrays()``, keyed by the
# names they carry in a checkpoint; ``from_arrays`` builds a bundle from such
# a view.  Parameter gradients are tuples in view order, so the SGD update,
# the finite check and checkpoint I/O are loops over the view.
#
# ``grads(head, tail, corrupt_head, corrupt_tail, relation)`` returns the
# gradients of f(golden) - f(corrupted), where both triples share the
# relation: those of the four entity slots, of the relation vector, and the
# tuple of the view arrays'.  The matrix variants stack the golden and the
# corrupted triple as rows 0 and 1, so each parameter matrix is read once for
# both, and each parameter gradient is one rank-2 product whose coefficients
# carry the row signs below: +1 and -1, doubled for a squared-norm score.
_PAIR_SIGN = np.array([[1.0], [-1.0]])
_SQUARED_PAIR_SIGN = 2.0 * _PAIR_SIGN


class _RelationArrays:
    """The view for bundles whose fields are the arrays themselves."""

    def arrays(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]):
        return cls(**arrays)

    def renormalize(self) -> None:
        """Restore the bundle's constraint after an update (none here)."""


@dataclass
class LowRankRelation(_RelationArrays):
    """``lowrank``: f = ||L h + r - R t||^2 with rank-bounded L and R."""

    head_proj: LowRankProjection
    tail_proj: LowRankProjection

    @staticmethod
    def shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
        d, mh, mt = config.dim, config.head_rank, config.tail_rank
        return {
            "head.weights": (mh,),
            "head.out": (mh, d),
            "head.in": (mh, d),
            "tail.weights": (mt,),
            "tail.out": (mt, d),
            "tail.in": (mt, d),
        }

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "LowRankRelation":
        return cls(
            init_projection(config.dim, config.head_rank, rng),
            init_projection(config.dim, config.tail_rank, rng),
        )

    def arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for side, proj in (("head", self.head_proj), ("tail", self.tail_proj)):
            out[f"{side}.weights"] = proj.weights
            out[f"{side}.out"] = proj.out_factors
            out[f"{side}.in"] = proj.in_factors
        return out

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "LowRankRelation":
        head, tail = (
            LowRankProjection(arrays[f"{s}.weights"], arrays[f"{s}.out"], arrays[f"{s}.in"])
            for s in ("head", "tail")
        )
        return cls(head, tail)

    def score(self, head, relation, tail) -> float:
        e = self.head_proj.apply(head) + relation - self.tail_proj.apply(tail)
        return float(e @ e)

    def grads(self, head, tail, corrupt_head, corrupt_tail, relation):
        lp, rp = self.head_proj, self.tail_proj
        heads = np.stack((head, corrupt_head))
        tails = np.stack((tail, corrupt_tail))
        qh = heads @ lp.in_factors.T
        st = tails @ rp.in_factors.T
        qw, sw = qh * lp.weights, st * rp.weights
        e = qw @ lp.out_factors + relation - sw @ rp.out_factors
        pe = e @ lp.out_factors.T
        oe = e @ rp.out_factors.T

        # f = ||e||^2 for e = A h + r - B t gives dA = 2 e h^T and
        # dB = -2 e t^T; each factor gradient sums both rows in one product.
        c = _SQUARED_PAIR_SIGN
        d_lw = (c * pe * qh).sum(axis=0)
        d_lout = (c * qw).T @ e
        d_lin = (c * pe * lp.weights).T @ heads
        d_rw = -(c * oe * st).sum(axis=0)
        d_rout = -(c * sw).T @ e
        d_rin = -(c * oe * rp.weights).T @ tails

        return (
            2 * lp.apply_transpose(e[0]),
            -2 * rp.apply_transpose(e[0]),
            -2 * lp.apply_transpose(e[1]),
            2 * rp.apply_transpose(e[1]),
            2 * (e[0] - e[1]),
            (d_lw, d_lout, d_lin, d_rw, d_rout, d_rin),
        )

    def dense_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """The dense d x d head and tail maps L and R."""
        return self.head_proj.materialize(), self.tail_proj.materialize()


@dataclass
class TransERelation(_RelationArrays):
    """``transe``: f = ||h + r - t||^2; the relation vector is all there is."""

    @staticmethod
    def shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
        return {}

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "TransERelation":
        return cls()

    def score(self, head, relation, tail) -> float:
        e = head + relation - tail
        return float(e @ e)

    def grads(self, head, tail, corrupt_head, corrupt_tail, relation):
        e_g = head + relation - tail
        e_c = corrupt_head + relation - corrupt_tail
        return 2 * e_g, -2 * e_g, -2 * e_c, 2 * e_c, 2 * (e_g - e_c), ()


@dataclass
class TransHRelation(_RelationArrays):
    """``transh``: f = ||h_perp + r - t_perp||^2, x_perp = x - (w.x) w."""

    normal: np.ndarray  # unit-length hyperplane normal w

    @staticmethod
    def shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
        return {"normal": (config.dim,)}

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "TransHRelation":
        w = rng.standard_normal(config.dim)
        return cls(w / np.linalg.norm(w))

    def renormalize(self) -> None:
        self.normal /= np.linalg.norm(self.normal)

    def score(self, head, relation, tail) -> float:
        w = self.normal
        e = (head - (w @ head) * w) + relation - (tail - (w @ tail) * w)
        return float(e @ e)

    def grads(self, head, tail, corrupt_head, corrupt_tail, relation):
        w = self.normal
        z_g = head - tail
        z_c = corrupt_head - corrupt_tail
        e_g = z_g - (w @ z_g) * w + relation
        e_c = z_c - (w @ z_c) * w + relation

        def project(v):
            return v - (w @ v) * w

        d_w = -2.0 * ((e_g @ w) * z_g + (w @ z_g) * e_g) + 2.0 * (
            (e_c @ w) * z_c + (w @ z_c) * e_c
        )
        return (
            2 * project(e_g),
            -2 * project(e_g),
            -2 * project(e_c),
            2 * project(e_c),
            2 * (e_g - e_c),
            (d_w,),
        )

    def dense_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """One hyperplane projector I - w w^T serves as both maps."""
        w = self.normal
        plane = np.eye(len(w)) - np.outer(w, w)
        return plane, plane


@dataclass
class SERelation(_RelationArrays):
    """``se``: f = ||L h - R t||_1 with full L and R; no relation vector."""

    head_matrix: np.ndarray  # (d, d)
    tail_matrix: np.ndarray  # (d, d)

    @staticmethod
    def shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
        d = config.dim
        return {"head_matrix": (d, d), "tail_matrix": (d, d)}

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "SERelation":
        return cls(np.eye(config.dim), np.eye(config.dim))

    def score(self, head, relation, tail) -> float:
        return float(np.abs(self.head_matrix @ head - self.tail_matrix @ tail).sum())

    def grads(self, head, tail, corrupt_head, corrupt_tail, relation):
        L, R = self.head_matrix, self.tail_matrix
        heads = np.stack((head, corrupt_head))
        tails = np.stack((tail, corrupt_tail))
        s = np.sign(heads @ L.T - tails @ R.T)
        ls, rs = s @ L, s @ R  # rows L^T s and R^T s of each triple
        cs = _PAIR_SIGN * s
        return (
            ls[0],
            -rs[0],
            -ls[1],
            rs[1],
            np.zeros_like(head),
            (cs.T @ heads, -(cs.T @ tails)),
        )


@dataclass
class TransRRelation(_RelationArrays):
    """``transr``: f = ||M h + r - M t||^2 with one full M per relation."""

    matrix: np.ndarray  # (d, d)

    @staticmethod
    def shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
        return {"matrix": (config.dim, config.dim)}

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "TransRRelation":
        return cls(np.eye(config.dim))

    def score(self, head, relation, tail) -> float:
        e = self.matrix @ (head - tail) + relation
        return float(e @ e)

    def grads(self, head, tail, corrupt_head, corrupt_tail, relation):
        M = self.matrix
        z = np.stack((head - tail, corrupt_head - corrupt_tail))
        e = z @ M.T + relation
        me = 2 * (e @ M)  # rows 2 M^T e of each triple
        return (
            me[0],
            -me[0],
            -me[1],
            me[1],
            2 * (e[0] - e[1]),
            ((_SQUARED_PAIR_SIGN * e).T @ z,),
        )


RelationParams = LowRankRelation | TransERelation | TransHRelation | SERelation | TransRRelation

# Bundle class of each knowledge variant.
RELATION_TYPES: dict[str, type] = {
    "lowrank": LowRankRelation,
    "transe": TransERelation,
    "transh": TransHRelation,
    "se": SERelation,
    "transr": TransRRelation,
}


def relation_array_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of each array in one relation's view, in view order."""
    return RELATION_TYPES[config.variant].shapes(config)


def relation_params_from_arrays(
    config: ModelConfig,
    n_relations: int,
    array: Callable[[int, str], np.ndarray],
) -> list[RelationParams]:
    """The bundles ``init_relation_params`` would shape, with relation i's
    arrays taken from ``array(i, name)``."""
    kind = RELATION_TYPES[config.variant]
    names = kind.shapes(config)
    return [kind.from_arrays({n: array(i, n) for n in names}) for i in range(n_relations)]


def init_relation_params(
    config: ModelConfig, n_relations: int, rng: np.random.Generator
) -> list[RelationParams]:
    """One parameter bundle per relation, of the variant's class."""
    kind = RELATION_TYPES[config.variant]
    return [kind.init(config, rng) for _ in range(n_relations)]


# ---------------------------------------------------------------------------
# Triple scoring
# ---------------------------------------------------------------------------


def score_triple(
    config: ModelConfig,
    params: RelationParams,
    head: np.ndarray,
    relation: np.ndarray,
    tail: np.ndarray,
) -> float:
    """Variant-appropriate plausibility score; lower is more plausible.

    ``params`` is the relation's bundle, whose class defines the score.
    """
    score = params.score(head, relation, tail)
    if not np.isfinite(score):
        raise NumericError("non-finite triple score")
    return score


# ---------------------------------------------------------------------------
# Margin ranking loss and gradients
# ---------------------------------------------------------------------------


@dataclass
class KnowledgeGrads:
    """Gradients of the hinge loss w.r.t. every participating parameter.

    Slot gradients are reported separately even when golden and corrupted
    triples share an embedding row; callers accumulate.  ``params`` holds the
    relation's parameter gradients in the order of its ``arrays()`` view
    (empty for transe).  An inactive hinge has no gradient: every array field
    is None.
    """

    loss: float
    active: bool
    head: np.ndarray | None
    tail: np.ndarray | None
    corrupt_head: np.ndarray | None
    corrupt_tail: np.ndarray | None
    relation: np.ndarray | None
    params: tuple[np.ndarray, ...] | None = None


def knowledge_loss_grad(
    config: ModelConfig,
    params: RelationParams,
    head: np.ndarray,
    tail: np.ndarray,
    corrupt_head: np.ndarray,
    corrupt_tail: np.ndarray,
    relation: np.ndarray,
) -> KnowledgeGrads:
    """Hinge loss [margin + f(golden) - f(corrupted)]_+ and its gradients.

    The corrupted triple shares the relation (entity corruption), so the
    relation vector and relation parameters collect contributions from both
    scores.  An inactive hinge returns no gradients at all.
    """
    f_golden = score_triple(config, params, head, relation, tail)
    f_corrupt = score_triple(config, params, corrupt_head, relation, corrupt_tail)
    loss = config.margin + f_golden - f_corrupt
    if loss <= 0.0:
        return KnowledgeGrads(0.0, False, None, None, None, None, None)
    if not np.isfinite(loss):
        raise NumericError("non-finite knowledge loss")
    return KnowledgeGrads(
        float(loss), True, *params.grads(head, tail, corrupt_head, corrupt_tail, relation)
    )


# ---------------------------------------------------------------------------
# Skip-gram negative-sampling loss
# ---------------------------------------------------------------------------


@dataclass
class SkipGramGrads:
    loss: float  # summed over the pairs
    center: np.ndarray  # shaped like the center input
    context: np.ndarray  # shaped like the context input
    negatives: np.ndarray  # (n*k, d), aligned with the negative inputs


def skipgram_ns_loss_grad(
    center: np.ndarray,
    context_out: np.ndarray,
    negatives_out: np.ndarray,
) -> SkipGramGrads:
    """Negative-sampling loss -log s(o.c) - sum_neg log s(-n.c) and gradients.

    One pair passes ``center`` and ``context_out`` as (d,) vectors and
    ``negatives_out`` as a (k, d) matrix, k >= 1.  A block of n pairs passes
    (n, d) rows and an (n*k, d) matrix whose rows i*k .. i*k+k-1 are pair i's
    negatives; the loss is then summed over the pairs.  Logits are clamped
    to +-LOGIT_CLAMP before the logistic.
    """
    negatives_out = np.atleast_2d(negatives_out)
    centers = np.atleast_2d(center)
    n, d = centers.shape
    if negatives_out.shape[0] < n or negatives_out.shape[0] % n:
        raise ValueError("every pair needs the same number (>= 1) of negatives")
    negs = negatives_out.reshape(n, -1, d)
    contexts = context_out.reshape(n, d)

    x_pos = np.clip(np.einsum("nd,nd->n", contexts, centers), -LOGIT_CLAMP, LOGIT_CLAMP)
    x_neg = np.clip(np.einsum("nkd,nd->nk", negs, centers), -LOGIT_CLAMP, LOGIT_CLAMP)
    s_pos = 1.0 / (1.0 + np.exp(-x_pos))
    s_neg = 1.0 / (1.0 + np.exp(-x_neg))

    loss = -np.log(s_pos).sum() - np.log1p(-s_neg).sum()
    g_pos = (s_pos - 1.0)[:, None]  # d loss / d x_pos
    d_context = g_pos * centers
    d_negatives = (s_neg[:, :, None] * centers[:, None, :]).reshape(-1, d)
    d_center = g_pos * contexts + np.einsum("nk,nkd->nd", s_neg, negs)
    return SkipGramGrads(
        float(loss),
        d_center.reshape(center.shape),
        d_context.reshape(context_out.shape),
        d_negatives,
    )


# ---------------------------------------------------------------------------
# Embedding text export
# ---------------------------------------------------------------------------


def save_embeddings_text(
    tokens: Sequence[str], vectors: np.ndarray, path: str | Path
) -> None:
    """word2vec text format: '<n> <d>' header, then token + 6-significant-digit
    coordinates per line."""
    n, d = vectors.shape
    if n != len(tokens):
        raise ValueError("token/vector count mismatch")
    # %-formatting a row's Python floats gives the bytes of f"{x:.6g}" per
    # coordinate, in one call per row.
    fmt = " ".join(["%.6g"] * d)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {d}\n")
        for tok, row in zip(tokens, vectors):
            fh.write(tok + " " + fmt % tuple(row.tolist()) + "\n")
