"""Reference implementations the tests compare the library against.

Each is the plain, slow form of something kgvec does in vectorised,
indexed or binary form: the longest-match scan behind
``kgvec.corpus.merge_phrases``, the generator of skip-gram pairs behind
``kgvec.corpus.context_pair_arrays``, a reader for the word2vec text
files ``kgvec.model.save_embeddings_text`` writes, the per-step form of the
trainer's learning-rate schedule, the identity map in factor form, a
TransH hyperplane projection in rank-(d-1) factor form (the reduction of
``transh`` to ``lowrank``), each relation's dense maps built from its own
bundle and the relation-by-relation search behind
``kgvec.evaluation.RelationalAnalogy.best_relation``, the tie-by-tie walk
over a sort behind ``kgvec.evaluation.fractional_ranks``, the stacking of
hand-built relation bundles into a state's ``(R, *shape)`` arrays, and the
golden and corrupted triples' gradients taken one at a time, as differences
of outer products, behind the stacked ``grads`` of ``LowRankRelation``,
``SERelation`` and ``TransRRelation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from kgvec.corpus import Vocabulary, _subsample_ids
from kgvec.projection import LowRankProjection
from kgvec.trainer import LR_FLOOR


def longest_match_merge(tokens: Sequence[str], lexicon: Sequence[tuple[str, ...]]) -> list[str]:
    """Greedy longest-match phrase merging, trying every lexicon entry at
    every position."""
    out, i = [], 0
    while i < len(tokens):
        hits = [e for e in lexicon if tuple(tokens[i : i + len(e)]) == e]
        longest = max(hits, key=len, default=(tokens[i],))
        out.append("_".join(longest))
        i += len(longest)
    return out


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


def lr_at(step: int, total_steps: int, initial_lr: float) -> float:
    """Linear decay from initial_lr to its 1e-4 floor over total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError("step must lie in [0, total_steps]")
    if total_steps == 0:
        return initial_lr
    return initial_lr * max(1.0 - step / total_steps, LR_FLOOR)


def identity_projection(d: int) -> LowRankProjection:
    """Full-rank identity map in factor form."""
    eye = np.eye(d)
    return LowRankProjection(np.ones(d), eye.copy(), eye.copy())


def hyperplane_complement_basis(normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the hyperplane orthogonal to ``normal``."""
    d = len(normal)
    u, _, _ = np.linalg.svd(normal.reshape(d, 1), full_matrices=True)
    return u[:, 1:].T.copy()


def transh_as_lowrank(
    normal: np.ndarray, atol: float = 1e-10
) -> tuple[LowRankProjection, LowRankProjection]:
    """Express a TransH hyperplane projection as rank-(d-1) factor form.

    Both returned projections (head side, tail side) materialize to
    I - normal normal^T.  ``normal`` must have unit length within ``atol``.
    """
    normal = np.asarray(normal, dtype=np.float64)
    norm = float(np.linalg.norm(normal))
    if abs(norm - 1.0) > atol:
        raise ValueError(f"normal must be unit length, got |w| = {norm!r}")
    basis = hyperplane_complement_basis(normal)
    m = len(basis)
    left = LowRankProjection(np.ones(m), basis.copy(), basis.copy())
    right = LowRankProjection(np.ones(m), basis.copy(), basis.copy())
    return left, right


def relation_stacks(bundles) -> dict[str, np.ndarray]:
    """The ``relation_arrays`` of a state whose relations hold ``bundles``:
    each name of their ``arrays()`` view stacked, relation i at [i]."""
    return {name: np.stack([b.arrays()[name] for b in bundles]) for name in bundles[0].arrays()}


def direct_maps(state) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each relation's dense (head, tail) maps, built from its own bundle:
    ``materialize`` of a ``lowrank`` projection, ``I - w w^T`` of a
    ``transh`` normal."""
    maps = []
    for p in state.params:
        if state.model_config.variant == "lowrank":
            maps.append((p.head_proj.materialize(), p.tail_proj.materialize()))
        else:
            plane = np.eye(len(p.normal)) - np.outer(p.normal, p.normal)
            maps.append((plane, plane))
    return maps


def best_relation_loop(state, a: str, b: str) -> tuple[int, list[float]]:
    """The relation whose dense maps best explain (a, b), one relation at a
    time, and every relation's fit ``||A a + r - B b||^2``."""
    index, vectors = state.vocab.index, state.store.input_vectors
    va, vb = vectors[index[a]], vectors[index[b]]
    fits = []
    for (head, tail), rel in zip(direct_maps(state), state.store.relation_vectors):
        e = head @ va + rel - tail @ vb
        fits.append(float(e @ e))
    return int(np.argmin(fits)), fits


def fractional_ranks_loop(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def lowrank_grads_outer(params, head, tail, corrupt_head, corrupt_tail, relation):
    """``LowRankRelation.grads`` with each factor gradient a difference of
    the golden and the corrupted triple's outer products."""
    lp, rp = params.head_proj, params.tail_proj
    e_g = lp.apply(head) + relation - rp.apply(tail)
    e_c = lp.apply(corrupt_head) + relation - rp.apply(corrupt_tail)

    # Head-side factors: f = ||e||^2, dA = 2 e h^T  for  e = A h + r - B t.
    qh_g = lp.in_factors @ head
    qh_c = lp.in_factors @ corrupt_head
    pe_g = lp.out_factors @ e_g
    pe_c = lp.out_factors @ e_c
    d_lw = 2.0 * (pe_g * qh_g - pe_c * qh_c)
    d_lout = 2.0 * lp.weights[:, None] * (
        qh_g[:, None] * e_g[None, :] - qh_c[:, None] * e_c[None, :]
    )
    d_lin = 2.0 * lp.weights[:, None] * (
        pe_g[:, None] * head[None, :] - pe_c[:, None] * corrupt_head[None, :]
    )

    # Tail-side factors enter with a minus sign: dB = -2 e t^T.
    st_g = rp.in_factors @ tail
    st_c = rp.in_factors @ corrupt_tail
    oe_g = rp.out_factors @ e_g
    oe_c = rp.out_factors @ e_c
    d_rw = -2.0 * (oe_g * st_g - oe_c * st_c)
    d_rout = -2.0 * rp.weights[:, None] * (
        st_g[:, None] * e_g[None, :] - st_c[:, None] * e_c[None, :]
    )
    d_rin = -2.0 * rp.weights[:, None] * (
        oe_g[:, None] * tail[None, :] - oe_c[:, None] * corrupt_tail[None, :]
    )

    return (
        2 * lp.apply_transpose(e_g),
        -2 * rp.apply_transpose(e_g),
        -2 * lp.apply_transpose(e_c),
        2 * rp.apply_transpose(e_c),
        2 * (e_g - e_c),
        (d_lw, d_lout, d_lin, d_rw, d_rout, d_rin),
    )


def se_grads_outer(params, head, tail, corrupt_head, corrupt_tail, relation):
    """``SERelation.grads`` with each matrix gradient a difference of outer
    products."""
    L, R = params.head_matrix, params.tail_matrix
    s_g = np.sign(L @ head - R @ tail)
    s_c = np.sign(L @ corrupt_head - R @ corrupt_tail)
    return (
        L.T @ s_g,
        -(R.T @ s_g),
        -(L.T @ s_c),
        R.T @ s_c,
        np.zeros_like(head),
        (
            np.outer(s_g, head) - np.outer(s_c, corrupt_head),
            -(np.outer(s_g, tail) - np.outer(s_c, corrupt_tail)),
        ),
    )


def transr_grads_outer(params, head, tail, corrupt_head, corrupt_tail, relation):
    """``TransRRelation.grads`` with the matrix gradient a difference of
    outer products."""
    M = params.matrix
    z_g = head - tail
    z_c = corrupt_head - corrupt_tail
    e_g = M @ z_g + relation
    e_c = M @ z_c + relation
    return (
        2 * (M.T @ e_g),
        -2 * (M.T @ e_g),
        -2 * (M.T @ e_c),
        2 * (M.T @ e_c),
        2 * (e_g - e_c),
        (2.0 * (np.outer(e_g, z_g) - np.outer(e_c, z_c)),),
    )


# The outer-product oracle of each variant whose ``grads`` stacks its triples.
OUTER_PRODUCT_GRADS = {
    "lowrank": lowrank_grads_outer,
    "se": se_grads_outer,
    "transr": transr_grads_outer,
}
