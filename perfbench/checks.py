"""Output checks.  Each failed check counts toward the error rate and makes
the benchmark exit non-zero.

The oracles here are independent of kgvec's evaluation code: they score
every vocabulary row with plain numpy from the model's stored factors.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np

from kgvec.evaluation import AnalogyQuestion
from kgvec.trainer import ModelState, TrainReport


class Checker:
    """Counts attempted operations and checks, and remembers failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def state_arrays(obj, prefix: str = "") -> dict[str, np.ndarray]:
    """Every numpy array reachable from a model state, keyed by a path.

    Walks dataclasses, lists and tuples, so it follows whatever parameter
    layout the model uses.
    """
    out: dict[str, np.ndarray] = {}
    if isinstance(obj, np.ndarray):
        out[prefix] = obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            out.update(state_arrays(getattr(obj, f.name), f"{prefix}.{f.name}"))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            out.update(state_arrays(item, f"{prefix}[{i}]"))
    return out


def check_trained(check: Checker, label: str, state: ModelState, report: TrainReport) -> None:
    """Finite parameters, the structural rank bound, unit TransH normals and,
    over two or more epochs, a falling loss."""
    arrays = state_arrays(state)
    check.expect(all(np.all(np.isfinite(a)) for a in arrays.values()), f"{label}: non-finite parameters")
    mc = state.model_config
    for i, p in enumerate(state.params):
        if mc.variant == "lowrank":
            rank_h = np.linalg.matrix_rank(p.head_proj.materialize())
            rank_t = np.linalg.matrix_rank(p.tail_proj.materialize())
            check.expect(
                rank_h <= mc.head_rank and rank_t <= mc.tail_rank,
                f"{label}: relation {i} rank {rank_h}/{rank_t} exceeds {mc.head_rank}/{mc.tail_rank}",
            )
        elif mc.variant == "transh":
            norm = float(np.linalg.norm(p.normal))
            check.expect(abs(norm - 1.0) < 1e-9, f"{label}: transh normal {i} has length {norm}")
    if len(report.rows) >= 2:
        check.expect(
            report.final_combined < report.first_combined,
            f"{label}: loss rose {report.first_combined:.6g} -> {report.final_combined:.6g}",
        )


def check_same_state(check: Checker, label: str, a: ModelState, b: ModelState) -> None:
    """Bitwise equality of every array, plus configs, vocabulary and relations."""
    xa, xb = state_arrays(a), state_arrays(b)
    same = xa.keys() == xb.keys() and all(
        xa[k].dtype == xb[k].dtype and xa[k].shape == xb[k].shape and xa[k].tobytes() == xb[k].tobytes()
        for k in xa
    )
    same = same and a.model_config == b.model_config and a.train_config == b.train_config
    same = same and a.vocab.tokens == b.vocab.tokens and a.relation_names == b.relation_names
    check.expect(same, f"{label}: checkpoint round trip is not bitwise equal")


# ---------------------------------------------------------------------------
# Brute-force analogy oracles
# ---------------------------------------------------------------------------


def _factor_map(proj, rows: np.ndarray) -> np.ndarray:
    """Apply a rank-1 factor map to every row: sum_i w_i (q_i . v) p_i."""
    return ((rows @ proj.in_factors.T) * proj.weights) @ proj.out_factors


def _relation_maps(state: ModelState, r: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = state.params[r]
    if state.model_config.variant == "lowrank":
        return _factor_map(p.head_proj, rows), _factor_map(p.tail_proj, rows)
    projected = rows - np.outer(rows @ p.normal, p.normal)
    return projected, projected


def brute_relational(state: ModelState, q: AnalogyQuestion) -> tuple[str, float, np.ndarray]:
    """Answer, best score and all candidate scores for the two-step mode."""
    index, vectors = state.vocab.index, state.store.input_vectors
    ia, ib, ic = index[q.a], index[q.b], index[q.c]
    fits = []
    for r in range(len(state.params)):
        heads, tails = _relation_maps(state, r, vectors[[ia, ib]])
        e = heads[0] + state.store.relation_vectors[r] - tails[1]
        fits.append(float(e @ e))
    r_star = int(np.argmin(fits))
    heads, _ = _relation_maps(state, r_star, vectors[[ic]])
    _, tails = _relation_maps(state, r_star, vectors)
    diff = tails - (heads[0] + state.store.relation_vectors[r_star])
    scores = (diff * diff).sum(axis=1)
    scores[[ia, ib, ic]] = np.inf
    best = int(np.argmin(scores))
    return state.vocab.tokens[best], float(scores[best]), scores


def brute_3cosadd(state: ModelState, q: AnalogyQuestion) -> tuple[str, float, np.ndarray]:
    """Answer, best cosine and all cosines for 3CosAdd."""
    index, vectors = state.vocab.index, state.store.input_vectors
    ia, ib, ic = index[q.a], index[q.b], index[q.c]
    target = vectors[ib] - vectors[ia] + vectors[ic]
    target = target / max(float(np.sqrt(target @ target)), 1e-12)
    norms = np.sqrt((vectors * vectors).sum(axis=1))
    sims = (vectors / np.maximum(norms, 1e-12)[:, None]) @ target
    sims[[ia, ib, ic]] = -np.inf
    best = int(np.argmax(sims))
    return state.vocab.tokens[best], float(sims[best]), sims


def check_analogy_oracles(
    check: Checker, label: str, state: ModelState, questions: list[AnalogyQuestion], predictors
) -> None:
    """Each predictor must pick the oracle's answer, or one whose oracle
    score ties the best within floating-point noise."""
    index = state.vocab.index
    for q in questions:
        for mode, predict in predictors.items():
            got = predict(q.a, q.b, q.c)
            if mode == "relational":
                want, best, scores = brute_relational(state, q)
                ok = got == want or abs(scores[index[got]] - best) <= 1e-9 * max(1.0, abs(best))
            else:
                want, best, scores = brute_3cosadd(state, q)
                ok = got == want or abs(scores[index[got]] - best) <= 1e-12
            check.expect(ok, f"{label}: {mode} answers {got!r}, oracle {want!r} for {q}")


_TOTAL = re.compile(r"^TOTAL\t(\d+)\t([0-9.]+)$", re.MULTILINE)


def parse_eval_total(text: str) -> tuple[int, str]:
    """(questions answered, accuracy as printed) from an ``eval-analogy``
    report."""
    m = _TOTAL.search(text)
    if m is None:
        raise ValueError("eval-analogy report has no TOTAL row")
    return int(m.group(1)), m.group(2)
