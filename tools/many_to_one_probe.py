#!/usr/bin/env python3
"""Criterion 4 diagnostics: what margin-ranking training leaves on the
shared tail of ``many_to_one_fixture``.

Trains each row's model with the acceptance test's settings (dim 16, head
rank 4, tail rank 16, 1000 epochs, lr 0.025, knowledge only) for every seed
and prints, as min-max over the seeds:

* the final epoch-mean hinge loss;
* the shared-tail residual max_i f(h_i, rel, t_shared);
* the least distance between the five heads;
* for ``lowrank`` also the least distance between the projected heads L h_i
  and the mean share of the head differences that lies in L's kernel.

The ``transe`` rows add the TransE entity-norm constraint (Bordes et al.,
2013) in three forms by wrapping the trainer's knowledge micro-step, so the
library itself is unchanged: unit rows before each step, unit rows after each
step, and projection onto the unit ball after each step.

Run from the repository root:

    PYTHONPATH=src python3 tools/many_to_one_probe.py --seeds 1-8
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from synthdata import many_to_one_fixture  # noqa: E402

from kgvec import trainer  # noqa: E402
from kgvec.model import ModelConfig, score_triple  # noqa: E402


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _ball(rows: np.ndarray) -> np.ndarray:
    return rows / np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1.0)


# constraint name -> (applied before the step, applied after the step)
CONSTRAINTS = {
    "none": (None, None),
    "unit before step": (_unit, None),
    "unit after step": (None, _unit),
    "unit ball": (None, _ball),
}


def _constrained_step(before, after):
    plain = trainer._kg_step

    def step(state, triples, entity_rows, index, rng, lr):
        vectors = state.store.input_vectors
        if before is not None:
            vectors[entity_rows] = before(vectors[entity_rows])
        result = plain(state, triples, entity_rows, index, rng, lr)
        if after is not None:
            vectors[entity_rows] = after(vectors[entity_rows])
        return result

    return step


def _outcome(variant: str, seed: int) -> list[float]:
    vocab, triples = many_to_one_fixture()
    mc = ModelConfig(variant=variant, dim=16, head_rank=4, tail_rank=16)
    tc = trainer.TrainConfig(alpha=1.0, epochs=1000, seed=seed, initial_lr=0.025)
    state, report = trainer.train(None, vocab, triples, mc, tc)
    heads = state.store.input_vectors[[vocab.index[f"h{i}"] for i in range(5)]]
    tail = state.store.input_vectors[vocab.index["t_shared"]]
    rel = state.store.relation_vectors[0]
    params = state.params[0]
    pairs = list(itertools.combinations(range(5), 2))
    out = [
        report.rows[-1].kg_loss,
        max(score_triple(mc, params, h, rel, tail) for h in heads),
        min(float(np.linalg.norm(heads[i] - heads[j])) for i, j in pairs),
    ]
    if variant == "lowrank":
        projected = np.array([params.head_proj.apply(h) for h in heads])
        out.append(min(float(np.linalg.norm(projected[i] - projected[j])) for i, j in pairs))
        _, sigma, vt = np.linalg.svd(params.head_proj.materialize())
        row_space = vt[sigma > 1e-8 * sigma[0]]
        diffs = np.array([heads[i] - heads[j] for i, j in pairs])
        in_kernel = diffs - (diffs @ row_space.T) @ row_space
        out.append(float(np.mean(np.linalg.norm(in_kernel, axis=1) / np.linalg.norm(diffs, axis=1))))
    return out


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-8"), help="range, e.g. 1-8")
    seeds = parser.parse_args(argv).seeds

    names = ["hinge", "residual", "head dist", "proj head dist", "kernel share"]
    plain = trainer._kg_step
    rows = [("transe", name) for name in CONSTRAINTS] + [("lowrank", "none")]
    for variant, constraint in rows:
        trainer._kg_step = _constrained_step(*CONSTRAINTS[constraint])
        try:
            table = np.array([_outcome(variant, seed) for seed in seeds])
        finally:
            trainer._kg_step = plain
        cells = "  ".join(
            f"{name} {lo:.4f}-{hi:.4f}" if name == "hinge" else f"{name} {lo:.3f}-{hi:.3f}"
            for name, lo, hi in zip(names, table.min(axis=0), table.max(axis=0))
        )
        print(f"{variant:8s}{constraint:17s}{cells}", flush=True)


if __name__ == "__main__":
    main()
