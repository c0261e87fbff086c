#!/usr/bin/env python3
"""Answer digests of both analogy modes, for checking that a change to the
analogy predictors keeps every answer.

Trains two ``lowrank`` states at fixed seeds: the joint text and knowledge
world ``relation_world`` from ``tests/synthdata.py`` (three relations, d=32,
200 questions) and the corpus-free 56-relation knowledge graph ``kgworld``
from ``perfbench/worlds.py`` (d=100, 2 epochs as in the kg-variants-d100
benchmark, 200 questions; the module is only imported, and its files go to
a temporary directory).  For each state and mode it answers every question
through ``make_analogy_predictor`` and ``run_analogy_suite`` and prints the
SHA-256 of the newline-joined answers, the accuracy, and how many questions
and distinct (a, b) pairs there were.  One process, no threads, about 8 s
on a 2-vCPU host.

Run from the repository root, once for each tree to compare:

    PYTHONPATH=src python3 tools/analogy_digest.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tools/analogy_digest.py > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

from synthdata import relation_world  # noqa: E402
from worlds import kgworld  # noqa: E402

from kgvec.corpus import Vocabulary  # noqa: E402
from kgvec.evaluation import (  # noqa: E402
    load_analogy_questions,
    make_analogy_predictor,
    run_analogy_suite,
)
from kgvec.kg import load_triples  # noqa: E402
from kgvec.model import ModelConfig  # noqa: E402
from kgvec.trainer import TrainConfig, train  # noqa: E402


def _relation_world_state():
    tokens, vocab, triples, questions = relation_world(
        seed=5, corpus_len=8000, n_questions=200
    )
    state, _ = train(
        tokens, vocab, triples,
        ModelConfig("lowrank", dim=32, head_rank=8, tail_rank=24),
        TrainConfig(alpha=0.2, epochs=2, window=3, seed=5),
    )
    return state, questions


def _kgworld_state(directory: Path):
    world = kgworld(directory, seed=9)
    vocab = Vocabulary.load(world.files["vocab"])
    triples = load_triples(world.files["triples"], vocab)
    state, _ = train(
        None, vocab, triples,
        ModelConfig("lowrank", dim=100, head_rank=50, tail_rank=90),
        TrainConfig(alpha=1.0, epochs=2, seed=9),
    )
    return state, load_analogy_questions(world.files["questions"])


def _digest(name: str, state, questions) -> None:
    pairs = len({(q.a, q.b) for q in questions})
    for mode in ("relational", "3cosadd"):
        answers = []
        predict = make_analogy_predictor(state, mode)

        def record(a: str, b: str, c: str) -> str:
            answers.append(predict(a, b, c))
            return answers[-1]

        report = run_analogy_suite(questions, record, state.vocab)
        sha = hashlib.sha256("\n".join(answers).encode("utf-8")).hexdigest()
        print(
            f"{name}\t{mode}\tanswers {sha}\taccuracy {report.total_accuracy:.4f}"
            f"\tquestions {len(answers)}\tdistinct (a, b) {pairs}"
        )


def main() -> None:
    _digest("relation_world", *_relation_world_state())
    with tempfile.TemporaryDirectory() as tmp:
        _digest("kgworld", *_kgworld_state(Path(tmp)))


if __name__ == "__main__":
    main()
