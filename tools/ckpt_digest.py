#!/usr/bin/env python3
"""Checkpoint digests of every variant, for checking that a change keeps
training bitwise identical.

Writes a small synthetic corpus and triple file (``relation_world`` from
``tests/synthdata.py``: three relations, joint text and knowledge) to a
temporary directory, then runs ``kgvec train`` in-process through
``kgvec.cli.main`` for all six variants in float64 and float32 at a fixed
seed.  For each run it loads the checkpoint with ``load_checkpoint`` and
prints the variant, the float mode, the SHA-256 of the loaded configs,
vocabulary and relation names, the SHA-256 of the loaded arrays (name,
dtype, shape and bytes, in the view order ``input``, ``output``,
``relations``, ``rel<i>.<name>``) and the final combined loss (``repr``, so
every bit shows).  Neither digest reads the file's bytes, so two trees
whose checkpoint formats differ still compare.  One process, no threads,
about 8 s on a 2-vCPU host.

Run from the repository root, once for each tree to compare:

    PYTHONPATH=src python3 tools/ckpt_digest.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tools/ckpt_digest.py > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from synthdata import relation_world  # noqa: E402

import kgvec.cli  # noqa: E402
from kgvec.model import VARIANTS  # noqa: E402
from kgvec.trainer import load_checkpoint  # noqa: E402


def _write_world(root: Path) -> tuple[Path, Path]:
    tokens, _, triples, _ = relation_world(seed=3, corpus_len=3000)
    corpus = root / "corpus.txt"
    corpus.write_text(" ".join(tokens) + "\n", encoding="utf-8")
    names, relations = triples.entity_names, triples.relation_names
    tsv = root / "triples.tsv"
    tsv.write_text(
        "".join(f"{names[h]}\t{relations[r]}\t{names[t]}\n" for h, r, t in triples.triples),
        encoding="utf-8",
    )
    return corpus, tsv


def _train(argv: list[str]):
    """``kgvec train`` in-process; returns its TrainReport."""
    reports = []
    original = kgvec.cli.train

    def keep_report(*args, **kwargs):
        state, report = original(*args, **kwargs)
        reports.append(report)
        return state, report

    kgvec.cli.train = keep_report
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = kgvec.cli.main(argv)
    finally:
        kgvec.cli.train = original
    if rc != 0:
        raise SystemExit(f"kgvec {' '.join(argv)} exited {rc}")
    return reports[0]


def _digests(path: Path) -> tuple[str, str]:
    """SHA-256 of a loaded checkpoint's configs, vocabulary and relations,
    and of its arrays in view order."""
    state = load_checkpoint(path)
    vocab = state.vocab
    meta = [
        dataclasses.asdict(state.model_config),
        dataclasses.asdict(state.train_config),
        vocab.tokens,
        vocab.counts.tolist(),
        vocab.min_count,
        sorted(vocab.phrase_lexicon),
        state.relation_names,
    ]
    arrays = [
        ("input", state.store.input_vectors),
        ("output", state.store.output_vectors),
        ("relations", state.store.relation_vectors),
    ]
    for i, p in enumerate(state.params):
        arrays += [(f"rel{i}.{name}", a) for name, a in p.arrays().items()]
    h = hashlib.sha256()
    for name, a in arrays:
        h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(a.tobytes())
    return hashlib.sha256(json.dumps(meta).encode()).hexdigest(), h.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        corpus, tsv = _write_world(root)
        for variant in VARIANTS:
            for float32 in ("false", "true"):
                ckpt = root / f"{variant}-{float32}.kgv"
                report = _train([
                    "train", "--corpus", str(corpus), "--triples", str(tsv),
                    "--checkpoint", str(ckpt), "--min-count", "1",
                    "--variant", variant, "--dim", "16",
                    "--head-rank", "4", "--tail-rank", "12",
                    "--alpha", "0" if variant == "sg" else "0.5",
                    "--epochs", "2", "--window", "2",
                    "--seed", "11", "--float32", float32,
                ])
                meta, arrays = _digests(ckpt)
                mode = "float32" if float32 == "true" else "float64"
                print(
                    f"{variant}\t{mode}\tstate {meta}"
                    f"\tarrays {arrays}\t{report.final_combined!r}"
                )


if __name__ == "__main__":
    main()
