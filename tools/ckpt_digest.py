#!/usr/bin/env python3
"""Checkpoint digests of every variant, for checking that a change keeps
training bitwise identical.

Writes a small synthetic corpus and triple file (``relation_world`` from
``tests/synthdata.py``: three relations, joint text and knowledge) to a
temporary directory, then runs ``kgvec train`` in-process through
``kgvec.cli.main`` for all six variants in float64 and float32 at a fixed
seed.  For each run it prints the variant, the float mode, the SHA-256 of
the checkpoint's JSON header, the SHA-256 of its array bytes (everything
after the header) and the final combined loss (``repr``, so every bit
shows).  A change that only adds or drops header keys then still shows the
arrays bitwise equal.  One process, no threads, about 8 s on a 2-vCPU host.

Run from the repository root, once for each tree to compare:

    PYTHONPATH=src python3 tools/ckpt_digest.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tools/ckpt_digest.py > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import struct
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from synthdata import relation_world  # noqa: E402

import kgvec.cli  # noqa: E402
from kgvec.model import VARIANTS  # noqa: E402
from kgvec.trainer import CHECKPOINT_MAGIC  # noqa: E402


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


def _split(data: bytes) -> tuple[bytes, bytes]:
    """A checkpoint's magic, version and JSON header, and its array bytes."""
    (blob_len,) = struct.unpack_from("<I", data, len(CHECKPOINT_MAGIC) + 4)
    end = len(CHECKPOINT_MAGIC) + 8 + blob_len
    return data[:end], data[end:]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
                header, arrays = _split(ckpt.read_bytes())
                mode = "float32" if float32 == "true" else "float64"
                print(
                    f"{variant}\t{mode}\theader {_sha(header)}"
                    f"\tarrays {_sha(arrays)}\t{report.final_combined!r}"
                )


if __name__ == "__main__":
    main()
