#!/usr/bin/env python3
"""Compare what two source trees train and answer, digest by digest.

Runs the same digests against another tree's ``kgvec`` source directory and
this checkout's ``src``, each in its own subprocess with ``PYTHONPATH`` set
to that directory, and prints ``identical`` if their outputs agree, or else
the first line that differs (exit status 1).  The digests are:

* **Checkpoints.**  ``kgvec train`` runs in-process on a small joint world
  (``relation_world`` from ``tests/synthdata.py``: three relations, text and
  knowledge) for the five knowledge variants at alpha 0.5 and one text-only
  ``lowrank`` run at alpha 0, in float64 and float32 at a fixed seed.  The
  list is fixed here, not read from the tree, so both trees train the same
  runs.
  For each run it prints the final combined loss (``repr``, so every bit
  shows), the SHA-256 of the loaded configs, vocabulary tokens and counts
  and relation names, and one SHA-256 per array of the loaded checkpoint
  under its checkpoint name: ``input``, ``output``, ``relations`` and ``rel.<name>`` for the
  ``(R, *shape)`` stack of each relation array.  No digest reads the file's
  bytes, so trees whose checkpoint formats differ still compare.
* **Config files.**  The same digests for a ``lowrank`` run whose
  ``--config`` file sets every train flag (with a vocabulary built by
  ``kgvec build-vocab`` and a one-phrase lexicon), then for the same run
  with ``--dim`` on the command line overriding the file's value.
* **Analogy answers.**  Two ``lowrank`` states are trained at fixed seeds:
  ``relation_world`` (d=32, 200 questions) and the 56-relation knowledge
  graph ``kgworld`` from ``perfbench/worlds.py`` (d=100, 2 epochs as in the
  kg-variants-d100 benchmark).  For each state and mode it prints the
  SHA-256 of the answers, the accuracy, and the question and distinct
  (a, b) pair counts.
* **Mapping statistics.**  ``kgvec stats`` runs on the ``kgworld`` triples,
  once unfiltered and once with ``--vocab`` holding every other entity.
  For each it prints the SHA-256 of the TSV, the SHA-256 of the float64
  tails-per-head and heads-per-tail arrays (the TSV rounds to 6 digits), and
  the TSV's row count.

Both trees get the inputs of this checkout's ``tests`` and ``perfbench``.
The two subprocesses run at once; the whole comparison takes about 15 s on
a 2-vCPU host.

Run from the repository root:

    python3 tools/compare_trees.py /path/to/parent/checkout/src
    PYTHONPATH=src python3 tools/compare_trees.py --digest   # one tree's digests
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# Digests of the tree that ``kgvec`` is imported from
# ---------------------------------------------------------------------------


def _write_world(root: Path) -> tuple[Path, Path]:
    from synthdata import relation_world

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


def _train_cli(argv: list[str]):
    """``kgvec train`` in-process; returns its TrainReport."""
    import kgvec.cli

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


def _named_arrays(state):
    """A state's arrays under their checkpoint names, relation arrays as
    ``(R, *shape)`` stacks."""
    from kgvec.model import relation_array_shapes

    yield "input", state.store.input_vectors
    yield "output", state.store.output_vectors
    yield "relations", state.store.relation_vectors
    for name in relation_array_shapes(state.model_config):
        yield f"rel.{name}", np.stack([p.arrays()[name] for p in state.params])


def _print_run(run: str, report, ckpt: Path) -> None:
    """The final loss and the digests of the checkpoint one run wrote."""
    from kgvec.trainer import load_checkpoint

    state = load_checkpoint(ckpt)
    meta = [
        dataclasses.asdict(state.model_config),
        dataclasses.asdict(state.train_config),
        state.vocab.tokens,
        state.vocab.counts.tolist(),
        state.relation_names,
    ]
    print(f"{run}\tfinal_loss {report.final_combined!r}")
    print(f"{run}\tstate {hashlib.sha256(json.dumps(meta).encode()).hexdigest()}")
    for name, a in _named_arrays(state):
        h = hashlib.sha256(f"{a.dtype.str} {a.shape}\n".encode())
        h.update(np.ascontiguousarray(a).tobytes())
        print(f"{run}\t{name} {h.hexdigest()}")


# (variant, alpha) of each checkpoint run: every knowledge variant, then text only.
CHECKPOINT_RUNS = [
    *((v, "0.5") for v in ("lowrank", "transe", "transh", "se", "transr")),
    ("lowrank", "0"),
]


def _checkpoint_digests(root: Path) -> None:
    corpus, tsv = _write_world(root)
    for variant, alpha in CHECKPOINT_RUNS:
        for float32 in ("false", "true"):
            ckpt = root / f"{variant}-{alpha}-{float32}.kgv"
            report = _train_cli([
                "train", "--corpus", str(corpus), "--triples", str(tsv),
                "--checkpoint", str(ckpt), "--min-count", "1",
                "--variant", variant, "--dim", "16",
                "--head-rank", "4", "--tail-rank", "12",
                "--alpha", alpha,
                "--epochs", "2", "--window", "2",
                "--seed", "11", "--float32", float32,
            ])
            run = f"{variant}\talpha {alpha}\t{'float32' if float32 == 'true' else 'float64'}"
            _print_run(run, report, ckpt)


def _config_digests(root: Path) -> None:
    import kgvec.cli

    corpus, tsv = _write_world(root)
    lexicon = root / "lexicon.txt"
    lexicon.write_text(" ".join(corpus.read_text(encoding="utf-8").split()[:2]) + "\n",
                       encoding="utf-8")
    vocab = root / "config-vocab.tsv"
    argv = ["build-vocab", "--corpus", str(corpus), "--lexicon", str(lexicon),
            "--min-count", "2", "--output", str(vocab)]
    with contextlib.redirect_stdout(io.StringIO()):
        if kgvec.cli.main(argv) != 0:
            raise SystemExit(f"kgvec {' '.join(argv)} failed")
    config = root / "run.cfg"
    config.write_text(
        f"corpus={corpus}\ntriples={tsv}\nvocab={vocab}\nlexicon={lexicon}\n"
        "min-count=3\nvariant=lowrank\ndim=16\nhead-rank=4\ntail-rank=12\n"
        "negatives=3\nmargin=0.5\nalpha=0.4\nlr=0.02\nepochs=2\nwindow=2\n"
        "seed=7\nsubsample=0.001\nfloat32=no\n",
        encoding="utf-8",
    )
    for label, flags in (("every flag", []), ("--dim 12 over the file", ["--dim", "12"])):
        ckpt = root / "config.kgv"
        report = _train_cli(["train", "--config", str(config), *flags,
                             "--checkpoint", str(ckpt)])
        _print_run(f"config\t{label}", report, ckpt)


def _analogy_digests(root: Path) -> None:
    from synthdata import relation_world
    from worlds import kgworld

    from kgvec.corpus import Vocabulary
    from kgvec.evaluation import (
        load_analogy_questions,
        make_analogy_predictor,
        run_analogy_suite,
    )
    from kgvec.kg import load_triples
    from kgvec.model import ModelConfig
    from kgvec.trainer import TrainConfig, train

    tokens, vocab, triples, questions = relation_world(
        seed=5, corpus_len=8000, n_questions=200
    )
    state, _ = train(
        tokens, vocab, triples,
        ModelConfig("lowrank", dim=32, head_rank=8, tail_rank=24),
        TrainConfig(alpha=0.2, epochs=2, window=3, seed=5),
    )
    runs = [("relation_world", state, questions)]

    world = kgworld(root, seed=9)
    vocab = Vocabulary.load(world.files["vocab"])
    state, _ = train(
        None, vocab, load_triples(world.files["triples"], vocab),
        ModelConfig("lowrank", dim=100, head_rank=50, tail_rank=90),
        TrainConfig(alpha=1.0, epochs=2, seed=9),
    )
    runs.append(("kgworld", state, load_analogy_questions(world.files["questions"])))

    for name, state, questions in runs:
        pairs = len({(q.a, q.b) for q in questions})
        for mode in ("relational", "3cosadd"):
            answers = []
            predict = make_analogy_predictor(state, mode)

            def record(a, b, c):
                # one question's tokens or, where the suite scores blocks, token lists
                got = predict(a, b, c)
                answers.extend([got] if isinstance(got, str) else got)
                return got

            report = run_analogy_suite(questions, record, state.vocab)
            sha = hashlib.sha256("\n".join(answers).encode("utf-8")).hexdigest()
            print(
                f"{name}\t{mode}\tanswers {sha}\taccuracy {report.total_accuracy:.4f}"
                f"\tquestions {len(answers)}\tdistinct (a, b) {pairs}"
            )


def _stats_digests(root: Path) -> None:
    from worlds import kgworld

    import kgvec.cli
    from kgvec.corpus import Vocabulary
    from kgvec.kg import compute_mapping_stats, load_triples

    world = kgworld(root, seed=9)
    triples = str(world.files["triples"])
    vocab = Vocabulary.load(world.files["vocab"])
    half = root / "half-vocab.tsv"
    Vocabulary(vocab.tokens[::2], vocab.counts[::2]).save(half)
    for label, filter_path in (("all", None), ("--vocab half", half)):
        out = root / "stats.tsv"
        argv = ["stats", "--triples", triples, "--output", str(out)]
        if filter_path is not None:
            argv += ["--vocab", str(filter_path)]
        if kgvec.cli.main(argv) != 0:
            raise SystemExit(f"kgvec {' '.join(argv)} failed")
        text = out.read_text(encoding="utf-8")
        entity_filter = Vocabulary.load(filter_path) if filter_path else None
        stats = compute_mapping_stats(load_triples(triples, entity_filter))
        arrays = hashlib.sha256(stats.tails_per_head.tobytes() + stats.heads_per_tail.tobytes())
        print(
            f"kgworld\tstats {label}\ttsv {hashlib.sha256(text.encode()).hexdigest()}"
            f"\tarrays {arrays.hexdigest()}\trows {len(text.splitlines())}"
        )


def digest() -> None:
    """Print every digest of the ``kgvec`` on the import path."""
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
    with tempfile.TemporaryDirectory() as tmp:
        _checkpoint_digests(Path(tmp))
        _config_digests(Path(tmp))
        _analogy_digests(Path(tmp))
        _stats_digests(Path(tmp))


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _start(src: Path) -> subprocess.Popen:
    if not (src / "kgvec" / "__init__.py").is_file():
        raise SystemExit(f"{src} holds no kgvec package")
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen(
        [sys.executable, __file__, "--digest"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def compare(old: Path, new: Path) -> int:
    """Print ``identical`` or the first differing line; 0 or 1 as status."""
    procs = [_start(old), _start(new)]
    results = [proc.communicate() for proc in procs]
    for src, proc, (_, err) in zip((old, new), procs, results):
        if proc.returncode != 0:
            raise SystemExit(f"digests of {src} failed:\n{err}")
    a, b = (out.splitlines() for out, _ in results)
    for i in range(max(len(a), len(b))):
        line_a = a[i] if i < len(a) else "(no line)"
        line_b = b[i] if i < len(b) else "(no line)"
        if line_a != line_b:
            print(f"line {i + 1} differs:\n  {old}: {line_a}\n  {new}: {line_b}")
            return 1
    print("identical")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "parent_src", nargs="?", type=Path,
        help="kgvec source directory to compare this checkout's src against",
    )
    parser.add_argument(
        "--digest", action="store_true",
        help="print the digests of the kgvec on PYTHONPATH and compare nothing",
    )
    args = parser.parse_args(argv)
    if args.digest:
        digest()
        return 0
    if args.parent_src is None:
        parser.error("give the source directory to compare against")
    return compare(args.parent_src.resolve(), ROOT / "src")


if __name__ == "__main__":
    sys.exit(main())
