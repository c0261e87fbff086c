"""Outside-in tracing: wrap kgvec's public functions at their lookup sites.

Installing a :class:`Tracer` replaces each traced function in the module (or
class) namespace that callers resolve it from, e.g. ``kgvec.trainer.
skipgram_ns_loss_grad`` or ``LowRankProjection.apply``; uninstalling puts
the originals back.  Each wrapper keeps a stack frame so that a layer's self
time is its own duration minus the time its traced children took.

Coarse calls (train, checkpoints, CLI subcommands) are also kept as spans
``(id, parent, name, start, end, run)``; per-micro-step kernels only update
aggregate counters, which keeps the overhead bounded.  Nothing is written
until :meth:`Tracer.dump` runs at the end of the benchmark.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import kgvec.cli
import kgvec.corpus
import kgvec.evaluation
import kgvec.kg
import kgvec.model
import kgvec.trainer
from kgvec.evaluation import RelationalAnalogy
from kgvec.projection import LowRankProjection

import kernels

# (owner, attribute, layer name, kind).  kind: "span" keeps a span per call,
# "count" only aggregates, "sample" aggregates and keeps each duration.
# One layer name may be installed at several lookup sites.
SITES: list[tuple[Any, str, str, str]] = [
    (kgvec.trainer, "skipgram_ns_loss_grad", "model.skipgram_ns_loss_grad", "count"),
    (kgvec.trainer, "knowledge_loss_grad", "model.knowledge_loss_grad", "count"),
    (kgvec.model, "score_triple", "model.score_triple", "count"),
    (LowRankProjection, "apply", "projection.apply", "count"),
    (LowRankProjection, "apply_transpose", "projection.apply_transpose", "count"),
    (kgvec.trainer, "corrupt_triple", "kg.corrupt_triple", "count"),
    (kgvec.trainer, "init_state", "trainer.init_state", "span"),
    (kgvec.trainer, "train", "trainer.train", "span"),
    (kgvec.cli, "train", "trainer.train", "span"),
    (kgvec.evaluation, "train", "trainer.train", "span"),
    (kgvec.trainer, "save_checkpoint", "trainer.save_checkpoint", "span"),
    (kgvec.cli, "save_checkpoint", "trainer.save_checkpoint", "span"),
    (kgvec.trainer, "load_checkpoint", "trainer.load_checkpoint", "span"),
    (kgvec.cli, "load_checkpoint", "trainer.load_checkpoint", "span"),
    (kgvec.corpus, "tokenize", "corpus.tokenize", "count"),
    (kgvec.cli, "tokenize", "corpus.tokenize", "count"),
    (kgvec.corpus, "merge_phrases", "corpus.merge_phrases", "count"),
    (kgvec.cli, "merge_phrases", "corpus.merge_phrases", "count"),
    (kgvec.corpus, "build_vocabulary", "corpus.build_vocabulary", "span"),
    (kgvec.cli, "build_vocabulary", "corpus.build_vocabulary", "span"),
    (kgvec.cli, "load_phrase_lexicon", "corpus.load_phrase_lexicon", "span"),
    (kgvec.trainer, "context_pair_arrays", "corpus.context_pair_arrays", "span"),
    (kgvec.trainer, "build_negative_table", "corpus.build_negative_table", "span"),
    (kgvec.kg, "load_triples", "kg.load_triples", "span"),
    (kgvec.cli, "load_triples", "kg.load_triples", "span"),
    (kgvec.cli, "save_embeddings_text", "model.save_embeddings_text", "span"),
    (RelationalAnalogy, "__init__", "evaluation.RelationalAnalogy.init", "span"),
    (RelationalAnalogy, "__call__", "evaluation.RelationalAnalogy.call", "sample"),
    (RelationalAnalogy, "best_relation", "evaluation.RelationalAnalogy.best_relation", "count"),
    (kgvec.evaluation, "analogy_3cosadd", "evaluation.analogy_3cosadd", "sample"),
    (kgvec.evaluation, "run_analogy_suite", "evaluation.run_analogy_suite", "span"),
    (kgvec.evaluation, "rank_sweep", "evaluation.rank_sweep", "span"),
    (kgvec.cli, "cmd_build_vocab", "cli.build_vocab", "span"),
    (kgvec.cli, "cmd_train", "cli.train", "span"),
    (kgvec.cli, "cmd_eval_analogy", "cli.eval_analogy", "span"),
    (kgvec.cli, "cmd_export", "cli.export", "span"),
    (kgvec.cli, "cmd_rank_sweep", "cli.rank_sweep", "span"),
]

class Stat:
    __slots__ = ("calls", "total", "self_time", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.samples: list[float] = []


class Tracer:
    """Span and counter recorder; create one per benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list[tuple[int, int, str, float, float, str]] = []
        # Work counters the wrappers observe on arguments and results.
        self.counters: dict[str, float] = defaultdict(float)
        self.relations_seen: set[tuple[int, int]] = set()
        self._ids = itertools.count()
        self._stack: list[list[float]] = []
        self._originals: list[tuple[Any, str, Any]] = []
        self._epoch = perf_counter()

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, kind in SITES:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, kind, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- recording --------------------------------------------------------
    def _wrap(self, name: str, kind: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(name)
        stack = self._stack
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # frame: [time taken by traced children, span id]
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
            key = name if observe is None else observe(self, args, result) or name
            stat = self.stats[key]
            stat.calls += 1
            stat.total += duration
            stat.self_time += duration - frame[0]
            if kind == "sample":
                stat.samples.append(duration)
            elif kind == "span":
                spans.append(
                    (frame[1], parent, key, start - self._epoch, end - self._epoch, self.run_id)
                )
            return result

        return wrapper

    def dump(self, path: Path, extra: dict) -> None:
        """Write spans, per-layer aggregates and ``extra`` as one JSON file."""
        data = {
            "run": self.run_id,
            "layers": {
                k: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
                for k, s in sorted(self.stats.items())
            },
            "counters": dict(self.counters),
            "spans": [
                {"id": i, "parent": p, "name": n, "start": a, "end": b, "run": r}
                for i, p, n, a, b, r in self.spans
            ],
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(data, indent=1), encoding="utf-8")
        tmp.replace(path)


# Observers see (tracer, args, result) after a call and may return a more
# specific layer name.  They derive work counts from public values only.


@functools.lru_cache(maxsize=None)
def _knowledge_counts(variant: str, d: int, mh: int, mt: int, active: bool) -> tuple[float, float]:
    return kernels.knowledge(variant, d, mh, mt, 1.0 if active else 0.0)


def _observe_knowledge(tracer: Tracer, args, result) -> str:
    config = args[0]
    variant = config.variant
    flops, bytes_ = _knowledge_counts(variant, config.dim, config.head_rank, config.tail_rank, result.active)
    tracer.counters[f"active.{variant}"] += 1.0 if result.active else 0.0
    tracer.counters[f"flops.{variant}"] += flops
    tracer.counters[f"bytes.{variant}"] += bytes_
    return f"model.knowledge_loss_grad.{variant}"


def _observe_skipgram(tracer: Tracer, args, result) -> None:
    k, d = args[2].shape
    flops, bytes_ = kernels.skipgram(d, k)
    tracer.counters["flops.skipgram"] += flops
    tracer.counters["bytes.skipgram"] += bytes_


def _observe_merge(tracer: Tracer, args, result) -> None:
    tracer.counters["merge_phrases.lexicon_entries"] += len(args[1])
    tracer.counters["merge_phrases.tokens"] += len(args[0])


def _observe_best_relation(tracer: Tracer, args, result) -> None:
    # RelationalAnalogy caches projected tails per (predictor, relation), so
    # the first call for a pair misses and every later one hits.
    key = (id(args[0]), int(result))
    if key in tracer.relations_seen:
        tracer.counters["relational.tail_cache_hits"] += 1
    else:
        tracer.relations_seen.add(key)
        tracer.counters["relational.tail_cache_misses"] += 1


def _observe_3cosadd(tracer: Tracer, args, result) -> None:
    vectors = args[4]
    tracer.counters["3cosadd.bytes"] += kernels.cosadd_bytes(*vectors.shape)


def _observe_checkpoint_save(tracer: Tracer, args, result) -> None:
    tracer.counters["checkpoint.save_bytes"] += os.path.getsize(args[1])


def _observe_checkpoint_load(tracer: Tracer, args, result) -> None:
    tracer.counters["checkpoint.load_bytes"] += os.path.getsize(args[0])


_OBSERVERS: dict[str, Callable] = {
    "model.skipgram_ns_loss_grad": _observe_skipgram,
    "model.knowledge_loss_grad": _observe_knowledge,
    "corpus.merge_phrases": _observe_merge,
    "evaluation.RelationalAnalogy.best_relation": _observe_best_relation,
    "evaluation.analogy_3cosadd": _observe_3cosadd,
    "trainer.save_checkpoint": _observe_checkpoint_save,
    "trainer.load_checkpoint": _observe_checkpoint_load,
}
