"""The three workloads.  Each has a set-up step, repeated to time set-up, and
a round of timed operations that the runner repeats for the run's length.

Library calls go through module attributes (``trainer.train``,
``evaluation.run_analogy_suite``) so the tracer sees them; the CLI runs
in-process through ``kgvec.cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import math
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable, TypeVar

import kgvec.cli
from kgvec import corpus, evaluation, kg, trainer
from kgvec.corpus import Vocabulary
from kgvec.model import ModelConfig
from kgvec.trainer import TrainConfig

import checks
import worlds
from checks import Checker

T = TypeVar("T")
KG_VARIANTS = ("lowrank", "transe", "transh", "se", "transr")

# Layers every workload must reach through at least one traced call.
ALWAYS = {
    "trainer.train",
    "trainer.init_state",
    "trainer.save_checkpoint",
    "trainer.load_checkpoint",
    "model.knowledge_loss_grad.lowrank",
    "model.score_triple",
    "projection.apply",
    "projection.apply_transpose",
    "kg.corrupt_triple",
    "kg.load_triples",
    "corpus.context_pair_arrays",
    "evaluation.RelationalAnalogy.init",
    "evaluation.RelationalAnalogy.call",
    "evaluation.RelationalAnalogy.best_relation",
    "evaluation.analogy_3cosadd",
    "evaluation.run_analogy_suite",
    "evaluation.rank_sweep",
    "cli.train",
    "cli.rank_sweep",
}
OTHER_VARIANTS = {f"model.knowledge_loss_grad.{v}" for v in KG_VARIANTS[1:]}
TEXT_INGEST = {
    "model.skipgram_ns_loss_grad",
    "corpus.tokenize",
    "corpus.merge_phrases",
    "corpus.build_vocabulary",
    "corpus.build_negative_table",
}
LEXICON_CLI = {
    "corpus.load_phrase_lexicon",
    "cli.build_vocab",
    "cli.eval_analogy",
    "cli.export",
    "model.save_embeddings_text",
}


UNITS = {
    "train_steps_per_s": "1/s",
    "final_loss": "loss",
    "analogy_acc": "ratio",
    "analogy_relational_q_per_s": "1/s",
    "analogy_3cosadd_q_per_s": "1/s",
    "ckpt_save_s": "s",
    "ckpt_load_s": "s",
    "cli_train_s": "s",
    "cli_rank_sweep_s": "s",
}


class Recorder:
    """Times operations and keeps samples per end-to-end metric.

    With a tracer, every operation runs twice back to back, plain and then
    traced, so the tracing overhead compares like with like; results and
    samples come from the plain run.
    """

    def __init__(self, tracer=None) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.tracer = tracer
        self.work_s = 0.0
        self.traced_s = 0.0

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def time(self, fn: Callable[[], T]) -> tuple[T, float]:
        """Run ``fn()``; return its result and its wall time in seconds."""
        start = perf_counter()
        result = fn()
        seconds = perf_counter() - start
        self.work_s += seconds
        if self.tracer is not None:
            self.tracer.install()
            try:
                start = perf_counter()
                fn()
                self.traced_s += perf_counter() - start
            finally:
                self.tracer.uninstall()
        return result, seconds


def run_cli(check: Checker, argv: list[str]) -> None:
    """``kgvec.cli.main(argv)`` in-process, its output kept off our stdout."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = kgvec.cli.main(argv)
    check.expect(rc == 0, f"kgvec {argv[0]} exited {rc}: {err.getvalue().strip()}")


class TrainStopwatch:
    """Times each ``train()`` the CLI makes, keeping its report."""

    def __init__(self) -> None:
        self.calls: list[tuple[float, trainer.TrainReport]] = []

    def __enter__(self) -> "TrainStopwatch":
        self._original = kgvec.cli.train

        def timed(*args, **kwargs):
            start = perf_counter()
            state, report = self._original(*args, **kwargs)
            self.calls.append((perf_counter() - start, report))
            return state, report

        kgvec.cli.train = timed
        return self

    def __exit__(self, *exc) -> None:
        kgvec.cli.train = self._original


def steps(report: trainer.TrainReport) -> int:
    return sum(r.text_steps + r.kg_steps for r in report.rows)


def time_checkpoints(rec: Recorder, check: Checker, states, path: Path, reps: int) -> None:
    """Save then load every state ``reps`` times; each repetition's summed
    save and load times are one sample.  The first repetition is checked
    for a bitwise round trip."""
    for rep in range(reps):
        save_s = load_s = 0.0
        for label, state in states:
            save_s += rec.time(lambda: trainer.save_checkpoint(state, path))[1]
            loaded, seconds = rec.time(lambda: trainer.load_checkpoint(path))
            load_s += seconds
            if rep == 0:
                checks.check_same_state(check, label, state, loaded)
        rec.add("ckpt_save_s", save_s)
        rec.add("ckpt_load_s", load_s)


def time_library_analogy(rec: Recorder, state, questions, vocab) -> None:
    """Predictor construction plus the whole suite, once per mode."""
    for mode in ("relational", "3cosadd"):
        report, seconds = rec.time(lambda: evaluation.run_analogy_suite(
            questions, evaluation.make_analogy_predictor(state, mode), vocab))
        rec.add(f"analogy_{mode}_q_per_s", len(questions) / seconds)
        if mode == "relational":
            rec.add("analogy_acc", report.total_accuracy)


class Workload:
    name = ""
    why = ""
    hit: set[str] = set()
    bypass: set[str] = set()

    def __init__(self, directory: Path, seed: int):
        self.dir = directory
        self.seed = seed
        self.final_losses: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, rec: Recorder, check: Checker, first: bool) -> None:
        raise NotImplementedError

    def check_deterministic(self, check: Checker, loss: float) -> None:
        """Every round trains the same inputs with the same seed."""
        if self.final_losses:
            check.expect(loss == self.final_losses[0], f"{self.name}: final loss differs between rounds")
        self.final_losses.append(loss)

    def coverage(self, check: Checker, calls: dict[str, int], counters: dict[str, float]) -> None:
        """Every layer this workload should reach was called, and every layer
        it should bypass was not."""
        for name in sorted(self.hit):
            check.expect(calls.get(name, 0) > 0, f"{self.name}: traced layer {name} was never called")
        for name in sorted(self.bypass):
            check.expect(calls.get(name, 0) == 0, f"{self.name}: {name} was called but should be bypassed")


# ---------------------------------------------------------------------------


class JointRelworld(Workload):
    name = "joint-relworld"
    why = "joint skip-gram + lowrank at d=32 on a 500-row vocabulary: per-step dispatch dominates"
    hit = ALWAYS | TEXT_INGEST
    bypass = OTHER_VARIANTS | LEXICON_CLI

    model = ModelConfig(variant="lowrank", dim=32, head_rank=16, tail_rank=29)

    def __init__(self, directory: Path, seed: int):
        super().__init__(directory, seed)
        self.world = worlds.relworld(directory, seed)
        self.params = dict(self.world.params, dim=32, head_rank=16, tail_rank=29, alpha=0.2, window=3, epochs=2)
        self.train_config = TrainConfig(alpha=0.2, epochs=2, seed=seed, window=3)
        f = self.world.files
        common = [
            "--corpus", str(f["cli_corpus"]), "--triples", str(f["triples"]), "--min-count", "1",
            "--dim", "32", "--tail-rank", "29", "--alpha", "0.2", "--window", "3",
            "--epochs", "1", "--seed", str(seed),
        ]
        self.cli_train = ["train", *common, "--head-rank", "16",
                          "--checkpoint", str(directory / "cli.ckpt"), "--report", str(directory / "cli.tsv")]
        self.cli_sweep = ["rank-sweep", *common, "--questions", str(f["questions"]),
                          "--head-ranks", "8,16", "--tail-ranks", "29", "--output", str(directory / "sweep.tsv")]

    def setup(self) -> None:
        f = self.world.files
        with open(f["vocab_text"], encoding="utf-8") as fh:
            self.vocab = corpus.build_vocabulary(fh, min_count=1)
        with open(f["corpus"], encoding="utf-8") as fh:
            self.tokens = [t for line in fh for t in corpus.tokenize(line)]
        self.triples = kg.load_triples(f["triples"], self.vocab)
        self.questions = evaluation.load_analogy_questions(f["questions"])
        warm = TrainConfig(alpha=0.2, epochs=1, seed=self.seed, window=3)
        trainer.train(self.tokens[:300], self.vocab, self.triples, self.model, warm)

    def round(self, rec: Recorder, check: Checker, first: bool) -> None:
        (state, report), seconds = rec.time(
            lambda: trainer.train(self.tokens, self.vocab, self.triples, self.model, self.train_config))
        rec.add("train_steps_per_s", steps(report) / seconds)
        rec.add("final_loss", report.final_combined)
        self.check_deterministic(check, report.final_combined)
        if first:
            checks.check_trained(check, self.name, state, report)
            predictors = {m: evaluation.make_analogy_predictor(state, m) for m in ("relational", "3cosadd")}
            checks.check_analogy_oracles(check, self.name, state, self.questions[:40], predictors)

        # Short operations run between the long ones, so their samples span
        # the round instead of one moment of it.
        def short_ops() -> None:
            time_checkpoints(rec, check, [(self.name, state)], self.dir / "lib.ckpt", reps=2)
            time_library_analogy(rec, state, self.questions, self.vocab)

        short_ops()
        rec.add("cli_train_s", rec.time(lambda: run_cli(check, self.cli_train))[1])
        short_ops()
        rec.add("cli_rank_sweep_s", rec.time(lambda: run_cli(check, self.cli_sweep))[1])
        short_ops()

    def coverage(self, check: Checker, calls: dict[str, int], counters: dict[str, float]) -> None:
        super().coverage(check, calls, counters)
        check.expect(counters["merge_phrases.lexicon_entries"] == 0,
                     f"{self.name}: merge_phrases scanned a phrase lexicon")


class KgVariants(Workload):
    name = "kg-variants-d100"
    why = "KG-only training of all five variants at d=100: scoring, corruption and d x d parameters"
    hit = ALWAYS | OTHER_VARIANTS
    bypass = TEXT_INGEST | LEXICON_CLI

    def __init__(self, directory: Path, seed: int):
        super().__init__(directory, seed)
        self.world = worlds.kgworld(directory, seed)
        self.params = dict(self.world.params, dim=100, head_rank=50, tail_rank=90, alpha=1.0, epochs=2)
        self.configs = [
            ModelConfig(variant=v, dim=100, head_rank=50, tail_rank=90) for v in KG_VARIANTS
        ]
        self.train_config = TrainConfig(alpha=1.0, epochs=2, seed=seed)
        f = self.world.files
        common = [
            "--vocab", str(f["vocab"]), "--triples", str(f["triples"]), "--alpha", "1",
            "--dim", "100", "--tail-rank", "90", "--epochs", "1", "--seed", str(seed),
        ]
        self.cli_train = ["train", *common, "--head-rank", "50",
                          "--checkpoint", str(directory / "cli.ckpt"), "--report", str(directory / "cli.tsv")]
        self.cli_sweep = ["rank-sweep", *common, "--questions", str(f["questions"]),
                          "--head-ranks", "25,50", "--tail-ranks", "90", "--output", str(directory / "sweep.tsv")]

    def setup(self) -> None:
        f = self.world.files
        self.vocab = Vocabulary.load(f["vocab"])
        self.triples = kg.load_triples(f["triples"], self.vocab)
        self.questions = evaluation.load_analogy_questions(f["questions"])
        warm_triples = kg.load_triples(f["warmup_triples"], self.vocab)
        warm = TrainConfig(alpha=1.0, epochs=1, seed=self.seed)
        for mc in self.configs:
            trainer.train(None, self.vocab, warm_triples, mc, warm)

    def round(self, rec: Recorder, check: Checker, first: bool) -> None:
        states = []
        total_steps = 0
        total_s = 0.0
        log_loss = 0.0
        for mc in self.configs:
            (state, report), seconds = rec.time(
                lambda: trainer.train(None, self.vocab, self.triples, mc, self.train_config))
            total_s += seconds
            total_steps += steps(report)
            log_loss += math.log(report.final_combined)
            states.append((f"{self.name}/{mc.variant}", state))
            if first:
                checks.check_trained(check, f"{self.name}/{mc.variant}", state, report)
        rec.add("train_steps_per_s", total_steps / total_s)
        # geometric mean: every variant's loss counts by its relative change
        loss = math.exp(log_loss / len(self.configs))
        rec.add("final_loss", loss)
        self.check_deterministic(check, loss)

        lowrank = states[0][1]
        if first:
            predictors = {m: evaluation.make_analogy_predictor(lowrank, m) for m in ("relational", "3cosadd")}
            checks.check_analogy_oracles(check, self.name, lowrank, self.questions[:40], predictors)

        def short_ops() -> None:
            time_checkpoints(rec, check, states, self.dir / "lib.ckpt", reps=1)
            time_library_analogy(rec, lowrank, self.questions, self.vocab)

        short_ops()
        rec.add("cli_train_s", rec.time(lambda: run_cli(check, self.cli_train))[1])
        short_ops()
        rec.add("cli_rank_sweep_s", rec.time(lambda: run_cli(check, self.cli_sweep))[1])
        short_ops()


class CliBigvocab(Workload):
    name = "cli-bigvocab"
    why = "the kgvec CLI over a 20k-entry lexicon: ingestion, checkpoint I/O and analogy scans beyond L2"
    hit = ALWAYS | TEXT_INGEST | LEXICON_CLI
    bypass = OTHER_VARIANTS

    def __init__(self, directory: Path, seed: int):
        super().__init__(directory, seed)
        self.world = worlds.bigworld(directory, seed)
        self.params = dict(self.world.params, dim=100, head_rank=50, tail_rank=90, alpha=0.2, window=2, epochs=1)
        f = self.world.files
        d = directory
        self.paths = {k: str(d / n) for k, n in (
            ("vocab", "vocab.tsv"), ("ckpt", "cli.ckpt"), ("report", "cli.tsv"),
            ("relational", "relational.tsv"), ("3cosadd", "3cosadd.tsv"), ("export", "vectors.txt"),
            ("sweep", "sweep.tsv"), ("lib", "lib.ckpt"),
        )}
        model = ["--dim", "100", "--tail-rank", "90", "--alpha", "0.2", "--window", "2",
                 "--epochs", "1", "--seed", str(seed), "--triples", str(f["triples"])]
        p = self.paths
        self.steps = [
            ("build_vocab", ["build-vocab", "--corpus", str(f["corpus"]), "--lexicon", str(f["lexicon"]),
                             "--min-count", "1", "--output", p["vocab"]]),
            ("train", ["train", "--corpus", str(f["corpus"]), "--vocab", p["vocab"], "--lexicon", str(f["lexicon"]),
                       *model, "--head-rank", "50", "--checkpoint", p["ckpt"], "--report", p["report"]]),
            ("relational", ["eval-analogy", "--checkpoint", p["ckpt"], "--questions", str(f["questions"]),
                            "--mode", "relational", "--output", p["relational"]]),
            ("3cosadd", ["eval-analogy", "--checkpoint", p["ckpt"], "--questions", str(f["questions"]),
                         "--mode", "3cosadd", "--output", p["3cosadd"]]),
            ("export", ["export", "--checkpoint", p["ckpt"], "--output", p["export"]]),
            ("rank_sweep", ["rank-sweep", "--corpus", str(f["corpus"]), "--lexicon", str(f["lexicon"]),
                            "--min-count", "1", *model, "--questions", str(f["questions"]),
                            "--head-ranks", "25,50", "--tail-ranks", "90", "--output", p["sweep"]]),
        ]
        w = self.world.files
        self.warmup = [
            ["build-vocab", "--corpus", str(w["warmup_corpus"]), "--lexicon", str(w["warmup_lexicon"]),
             "--min-count", "1", "--output", str(d / "warm_vocab.tsv")],
            ["train", "--corpus", str(w["warmup_corpus"]), "--lexicon", str(w["warmup_lexicon"]),
             "--min-count", "1", "--alpha", "0", "--dim", "100", "--window", "2", "--seed", str(seed),
             "--checkpoint", str(d / "warm.ckpt"), "--report", str(d / "warm.tsv")],
        ]

    def setup(self) -> None:
        f = self.world.files
        self.questions = evaluation.load_analogy_questions(f["questions"])
        warm_check = Checker()
        for argv in self.warmup:
            run_cli(warm_check, argv)
        if warm_check.failures:
            raise RuntimeError("; ".join(warm_check.failures))

    def round(self, rec: Recorder, check: Checker, first: bool) -> None:
        seconds: dict[str, float] = {}
        with TrainStopwatch() as sw:
            for key, argv in self.steps:
                seconds[key] = rec.time(lambda: run_cli(check, argv))[1]
        train_s, report = sw.calls[0]
        rec.add("train_steps_per_s", steps(report) / train_s)
        rec.add("final_loss", report.final_combined)
        self.check_deterministic(check, report.final_combined)
        rec.add("cli_train_s", seconds["train"])
        rec.add("cli_rank_sweep_s", seconds["rank_sweep"])
        n_questions = len(self.questions)
        for mode in ("relational", "3cosadd"):
            rec.add(f"analogy_{mode}_q_per_s", n_questions / seconds[mode])
        _, accuracy = checks.parse_eval_total(Path(self.paths["relational"]).read_text(encoding="utf-8"))
        rec.add("analogy_acc", float(accuracy))

        lib = Path(self.paths["lib"])
        state, load_s = rec.time(lambda: trainer.load_checkpoint(self.paths["ckpt"]))
        rec.add("ckpt_load_s", load_s)
        rec.add("ckpt_save_s", rec.time(lambda: trainer.save_checkpoint(state, lib))[1])
        if first:
            self._check_outputs(check, state, report, lib)

    def _check_outputs(self, check: Checker, state, report, lib: Path) -> None:
        checks.check_trained(check, self.name, state, report)
        checks.check_same_state(check, self.name, state, trainer.load_checkpoint(lib))
        with open(self.paths["export"], encoding="utf-8") as fh:
            header = fh.readline().split()
            rows = sum(1 for _ in fh)
        check.expect(
            header == [str(len(state.vocab)), "100"] and rows == len(state.vocab),
            f"{self.name}: export has {rows} rows for {len(state.vocab)} tokens",
        )
        check.expect(len(state.vocab) >= 20_000, f"{self.name}: vocabulary has only {len(state.vocab)} rows")
        for mode in ("relational", "3cosadd"):
            cli = checks.parse_eval_total(Path(self.paths[mode]).read_text(encoding="utf-8"))
            lib_report = evaluation.run_analogy_suite(
                self.questions, evaluation.make_analogy_predictor(state, mode), state.vocab
            )
            check.expect(
                cli == (lib_report.total_answered, f"{lib_report.total_accuracy:.4f}"),
                f"{self.name}: CLI {mode} accuracy {cli} differs from the library's "
                f"{lib_report.total_answered}, {lib_report.total_accuracy:.4f}",
            )
        predictors = {m: evaluation.make_analogy_predictor(state, m) for m in ("relational", "3cosadd")}
        checks.check_analogy_oracles(check, self.name, state, self.questions[:6], predictors)


WORKLOADS = {w.name: w for w in (JointRelworld, KgVariants, CliBigvocab)}


def summarize(rec: Recorder) -> dict[str, tuple[float, str]]:
    return {name: (median(values), UNITS[name]) for name, values in rec.samples.items()}
