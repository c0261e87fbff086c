import contextlib
import io
import json
import os
import re
import runpy
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kgvec.cli
import kgvec.evaluation
from kgvec.cli import main
from kgvec.corpus import Vocabulary, build_vocabulary, load_phrase_lexicon, read_lines
from kgvec.errors import CheckpointError, EmptyKGError, ParseError
from kgvec.evaluation import (
    analogy_3cosadd,
    load_analogy_questions,
    load_similarity_pairs,
)
from kgvec.kg import load_triples
from kgvec.model import (
    EmbeddingStore,
    LowRankRelation,
    ModelConfig,
    SERelation,
    TransERelation,
    TransRRelation,
)
from kgvec.projection import LowRankProjection
from kgvec.trainer import (
    BLOCK,
    CHECKPOINT_MAGIC,
    ModelState,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
)
from oracles import identity_projection, load_embeddings_text, relation_stacks
from test_trainer import poison_after_last_step


CORPUS = (
    "the king rules the old land and the queen rules the new land\n"
    "a king and a queen met a man and a woman in the old town\n"
    "paris is in france while london is in england\n"
    "the man walked to paris and the woman walked to london\n"
) * 12


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def corpus_file(tmp_path):
    return write(tmp_path / "corpus.txt", CORPUS)


@pytest.fixture
def triples_file(tmp_path):
    return write(
        tmp_path / "kg.tsv",
        "paris\tcapital_of\tfrance\n"
        "london\tcapital_of\tengland\n"
        "king\tgender_of\tman\n"
        "queen\tgender_of\twoman\n",
    )


class TestBuildVocab:
    def test_matches_library_oracle(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "vocab.tsv"
        assert main(["build-vocab", "--corpus", corpus_file, "--min-count", "2",
                     "--output", str(out)]) == 0
        with open(corpus_file, encoding="utf-8") as fh:
            expected = build_vocabulary(fh, min_count=2)
        got = Vocabulary.load(out)
        assert got.tokens == expected.tokens
        assert got.counts.tolist() == expected.counts.tolist()

    def test_missing_corpus_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.txt")
        rc = main(["build-vocab", "--corpus", missing, "--output", str(tmp_path / "v")])
        assert rc == 2
        assert missing in capsys.readouterr().err

    def test_min_count_one_keeps_all_non_digit_tokens(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.txt", "alpha beta 42 gamma\n")
        out = tmp_path / "vocab.tsv"
        assert main(["build-vocab", "--corpus", corpus, "--min-count", "1",
                     "--output", str(out)]) == 0
        got = Vocabulary.load(out)
        assert sorted(got.tokens) == ["alpha", "beta", "gamma"]


class TestStats:
    def test_two_triple_fixture(self, tmp_path, capsys):
        path = write(tmp_path / "kg.tsv", "h1\tr\tt\nh2\tr\tt\n")
        assert main(["stats", "--triples", path]) == 0
        out = capsys.readouterr().out
        mean_row = [l for l in out.splitlines() if l.startswith("MEAN")][0]
        assert mean_row.split("\t") == ["MEAN", "1", "2"]

    def test_single_triple(self, tmp_path, capsys):
        path = write(tmp_path / "kg.tsv", "h\tr\tt\n")
        assert main(["stats", "--triples", path]) == 0
        out = capsys.readouterr().out
        assert "MEAN\t1\t1" in out
        assert "STD\t0\t0" in out

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        path = write(tmp_path / "kg.tsv", "not tab separated\n")
        assert main(["stats", "--triples", path]) == 2

    def test_module_runs_as_a_program(self, tmp_path, capsys):
        path = write(tmp_path / "t.tsv", "h1\tr\tt\nh2\tr\tt\n")
        assert main(["stats", "--triples", path]) == 0
        want = capsys.readouterr().out
        src = str(Path(kgvec.cli.__file__).parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "kgvec.cli", "stats", "--triples", path],
            env=dict(os.environ, PYTHONPATH=pythonpath),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want

    @pytest.mark.filterwarnings("ignore:'kgvec.cli' found in sys.modules:RuntimeWarning")
    def test_main_block_exits_with_the_command_code(self, tmp_path, monkeypatch, capsys):
        # The same run as above, in this process, where tools/untested_lines.py sees it.
        path = write(tmp_path / "t.tsv", "h1\tr\tt\nh2\tr\tt\n")
        monkeypatch.setattr(sys, "argv", ["kgvec", "stats", "--triples", path])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("kgvec.cli", run_name="__main__")
        assert exc.value.code == 0
        assert "MEAN\t1\t2" in capsys.readouterr().out


class TestTrain:
    def test_defaults_recorded_in_report_header(self, tmp_path, corpus_file,
                                                 triples_file, capsys):
        ck = tmp_path / "model.kgv"
        rc = main(["train", "--corpus", corpus_file, "--triples", triples_file,
                   "--min-count", "1", "--checkpoint", str(ck)])
        assert rc == 0
        out = capsys.readouterr().out
        header = [l for l in out.splitlines() if l.startswith("#")]
        joined = "\n".join(header)
        assert "seed\t1" in joined
        assert "d\t100" in joined
        assert "lr\t0.025" in joined
        assert "gamma\t1.0" in joined
        state = load_checkpoint(ck)
        assert state.model_config.dim == 100

    def test_alpha_zero_needs_no_triples(self, tmp_path, corpus_file, capsys):
        ck = tmp_path / "model.kgv"
        rc = main(["train", "--corpus", corpus_file, "--alpha", "0",
                   "--min-count", "1", "--dim", "16", "--checkpoint", str(ck),
                   "--report", str(tmp_path / "rep.tsv")])
        assert rc == 0
        state = load_checkpoint(ck)
        assert state.params == []
        assert state.train_config.alpha == 0.0

    def test_text_only_checkpoint_round_trips(self, tmp_path, corpus_file, capsys):
        ck = tmp_path / "model.kgv"
        assert main(["train", "--corpus", corpus_file, "--alpha", "0",
                     "--min-count", "1", "--dim", "8", "--checkpoint", str(ck),
                     "--report", str(tmp_path / "rep.tsv")]) == 0
        state = load_checkpoint(ck)
        assert state.store.relation_vectors.shape == (0, 8)
        again = tmp_path / "again.kgv"
        save_checkpoint(state, again)
        assert again.read_bytes() == ck.read_bytes()
        out = tmp_path / "v.txt"
        assert main(["export", "--checkpoint", str(ck), "--output", str(out)]) == 0
        assert load_embeddings_text(out)[0] == state.vocab.tokens

    def test_deterministic_repeat_runs_are_bitwise_identical(
        self, tmp_path, corpus_file, triples_file
    ):
        args = ["train", "--corpus", corpus_file, "--triples", triples_file,
                "--min-count", "1", "--dim", "12", "--head-rank", "4",
                "--tail-rank", "8", "--epochs", "2", "--report", "-"]
        ck1, ck2 = tmp_path / "a.kgv", tmp_path / "b.kgv"
        assert main(args + ["--checkpoint", str(ck1)]) == 0
        assert main(args + ["--checkpoint", str(ck2)]) == 0
        assert ck1.read_bytes() == ck2.read_bytes()

    def test_export_writes_text_embeddings(self, tmp_path, corpus_file,
                                           triples_file, capsys):
        ck = tmp_path / "model.kgv"
        vec = tmp_path / "vectors.txt"
        rc = main(["train", "--corpus", corpus_file, "--triples", triples_file,
                   "--min-count", "1", "--dim", "8", "--checkpoint", str(ck),
                   "--export", str(vec), "--report", str(tmp_path / "r.tsv")])
        assert rc == 0
        tokens, vectors = load_embeddings_text(vec)
        state = load_checkpoint(ck)
        assert tokens == state.vocab.tokens
        assert vectors.shape == (len(tokens), 8)

    def test_config_file_with_flag_override(self, tmp_path, corpus_file,
                                            triples_file, capsys):
        cfg = write(
            tmp_path / "run.cfg",
            "dim=12\nalpha=0.5\nepochs=1\nmin-count=1\n"
            f"corpus={corpus_file}\ntriples={triples_file}\n",
        )
        ck = tmp_path / "model.kgv"
        rc = main(["train", "--config", cfg, "--dim", "8",
                   "--checkpoint", str(ck), "--report", str(tmp_path / "r.tsv")])
        assert rc == 0
        state = load_checkpoint(ck)
        assert state.model_config.dim == 8  # flag beats file
        assert state.train_config.alpha == 0.5  # file beats default

    @pytest.mark.parametrize("line", ["epohcs=3", "workers=4"])
    def test_unknown_config_key_is_usage_error(self, tmp_path, corpus_file,
                                               triples_file, line, capsys):
        cfg = write(tmp_path / "run.cfg", f"dim=8\n{line}\nmin-count=1\n")
        ck = tmp_path / "model.kgv"
        rc = main(["train", "--config", cfg, "--corpus", corpus_file,
                   "--triples", triples_file, "--checkpoint", str(ck)])
        assert rc == 1
        assert repr(line.split("=")[0]) in capsys.readouterr().err
        assert not ck.exists()

    def test_config_file_may_set_every_train_flag(self, tmp_path, corpus_file,
                                                  triples_file, capsys):
        vocab = tmp_path / "vocab.tsv"
        assert main(["build-vocab", "--corpus", corpus_file, "--min-count", "1",
                     "--output", str(vocab)]) == 0
        lexicon = write(tmp_path / "lexicon.txt", "paris\n")
        cfg = write(
            tmp_path / "run.cfg",
            f"corpus={corpus_file}\ntriples={triples_file}\nvocab={vocab}\n"
            f"lexicon={lexicon}\nmin-count=1\nvariant=lowrank\ndim=8\n"
            "head-rank=2\ntail-rank=4\nnegatives=2\nmargin=0.5\nalpha=0.3\n"
            "lr=0.02\nepochs=2\nwindow=3\nseed=4\nsubsample=0\nfloat32=true\n",
        )
        ck = tmp_path / "model.kgv"
        rc = main(["train", "--config", cfg, "--checkpoint", str(ck),
                   "--report", str(tmp_path / "r.tsv")])
        assert rc == 0
        state = load_checkpoint(ck)
        assert state.model_config == ModelConfig("lowrank", 8, 2, 4, 2, 0.5)
        assert state.train_config == TrainConfig(
            alpha=0.3, initial_lr=0.02, epochs=2, window=3, seed=4,
            subsample=0.0, use_float32=True,
        )

    @pytest.mark.parametrize(
        "value, float32",
        [("false", False), ("no", False), ("0", False), ("True", True), ("yes", True),
         ("1", True), ("x", None)],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_float32_takes_a_boolean_word(self, tmp_path, corpus_file, capsys,
                                          source, value, float32):
        cfg = write(tmp_path / "run.cfg", f"float32={value}\n")
        given = ["--config", cfg] if source == "config" else ["--float32", value]
        ck = tmp_path / "model.kgv"
        rc = main(["train", "--corpus", corpus_file, "--alpha", "0", "--min-count", "1",
                   "--dim", "4", "--epochs", "1", *given, "--checkpoint", str(ck)])
        if float32 is None:
            assert rc == 1
            assert "expected true/false, got 'x'" in capsys.readouterr().err
        else:
            assert rc == 0
            assert load_checkpoint(ck).train_config.use_float32 is float32

    def test_sg_variant_is_usage_error(self, tmp_path, corpus_file, capsys):
        ck = tmp_path / "model.kgv"
        rc = main(["train", "--corpus", corpus_file, "--variant", "sg", "--alpha", "0",
                   "--min-count", "1", "--checkpoint", str(ck)])
        assert rc == 1
        assert "invalid choice: 'sg'" in capsys.readouterr().err
        assert not ck.exists()

    def test_alpha_validation_is_usage_error(self, tmp_path, corpus_file,
                                             triples_file, capsys):
        rc = main(["train", "--corpus", corpus_file, "--triples", triples_file,
                   "--alpha", "1.5", "--checkpoint", str(tmp_path / "x.kgv")])
        assert rc == 1

    def test_diverging_run_is_numeric_failure(self, tmp_path, corpus_file,
                                              triples_file, capsys):
        # an absurd learning rate blows the bilinear factors up to non-finite
        # scores; the finiteness guard must surface as exit code 3
        with np.errstate(all="ignore"):
            rc = main(["train", "--corpus", corpus_file, "--triples", triples_file,
                       "--min-count", "1", "--dim", "8", "--alpha", "0.9",
                       "--lr", "1e6", "--epochs", "1",
                       "--checkpoint", str(tmp_path / "x.kgv")])
        assert rc == 3
        # the message names the block of steps the divergence happened in
        err = capsys.readouterr().err
        match = re.search(r"in steps (\d+)\.\.(\d+)", err)
        assert match, err
        first, last = int(match[1]), int(match[2])
        assert first % BLOCK == 0 and first <= last < first + BLOCK

    def test_non_finite_state_at_epoch_end_is_numeric_failure(
        self, tmp_path, corpus_file, triples_file, capsys, monkeypatch
    ):
        poison_after_last_step(monkeypatch, "output", np.nan, 1)
        rc = main(["train", "--corpus", corpus_file, "--triples", triples_file,
                   "--min-count", "1", "--dim", "8", "--epochs", "2",
                   "--checkpoint", str(tmp_path / "x.kgv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == "numeric error: array 'output' holds NaN or inf\n"
        assert not (tmp_path / "x.kgv").exists()

    def test_diverging_run_reports_only_the_numeric_error(self, tmp_path, corpus_file,
                                                          triples_file, capsys):
        # no numpy RuntimeWarning (with its library path) precedes the report
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train", "--corpus", corpus_file, "--triples", triples_file,
                       "--min-count", "1", "--dim", "8", "--alpha", "0.9",
                       "--lr", "1e6", "--epochs", "1",
                       "--checkpoint", str(tmp_path / "x.kgv")])
        assert rc == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert re.fullmatch(r"numeric error: .* in steps \d+\.\.\d+\n", err), err

    @pytest.mark.parametrize("margin", ["nan", "inf"])
    def test_non_finite_margin_is_usage_error(self, tmp_path, corpus_file,
                                              triples_file, capsys, margin):
        rc = main(["train", "--corpus", corpus_file, "--triples", triples_file,
                   "--min-count", "1", "--dim", "8", "--margin", margin,
                   "--checkpoint", str(tmp_path / "x.kgv")])
        assert rc == 1
        assert "margin" in capsys.readouterr().err
        assert not (tmp_path / "x.kgv").exists()

    def test_negative_subsample_is_usage_error(self, tmp_path, corpus_file,
                                               triples_file, capsys):
        rc = main(["train", "--corpus", corpus_file, "--triples", triples_file,
                   "--min-count", "1", "--subsample", "-1",
                   "--checkpoint", str(tmp_path / "x.kgv")])
        assert rc == 1
        assert "subsample" in capsys.readouterr().err

    def test_bad_config_value_names_the_file(self, tmp_path, corpus_file, capsys):
        cfg = write(tmp_path / "bad.cfg", "dim=abc\n")
        common = ["--corpus", corpus_file, "--alpha", "0",
                  "--checkpoint", str(tmp_path / "m.kgv")]
        message = "kgvec train: argument --dim: invalid int value: 'abc'"
        assert main(["train", "--config", cfg, *common]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert main(["train", "--dim", "abc", *common]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_config_line_without_equals_is_usage_error(self, tmp_path, corpus_file,
                                                        triples_file, capsys):
        cfg = write(tmp_path / "run.cfg", "dim=8\n# comment\nepochs 3\n")
        ck = tmp_path / "model.kgv"
        rc = main(["train", "--config", cfg, "--corpus", corpus_file,
                   "--triples", triples_file, "--checkpoint", str(ck)])
        assert rc == 1
        assert f"{cfg}: line 3: expected key=value" in capsys.readouterr().err
        assert not ck.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--triples", "{triples}", "--alpha", "0.5"],
             "--corpus is required"),
            (["train", "--corpus", "{corpus}", "--alpha", "0.5"],
             "--triples is required"),
            (["train", "--triples", "{triples}", "--alpha", "1"],
             "need --vocab or --corpus"),
            (["rank-sweep", "--corpus", "{corpus}", "--alpha", "0",
              "--questions", "{corpus}"],
             "rank-sweep requires --triples"),
        ],
        ids=["no-corpus", "no-triples", "no-vocabulary", "sweep-without-triples"],
    )
    def test_missing_input_is_usage_error(self, tmp_path, corpus_file, triples_file,
                                          capsys, argv, message):
        ck = tmp_path / "model.kgv"
        argv = [a.format(corpus=corpus_file, triples=triples_file) for a in argv]
        if argv[0] == "train":
            argv += ["--checkpoint", str(ck)]
        rc = main([*argv, "--min-count", "1", "--dim", "8"])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not ck.exists()

    def test_vocabulary_phrases_merge_like_the_lexicon(self, tmp_path, corpus_file,
                                                       capsys):
        """Without --lexicon, the vocabulary's phrase tokens are the lexicon."""
        lexicon = write(tmp_path / "lexicon.txt", "old land\nnew land\nold town\n")
        vocab = tmp_path / "vocab.tsv"
        assert main(["build-vocab", "--corpus", corpus_file, "--lexicon", lexicon,
                     "--min-count", "1", "--output", str(vocab)]) == 0
        assert {"old_land", "new_land", "old_town"} <= set(Vocabulary.load(vocab).tokens)
        states = []
        for extra in ([], ["--lexicon", lexicon]):
            ck = tmp_path / f"model{len(states)}.kgv"
            assert main(["train", "--corpus", corpus_file, "--vocab", str(vocab),
                         "--alpha", "0", "--dim", "8", "--epochs", "1",
                         "--checkpoint", str(ck), *extra]) == 0
            states.append(load_checkpoint(ck))
        without, with_lexicon = (s.store for s in states)
        assert without.input_vectors.tobytes() == with_lexicon.input_vectors.tobytes()
        assert without.output_vectors.tobytes() == with_lexicon.output_vectors.tobytes()


def perfect_analogy_state():
    """Hand-built state whose single relation maps each x_i exactly to y_i."""
    tokens = ["x1", "y1", "x2", "y2", "other"]
    vocab = Vocabulary(tokens, np.ones(len(tokens), dtype=np.int64))
    d = 2
    vectors = np.array(
        [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [-3.0, -3.0]]
    )
    store = EmbeddingStore(vectors, np.zeros_like(vectors), np.array([[0.0, 1.0]]))
    params = [LowRankRelation(identity_projection(d), identity_projection(d))]
    cfg = ModelConfig(variant="lowrank", dim=d, head_rank=d, tail_rank=d)
    return ModelState(cfg, TrainConfig(), vocab, ["maps"], store, relation_stacks(params))


def shaped_state(variant, params, relation_rows=1):
    """A 5-token, one-relation state at d=4 that keeps ``params`` as given,
    whatever their shapes."""
    d = 4
    tokens = ["x1", "y1", "x2", "y2", "other"]
    vocab = Vocabulary(tokens, np.ones(len(tokens), dtype=np.int64))
    vectors = np.random.default_rng(0).standard_normal((len(tokens), d))
    store = EmbeddingStore(vectors, np.zeros_like(vectors), np.zeros((relation_rows, d)))
    cfg = ModelConfig(variant=variant, dim=d, head_rank=2, tail_rank=2)
    return ModelState(cfg, TrainConfig(), vocab, ["maps"], store, relation_stacks(params))


class TestEvalCommands:
    def test_perfect_analogy_fixture_scores_100(self, tmp_path, capsys):
        state = perfect_analogy_state()
        ck = tmp_path / "model.kgv"
        save_checkpoint(state, ck)
        questions = write(
            tmp_path / "q.txt", ": maps\nx1 y1 x2 y2\nx2 y2 x1 y1\n"
        )
        rc = main(["eval-analogy", "--checkpoint", str(ck),
                   "--questions", questions])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TOTAL\t2\t1.0000" in out

    def test_3cosadd_mode_matches_library(self, tmp_path, capsys):
        state = perfect_analogy_state()
        ck = tmp_path / "model.kgv"
        save_checkpoint(state, ck)
        questions = write(tmp_path / "q.txt", "x1 y1 x2 y2\n")
        rc = main(["eval-analogy", "--checkpoint", str(ck),
                   "--questions", questions, "--mode", "3cosadd"])
        assert rc == 0
        out = capsys.readouterr().out
        want = analogy_3cosadd(
            "x1", "y1", "x2", state.vocab, state.store.input_vectors
        )
        expected = "1.0000" if want == "y2" else "0.0000"
        assert f"TOTAL\t1\t{expected}" in out

    def test_similarity_reversed_ordering_gives_minus_one(self, tmp_path, capsys):
        state = perfect_analogy_state()
        ck = tmp_path / "model.kgv"
        save_checkpoint(state, ck)
        # model cosines from y2: y1 0.707 > x1 0.0 > other -1.0;
        # the human scores rank them in exactly the opposite order
        pairs = write(
            tmp_path / "sim.tsv",
            "y2\ty1\t1.0\ny2\tx1\t5.0\ny2\tother\t9.0\n",
        )
        rc = main(["eval-similarity", "--checkpoint", str(ck), "--pairs", pairs])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("-1.0000")

    def test_missing_checkpoint_is_data_error(self, tmp_path, capsys):
        rc = main(["eval-analogy", "--checkpoint", str(tmp_path / "none.kgv"),
                   "--questions", str(tmp_path / "none.txt")])
        assert rc == 2


class TestRankSweepCommand:
    def test_two_by_two_grid(self, tmp_path, corpus_file, triples_file, capsys):
        questions = write(tmp_path / "q.txt", "paris france london england\n"
                                              "london england paris france\n")
        rc = main(["rank-sweep", "--corpus", corpus_file, "--triples", triples_file,
                   "--questions", questions, "--min-count", "1", "--dim", "8",
                   "--epochs", "1", "--head-ranks", "2,8", "--tail-ranks", "4,8"])
        assert rc == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l and not l.startswith(("#", "head_rank"))]
        assert len(rows) == 4
        assert out.startswith("# kgvec rank sweep\n# seed\t1\n")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--head-ranks", "2,4,16", "--tail-ranks", "7"], "head 16, tail 7 at dim 8"),
            (["--head-ranks", "", "--tail-ranks", "7"], "rank grid is empty"),
            (["--head-ranks", "2", "--tail-ranks", "7", "--variant", "transe"],
             "lowrank models only"),
            (["--head-ranks", "1,x", "--tail-ranks", "7"], "bad rank grid '1,x'"),
        ],
    )
    def test_bad_grid_exits_1_before_training(
        self, tmp_path, corpus_file, triples_file, capsys, monkeypatch, flags, message
    ):
        trained = []
        monkeypatch.setattr(kgvec.evaluation, "train", lambda *a: trained.append(a))
        questions = write(tmp_path / "q.txt", "paris france london england\n")
        output = tmp_path / "sweep.tsv"
        rc = main(["rank-sweep", "--corpus", corpus_file, "--triples", triples_file,
                   "--questions", questions, "--min-count", "1", "--dim", "8",
                   "--epochs", "1", "--output", str(output), *flags])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert trained == [] and not output.exists()


class TestExport:
    def test_round_trip(self, tmp_path, capsys):
        state = perfect_analogy_state()
        ck = tmp_path / "model.kgv"
        save_checkpoint(state, ck)
        out = tmp_path / "vectors.txt"
        assert main(["export", "--checkpoint", str(ck), "--output", str(out)]) == 0
        tokens, vectors = load_embeddings_text(out)
        assert tokens == state.vocab.tokens
        assert np.allclose(vectors, state.store.input_vectors, atol=1e-5)


def rewrite_header(path, edit):
    """Apply ``edit`` to a checkpoint's JSON header in place."""
    data = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    version, size = struct.unpack("<II", data[len(CHECKPOINT_MAGIC) : start])
    header = json.loads(data[start : start + size])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(
        CHECKPOINT_MAGIC + struct.pack("<II", version, len(blob)) + blob
        + data[start + size :]
    )


class TestCheckpointHeaders:
    @pytest.fixture
    def checkpoint(self, tmp_path):
        ck = tmp_path / "model.kgv"
        save_checkpoint(perfect_analogy_state(), ck)
        return ck

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda h: h["train"].update(frobnicate=1), id="unknown-train-key"),
            pytest.param(lambda h: h.pop("vocab"), id="no-vocab"),
            pytest.param(lambda h: h.pop("relations"), id="no-relations"),
            pytest.param(lambda h: h["model"].update(frobnicate=1), id="unknown-model-key"),
            pytest.param(lambda h: h["train"].pop("seed"), id="missing-train-key"),
            pytest.param(lambda h: h["train"].update(alpha=7.0), id="rejected-alpha"),
            pytest.param(lambda h: h["train"].update(alpha=True), id="bool-alpha"),
            pytest.param(lambda h: h["model"].update(margin=True), id="bool-margin"),
            pytest.param(lambda h: h["model"].update(dim="wide"), id="rejected-dim"),
            pytest.param(lambda h: h["model"].update(dim=2.0), id="float-dim"),
            pytest.param(lambda h: h["model"].update(head_rank=True), id="bool-head-rank"),
            pytest.param(lambda h: h["model"].update(head_rank=None), id="null-head-rank"),
            pytest.param(lambda h: h["model"].update(variant="sg"), id="sg-variant"),
            pytest.param(lambda h: h["model"].update(negatives=1.5), id="float-negatives"),
            pytest.param(lambda h: h["model"].update(margin=float("nan")), id="nan-margin"),
            pytest.param(lambda h: h["model"].update(margin=float("inf")), id="inf-margin"),
            pytest.param(lambda h: h["vocab"].pop("counts"), id="missing-vocab-key"),
            pytest.param(lambda h: h["train"].update(seed=1.5), id="float-seed"),
            pytest.param(lambda h: h["train"].update(seed=-1), id="negative-seed"),
            pytest.param(lambda h: h["train"].update(epochs="2"), id="str-epochs"),
            pytest.param(lambda h: h["train"].update(window=True), id="bool-window"),
            pytest.param(lambda h: h["vocab"].update(tokens=[1, 2, 3, 4, 5]), id="int-tokens"),
            pytest.param(lambda h: h["vocab"].update(counts=[1.5] * 5), id="float-counts"),
            pytest.param(lambda h: h["vocab"].update(counts=[2**70] * 5), id="int64-overflow-counts"),
            pytest.param(lambda h: h["vocab"]["counts"].__setitem__(0, -4), id="negative-count"),
            pytest.param(lambda h: h["vocab"]["tokens"].__setitem__(0, ""), id="empty-token"),
            pytest.param(lambda h: h["vocab"]["tokens"].__setitem__(0, "x 1"), id="spaced-token"),
            pytest.param(lambda h: h.update(relations=[7]), id="int-relations"),
            pytest.param(lambda h: h.update(relations="maps"), id="str-relations"),
            pytest.param(lambda h: h.update(model=[1]), id="list-model"),
        ],
    )
    def test_malformed_header_is_data_error(self, tmp_path, checkpoint, edit, capsys):
        rewrite_header(checkpoint, edit)
        with pytest.raises(CheckpointError):
            load_checkpoint(checkpoint)
        rc = main(["export", "--checkpoint", str(checkpoint),
                   "--output", str(tmp_path / "v.txt")])
        assert rc == 2
        assert str(checkpoint) in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["head_rank", "tail_rank"])
    def test_null_rank_is_refused_where_no_shape_reads_it(self, tmp_path, field):
        # transe stores no rank-shaped array, so the size check cannot catch it.
        ck = tmp_path / "model.kgv"
        save_checkpoint(shaped_state("transe", [TransERelation()]), ck)
        rewrite_header(ck, lambda h: h["model"].update({field: None}))
        with pytest.raises(CheckpointError, match=f"checkpoint model rejected: {field} is null"):
            load_checkpoint(ck)

    def test_huge_dim_fails_before_allocating(self, tmp_path, checkpoint, monkeypatch):
        rewrite_header(checkpoint, lambda h: h["model"].update(dim=10**11))
        monkeypatch.setattr(np, "empty", lambda *a, **k: pytest.fail("allocated"))
        with pytest.raises(CheckpointError, match="the header implies"):
            load_checkpoint(checkpoint)
        rc = main(["export", "--checkpoint", str(checkpoint),
                   "--output", str(tmp_path / "v.txt")])
        assert rc == 2

    @pytest.mark.parametrize(
        "state, edit",
        [
            pytest.param(
                lambda: shaped_state("se", [SERelation(np.eye(5), np.eye(4))]),
                lambda h: h["model"].update(dim=5),
                id="se-5x5-head-matrix-at-d4",
            ),
            pytest.param(
                lambda: shaped_state(
                    "lowrank",
                    [LowRankRelation(
                        LowRankProjection(np.ones(2), np.ones((2, 6)), np.ones((2, 6))),
                        LowRankProjection(np.ones(2), np.ones((2, 4)), np.ones((2, 4))),
                    )],
                ),
                lambda h: h["model"].update(dim=6),
                id="lowrank-2x6-head-factors-at-d4",
            ),
            pytest.param(
                lambda: shaped_state("transr", [TransRRelation(np.eye(4))], 3),
                lambda h: h.update(relations=["maps", "b", "c"]),
                id="transr-3-relation-rows-for-1",
            ),
        ],
    )
    def test_array_shape_off_the_header_is_data_error(
        self, tmp_path, checkpoint, state, edit, capsys
    ):
        # A state whose arrays do not fit its configs is refused at save,
        # before anything is written ...
        with pytest.raises(ValueError, match="shape"):
            save_checkpoint(state(), tmp_path / "off.kgv")
        assert [p.name for p in tmp_path.iterdir()] == [checkpoint.name]
        # ... and a header that implies other shapes than the bytes it heads
        # is a data error.
        rewrite_header(checkpoint, edit)
        with pytest.raises(CheckpointError, match="the header implies"):
            load_checkpoint(checkpoint)
        questions = write(tmp_path / "q.txt", "x1 y1 x2 y2\n")
        rc = main(["eval-analogy", "--checkpoint", str(checkpoint), "--questions", questions])
        assert rc == 2
        assert str(checkpoint) in capsys.readouterr().err

    def test_trailing_byte_is_data_error(self, tmp_path, checkpoint, capsys):
        with open(checkpoint, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(CheckpointError, match="the header implies"):
            load_checkpoint(checkpoint)
        rc = main(["export", "--checkpoint", str(checkpoint),
                   "--output", str(tmp_path / "v.txt")])
        assert rc == 2

    def test_failed_save_keeps_the_previous_checkpoint(
        self, tmp_path, checkpoint, monkeypatch
    ):
        before = checkpoint.read_bytes()

        class FailingWriter:
            """A file whose third write fails, as on a full disk."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    raise OSError("disk full")
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(
            "kgvec.trainer.open", lambda *a: FailingWriter(open(*a)), raising=False
        )
        state = perfect_analogy_state()
        state.store.input_vectors += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(state, checkpoint)
        monkeypatch.undo()
        assert checkpoint.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [checkpoint.name]

    @pytest.mark.parametrize(
        "command",
        [["eval-analogy", "--mode", "relational"], ["eval-analogy", "--mode", "3cosadd"],
         ["export"]],
        ids=["eval-relational", "eval-3cosadd", "export"],
    )
    def test_non_finite_array_is_data_error(self, tmp_path, command, capsys):
        state = perfect_analogy_state()
        state.store.input_vectors[0] = np.nan
        state.params[0].head_proj.out_factors[0, 0] = np.inf
        ck = tmp_path / "model.kgv"
        save_checkpoint(state, ck)
        questions = write(tmp_path / "q.txt", "x1 y1 x2 y2\n")
        extra = ["--questions", questions] if command[0] == "eval-analogy" else [
            "--output", str(tmp_path / "v.txt")]
        rc = main([command[0], "--checkpoint", str(ck), *command[1:], *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(ck) in err and "'input'" in err

    @pytest.mark.parametrize(
        "name, value",
        [("input", np.nan), ("output", -np.inf), ("relations", np.inf),
         ("rel0.head.out", np.inf), ("rel0.tail.in", np.nan)],
    )
    def test_first_non_finite_array_is_named(self, tmp_path, name, value):
        state = perfect_analogy_state()
        arrays = {"input": state.store.input_vectors, "output": state.store.output_vectors,
                  "relations": state.store.relation_vectors}
        arrays.update({f"rel0.{k}": a for k, a in state.params[0].arrays().items()})
        arrays[name].flat[-1] = value
        ck = tmp_path / "model.kgv"
        save_checkpoint(state, ck)
        # A relation's array is named by its stack and the relation's index.
        message = {
            "rel0.head.out": "array 'rel.head.out' holds NaN or inf in relation 0",
            "rel0.tail.in": "array 'rel.tail.in' holds NaN or inf in relation 0",
        }.get(name, f"array '{name}' holds NaN or inf")
        with pytest.raises(CheckpointError, match=f"{re.escape(message)}$"):
            load_checkpoint(ck)

    def test_huge_finite_values_load(self, tmp_path):
        # Their squares overflow, which the cheap screen alone would reject.
        state = perfect_analogy_state()
        state.store.output_vectors[:] = 1e300
        ck = tmp_path / "model.kgv"
        save_checkpoint(state, ck)
        assert (load_checkpoint(ck).store.output_vectors == 1e300).all()

    @pytest.mark.parametrize("version", [1, 2])
    def test_retired_version_is_data_error(self, tmp_path, checkpoint, capsys, version):
        data = bytearray(checkpoint.read_bytes())
        struct.pack_into("<I", data, len(CHECKPOINT_MAGIC), version)
        checkpoint.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version};"):
            load_checkpoint(checkpoint)
        rc = main(["export", "--checkpoint", str(checkpoint),
                   "--output", str(tmp_path / "v.txt")])
        assert rc == 2
        assert f"unsupported checkpoint version {version}" in capsys.readouterr().err


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_single_byte_mutation_is_loaded_or_refused(tmp_path_factory, data):
    """Whatever one byte of a checkpoint becomes, loading returns a state or
    raises CheckpointError, and export exits 0 or 2."""
    directory = tmp_path_factory.getbasetemp() / "mutations"
    directory.mkdir(exist_ok=True)
    original = directory / "model.kgv"
    save_checkpoint(perfect_analogy_state(), original)
    blob = bytearray(original.read_bytes())
    blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    ck = directory / "mutated.kgv"
    ck.write_bytes(bytes(blob))
    try:
        load_checkpoint(ck)
    except CheckpointError:
        pass
    rc = main(["export", "--checkpoint", str(ck), "--output", str(directory / "v.txt")])
    assert rc in (0, 2)


def vocabulary_texts():
    """Vocabulary-file text: mostly well-formed lines, some arbitrary."""
    token = st.sampled_from(["x1", "y1", "x2", "new_york", ""]) | st.text(max_size=4)
    count = (
        st.integers(-5, 5).map(str)
        | st.sampled_from(["99999999999999999999999", "9223372036854775807", " 7", "1e3"])
        | st.text(max_size=4)
    )
    entry = st.tuples(token, count).map("\t".join)
    lines = st.lists(st.one_of(entry, entry, st.text(max_size=10)), max_size=4)
    # The header mostly matches the line count, so most files get past it.
    structured = st.tuples(lines, st.sampled_from([0, 0, 0, -1, 1])).map(
        lambda p: f"#vocab {len(p[0]) + p[1]}\n" + "\n".join(p[0]) + "\n"
    )
    return structured | st.text()


def similarity_texts():
    """Similarity-file text: mostly well-formed lines, some arbitrary."""
    word = st.sampled_from(["x1", "y1", "x2", "y2", "other", "zzz"]) | st.text(max_size=3)
    score = (
        st.floats().map(repr)
        | st.sampled_from(["nan", "1e999", "-inf", " 2 ", "1_0"])
        | st.text(max_size=4)
    )
    entry = st.tuples(word, word, score).map("\t".join)
    return st.lists(st.one_of(entry, entry, st.text(max_size=10)), max_size=5).map(
        "\n".join
    ) | st.text()


@pytest.fixture(scope="module")
def parser_inputs(tmp_path_factory):
    """A checkpoint and a triple file for the parser properties to run against."""
    directory = tmp_path_factory.mktemp("parsers")
    save_checkpoint(perfect_analogy_state(), directory / "model.kgv")
    write(directory / "kg.tsv", "x1\tmaps\ty1\nx2\tmaps\ty2\nnew_york\tmaps\tx1\n")
    write(directory / "corpus.txt", "x1 y1 x2 y2 new york other x1 y1\n" * 4)
    return directory


def run_quietly(argv):
    """``main(argv)`` with its stdout and stderr captured; (status, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=vocabulary_texts())
@example(text="#vocab 2\nfoo\t3\nfoo\t2\n")
@example(text="#vocab 2\nfoo\t3\nbar\t99999999999999999999999\n")
@example(text="#vocab 2\nfoo\t3\nbar\t-4\n")
def test_vocabulary_file_loads_or_is_parse_error(parser_inputs, text):
    """Any text as a vocabulary file loads or raises ParseError, and
    ``kgvec stats --vocab`` over it exits 0 or 2."""
    path = parser_inputs / "vocab.tsv"
    path.write_text(text, encoding="utf-8")
    try:
        Vocabulary.load(path)
    except ParseError as exc:
        assert str(path) in str(exc)
    rc, _ = run_quietly(["stats", "--triples", str(parser_inputs / "kg.tsv"),
                         "--vocab", str(path), "--output", str(parser_inputs / "stats.tsv")])
    assert rc in (0, 2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=similarity_texts())
@example(text="x1\ty1\t1.0\nx2\ty2\tnan\n")
@example(text="x1\ty1\t1.0\nx2\ty2\t1e999\n")
def test_similarity_file_loads_or_is_parse_error(parser_inputs, text):
    """Any text as a similarity file loads or raises ParseError, and
    ``kgvec eval-similarity`` over it exits 0 or 2."""
    path = parser_inputs / "sim.tsv"
    path.write_text(text, encoding="utf-8")
    try:
        load_similarity_pairs(path)
    except ParseError as exc:
        assert str(path) in str(exc)
    rc, _ = run_quietly(["eval-similarity", "--checkpoint", str(parser_inputs / "model.kgv"),
                         "--pairs", str(path), "--output", str(parser_inputs / "sim.out")])
    assert rc in (0, 2)


def as_bytes(texts):
    """File contents: ``texts`` in UTF-8 (half the time), the same with up to
    3 arbitrary bytes spliced in, or arbitrary bytes."""

    def splice(drawn):
        raw, junk, at = drawn
        at %= len(raw) + 1
        return raw[:at] + junk + raw[at:]

    encoded = texts.map(str.encode)
    spliced = st.tuples(encoded, st.binary(min_size=1, max_size=3), st.integers(0, 1 << 16))
    return st.one_of(encoded, encoded, spliced.map(splice), st.binary(max_size=64))


def lines_of(line):
    """Text of up to 5 lines, mostly drawn from ``line``, some arbitrary."""
    return st.lists(st.one_of(line, line, line, st.text(max_size=10)), max_size=5).map(
        "\n".join
    )


def triple_texts():
    field = st.sampled_from(["x1", "y1", "x2", "maps", "new_york", " "]) | st.text(max_size=3)
    line = st.tuples(field, field, field) | st.lists(field, max_size=4)
    return lines_of(line.map("\t".join))


def question_texts():
    words = ["x1", "y1", "x2", "y2", "other", "new_york", "X1!"]
    four = st.permutations(words).map(lambda w: w[:4])
    some = st.lists(st.sampled_from(words) | st.text(max_size=3), max_size=5)
    return lines_of((four | some).map(" ".join) | st.text(max_size=6).map(": {}".format))


def lexicon_texts():
    word = st.sampled_from(["new", "york", "x1", "_", "9"]) | st.text(max_size=3)
    return lines_of(st.lists(word, max_size=10).map(" ".join))


def config_texts():
    """Config-file text: mostly ``key=value`` lines over the train flags."""
    key = st.sampled_from(
        ["dim", "variant", "seed", "negatives", "float32", "subsample", "margin",
         "min-count", "lexicon", "epohcs", "config", " "]
    ) | st.text(max_size=3)
    value = st.sampled_from(
        ["1", "0", "2", "-1", "yes", "no", "sg", "transe", "nan", "1e9", ""]
    ) | st.text(max_size=3)
    return lines_of(st.tuples(key, value).map("=".join) | st.just("# note"))


def corpus_vocabulary_texts():
    """Vocabulary text over the parser corpus's words, mostly well-formed."""
    token = st.sampled_from(
        ["x1", "y1", "x2", "y2", "other", "new_york", "a_b_c_d_e_f_g_h_i"]
    ) | st.text(max_size=4)
    count = st.integers(0, 9).map(str) | st.sampled_from(["-1", "1e3", ""])
    entries = st.lists(st.tuples(token, count), max_size=6, unique_by=lambda e: e[0])
    well_formed = entries.map(
        lambda e: f"#vocab {len(e)}\n" + "".join(f"{t}\t{c}\n" for t, c in e)
    )
    return well_formed | vocabulary_texts()


def check_loader(load, path, *allowed):
    """``load(path)`` returns, or raises ParseError naming ``path``, or one of
    ``allowed``."""
    try:
        load(path)
    except ParseError as exc:
        assert str(path) in str(exc)
    except allowed:
        pass


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw=as_bytes(triple_texts()))
@example(raw=b"x1\tmaps\ty1\n\xff\n")
def test_triple_bytes_load_or_are_data_errors(parser_inputs, raw):
    """Any bytes as a triple file load or raise ParseError or EmptyKGError (no
    triple at all), and ``kgvec stats`` exits 0 or 2."""
    path = parser_inputs / "fuzz-kg.tsv"
    path.write_bytes(raw)
    check_loader(load_triples, path, EmptyKGError)
    rc, err = run_quietly(["stats", "--triples", str(path),
                           "--output", str(parser_inputs / "stats.tsv")])
    assert rc in (0, 2), err


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw=as_bytes(question_texts()))
@example(raw=b"x1 y1 x2 y2\n\xff\n")
def test_question_bytes_load_or_are_data_errors(parser_inputs, raw):
    """Any bytes as a question file load or raise ParseError, and
    ``kgvec eval-analogy`` exits 0 or 2."""
    path = parser_inputs / "fuzz-questions.txt"
    path.write_bytes(raw)
    check_loader(load_analogy_questions, path)
    rc, err = run_quietly(["eval-analogy", "--checkpoint", str(parser_inputs / "model.kgv"),
                           "--questions", str(path),
                           "--output", str(parser_inputs / "analogy.tsv")])
    assert rc in (0, 2), err


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw=as_bytes(lexicon_texts()))
@example(raw=b"new york\n\xff\n")
def test_lexicon_bytes_load_or_are_data_errors(parser_inputs, raw):
    """Any bytes as a phrase lexicon load or raise ParseError, and
    ``kgvec build-vocab --lexicon`` exits 0 or 2."""
    path = parser_inputs / "fuzz-lexicon.txt"
    path.write_bytes(raw)
    check_loader(load_phrase_lexicon, path)
    rc, err = run_quietly(["build-vocab", "--corpus", str(parser_inputs / "corpus.txt"),
                           "--lexicon", str(path), "--min-count", "1",
                           "--output", str(parser_inputs / "built.tsv")])
    assert rc in (0, 2), err


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw=as_bytes(corpus_vocabulary_texts()))
@example(raw=b"#vocab 2\nx1\t3\na_b_c_d_e_f_g_h_i\t2\n")
@example(raw=b"#vocab 2\nx1\t3\ny1\t\xff2\n")
def test_vocabulary_bytes_load_or_are_data_errors(parser_inputs, raw):
    """Any bytes as a vocabulary file load or raise ParseError, and
    ``kgvec train --vocab`` exits 0 or 2."""
    path = parser_inputs / "fuzz-vocab.tsv"
    path.write_bytes(raw)
    check_loader(Vocabulary.load, path)
    rc, err = run_quietly(["train", "--corpus", str(parser_inputs / "corpus.txt"),
                           "--vocab", str(path), "--alpha", "0", "--dim", "4",
                           "--epochs", "1", "--window", "1",
                           "--checkpoint", str(parser_inputs / "fuzz.kgv")])
    assert rc in (0, 2), err


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw=as_bytes(similarity_texts()))
@example(raw=b"x1\ty1\t1.0\n\xff\n")
def test_similarity_bytes_load_or_are_data_errors(parser_inputs, raw):
    """Any bytes as a similarity file load or raise ParseError, and
    ``kgvec eval-similarity`` exits 0 or 2."""
    path = parser_inputs / "fuzz-sim.tsv"
    path.write_bytes(raw)
    check_loader(load_similarity_pairs, path)
    rc, err = run_quietly(["eval-similarity", "--checkpoint", str(parser_inputs / "model.kgv"),
                           "--pairs", str(path), "--output", str(parser_inputs / "sim.out")])
    assert rc in (0, 2), err


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw=as_bytes(config_texts()))
@example(raw=b"seed=2\n\xff\n")
@example(raw=b"float32=yes\nnegatives=0\n")
def test_config_bytes_train_or_exit_1_or_2(parser_inputs, raw):
    """Any bytes as a config file make ``kgvec train --config`` exit 0, 1 (a
    bad key or value) or 2 (a file it cannot read), never with a traceback.
    The command line pins what could make training slow or diverge."""
    path = parser_inputs / "fuzz.cfg"
    path.write_bytes(raw)
    rc, err = run_quietly(["train", "--config", str(path),
                           "--corpus", str(parser_inputs / "corpus.txt"), "--alpha", "0",
                           "--lr", "0.025", "--dim", "4", "--epochs", "1", "--window", "1",
                           "--checkpoint", str(parser_inputs / "fuzz-cfg.kgv")])
    assert rc in (0, 1, 2), err
    assert "Traceback" not in err


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "text",
        [
            "#vocab 2\nking\t3\nking\t2\n",
            "#vocab 2\nking\t3\nqueen\t99999999999999999999999\n",
            "#vocab 2\nking\t3\nqueen\t-4\n",
        ],
        ids=["duplicate-token", "count-beyond-int64", "negative-count"],
    )
    def test_bad_vocabulary_line_exits_2(self, tmp_path, corpus_file, text):
        vocab = write(tmp_path / "vocab.tsv", text)
        rc, err = run_quietly(["train", "--corpus", corpus_file, "--vocab", vocab,
                               "--alpha", "0", "--epochs", "1",
                               "--checkpoint", str(tmp_path / "m.kgv")])
        assert rc == 2
        assert f"{vocab}: line 3:" in err

    @pytest.mark.parametrize("score", ["nan", "1e999"])
    def test_non_finite_similarity_score_exits_2(self, tmp_path, score):
        ck = tmp_path / "model.kgv"
        save_checkpoint(perfect_analogy_state(), ck)
        pairs = write(tmp_path / "sim.tsv", f"x1\ty1\t1.0\na\tb\t{score}\n")
        rc, err = run_quietly(["eval-similarity", "--checkpoint", str(ck), "--pairs", pairs])
        assert rc == 2
        assert f"{pairs}: line 2:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-vocab", "--corpus", "{bad}", "--output", "{out}"],
            ["train", "--corpus", "{bad}", "--alpha", "0", "--checkpoint", "{out}"],
            ["stats", "--triples", "{bad}"],
            ["train", "--corpus", "{corpus}", "--vocab", "{bad}", "--alpha", "0",
             "--checkpoint", "{out}"],
            ["build-vocab", "--corpus", "{corpus}", "--lexicon", "{bad}", "--output", "{out}"],
            ["eval-analogy", "--checkpoint", "{model}", "--questions", "{bad}"],
            ["eval-similarity", "--checkpoint", "{model}", "--pairs", "{bad}"],
        ],
        ids=["corpus-build-vocab", "corpus-train", "triples", "vocabulary", "lexicon",
             "questions", "similarity"],
    )
    def test_file_that_is_not_utf8_exits_2(self, tmp_path, corpus_file, argv):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("r\xe9gion\tr\tking\n".encode("latin-1"))
        model = tmp_path / "model.kgv"
        save_checkpoint(perfect_analogy_state(), model)
        out = tmp_path / "out"
        rc, err = run_quietly(
            [a.format(bad=bad, corpus=corpus_file, model=model, out=out) for a in argv]
        )
        assert rc == 2
        assert "can't decode byte 0xe9" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["build-vocab", "--corpus", "{bad}", "--output", "{out}"], "the king {i}"),
            (["train", "--corpus", "{bad}", "--alpha", "0", "--checkpoint", "{out}"],
             "the king {i}"),
            (["build-vocab", "--corpus", "{corpus}", "--lexicon", "{bad}", "--output", "{out}"],
             "old town {i}"),
            (["train", "--corpus", "{corpus}", "--vocab", "{bad}", "--alpha", "0",
              "--checkpoint", "{out}"], "token{i}\t{i}"),
            (["stats", "--triples", "{bad}", "--output", "{out}"], "e{i}\tr\tf{i}"),
            (["eval-analogy", "--checkpoint", "{model}", "--questions", "{bad}",
              "--output", "{out}"], "a{i} b{i} c{i} d{i}"),
            (["eval-similarity", "--checkpoint", "{model}", "--pairs", "{bad}",
              "--output", "{out}"], "x{i}\ty{i}\t{i}"),
            (["train", "--config", "{bad}", "--corpus", "{corpus}", "--checkpoint", "{out}"],
             "seed={i}"),
        ],
        ids=["corpus-build-vocab", "corpus-train", "lexicon", "vocabulary", "triples",
             "questions", "similarity", "config"],
    )
    def test_bad_byte_deep_in_a_file_names_its_line(self, tmp_path, corpus_file, argv, line):
        """The first non-UTF-8 byte, more than 8 KiB into a file of every
        input format, is reported by file and line.  Line numbers count the
        whitespace-only lines and every kind of line ending."""
        lines = ["#vocab 9999"] if "--vocab" in argv else []
        for i in range(1200):
            if i % 7 == 0:
                lines.append(" \t")
            lines.append(line.format(i=i))
        endings = ("\n", "\r\n", "\r")
        head = "".join(text + endings[k % 3] for k, text in enumerate(lines)).encode()
        assert len(head) > 8192
        bad = tmp_path / "deep.txt"
        bad.write_bytes(head + b"r\xe9gion\tr\tking\n")
        model = tmp_path / "model.kgv"
        save_checkpoint(perfect_analogy_state(), model)
        out = tmp_path / "out"
        rc, err = run_quietly(
            [a.format(bad=bad, corpus=corpus_file, model=model, out=out) for a in argv]
        )
        assert rc == 2, err
        assert f"{bad}: line {len(lines) + 1}: " in err
        assert "can't decode byte 0xe9" in err
        assert not out.exists()

    def test_one_entity_triple_file_exits_2(self, tmp_path, corpus_file):
        triples = write(tmp_path / "kg.tsv", "king\tr\tking\n")
        rc, err = run_quietly(["train", "--corpus", corpus_file, "--triples", triples,
                               "--min-count", "1", "--dim", "8", "--alpha", "0.5",
                               "--checkpoint", str(tmp_path / "m.kgv")])
        assert rc == 2
        assert "need at least 2 entities to corrupt" in err

    @pytest.mark.parametrize("token", ["", "new york"], ids=["empty", "spaced"])
    def test_vocabulary_token_the_export_cannot_hold_exits_2(self, tmp_path, corpus_file,
                                                             token):
        """An empty token or one with whitespace would be a line of the
        word2vec export that no reader parses."""
        vocab = write(tmp_path / "vocab.tsv", f"#vocab 2\nking\t3\n{token}\t2\n")
        export = tmp_path / "w.txt"
        rc, err = run_quietly(["train", "--corpus", corpus_file, "--vocab", vocab,
                               "--alpha", "0", "--dim", "3", "--export", str(export),
                               "--checkpoint", str(tmp_path / "m.kgv")])
        assert rc == 2
        assert f"{vocab}: line 3: token {token!r} is empty or holds whitespace" in err
        assert not export.exists()

    def test_vocabulary_token_beyond_the_phrase_limit_exits_2(self, tmp_path, corpus_file):
        vocab = write(tmp_path / "vocab.tsv", "#vocab 2\nking\t3\na_b_c_d_e_f_g_h_i\t2\n")
        rc, err = run_quietly(["train", "--corpus", corpus_file, "--vocab", vocab,
                               "--alpha", "0", "--checkpoint", str(tmp_path / "m.kgv")])
        assert rc == 2
        assert f"{vocab}: line 3: token longer than 8 words" in err


def vocabulary_of(path):
    vocab = Vocabulary.load(path)
    return vocab.tokens, vocab.counts.tolist()


def triples_of(path):
    triples = load_triples(path)
    return triples.triples.tolist(), triples.entity_names, triples.relation_names


BOM = "\ufeff"


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a file is not part of its
    first line, in every input format; anywhere else it is text."""

    @pytest.mark.parametrize(
        "load, text",
        [
            (vocabulary_of, "#vocab 2\nking\t3\nqueen\t2\n"),
            (lambda path: load_phrase_lexicon(path).entries, "new york\nold town\n"),
            (triples_of, "paris\tcapital_of\tfrance\nlondon\tcapital_of\tengland\n"),
            (load_analogy_questions, "paris france london england\n: more\na b c d\n"),
            (load_similarity_pairs, "king\tqueen\t7.5\nman\twoman\t8\n"),
            (lambda path: kgvec.cli._config_flags(path, frozenset({"dim", "seed"})),
             "dim=8\nseed=3\n"),
        ],
        ids=["vocabulary", "lexicon", "triples", "questions", "similarity", "config"],
    )
    def test_reader_reads_the_same_after_a_leading_bom(self, tmp_path, load, text):
        plain = load(write(tmp_path / "plain.txt", text))
        assert load(write(tmp_path / "marked.txt", BOM + text)) == plain

    def test_build_vocab_writes_the_same_bytes_after_a_leading_bom(self, tmp_path):
        written = []
        for name, text in (("plain", CORPUS), ("marked", BOM + CORPUS)):
            out = tmp_path / f"{name}.tsv"
            rc, err = run_quietly(["build-vocab", "--corpus", write(tmp_path / f"{name}.txt", text),
                                   "--min-count", "1", "--output", str(out)])
            assert rc == 0, err
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_a_bom_past_the_start_stays_text(self, tmp_path):
        path = write(tmp_path / "c.txt", BOM + BOM + "the king\n" + BOM + "the queen\n")
        assert list(read_lines(path)) == [(1, BOM + "the king"), (2, BOM + "the queen")]
        out = tmp_path / "vocab.tsv"
        assert run_quietly(["build-vocab", "--corpus", path, "--min-count", "1",
                            "--output", str(out)])[0] == 0
        assert sorted(Vocabulary.load(out).tokens) == ["king", "queen", BOM + "the"]

    def test_bad_byte_after_a_bom_names_the_same_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(BOM.encode() + b"a\n\nb\n\xff\n")
        with pytest.raises(ParseError, match=r"line 4: can't decode byte 0xff"):
            list(read_lines(path))


class TestUsage:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["build-vocab", "--frobnicate"]) == 1

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_help_lists_paper_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "default: 100" in text  # embedding size
        assert "default: 0.025" in text  # learning rate
        assert "default: 1.0" in text  # margin
        assert "0.01,0.05,0.1,0.2,0.5" in text  # alpha grid

    def test_help_shows_the_rank_rule_not_a_fixed_rank(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "(default: max(1, dim // 2))" in text
        assert "(default: max(1, dim * 9 // 10))" in text
        assert "default: 50" not in text and "default: 90" not in text

    def test_rank_sweep_help_shows_grid(self, capsys):
        with pytest.raises(SystemExit):
            main(["rank-sweep", "--help"])
        assert "10,20,30,40,50,60,70,80,90,95,100" in capsys.readouterr().out


class TestRepeatedCalls:
    """One process builds the parser once; each call starts from its defaults."""

    def test_command_is_found_at_call_time(self, tmp_path, monkeypatch, capsys):
        path = write(tmp_path / "kg.tsv", "h\tr\tt\n")
        assert main(["stats", "--triples", path]) == 0
        ran = []

        def stub(args):
            ran.append(args.triples)
            return 0

        monkeypatch.setattr(kgvec.cli, "cmd_stats", stub)
        assert main(["stats", "--triples", path]) == 0
        assert ran == [path]

    def test_config_file_values_stay_with_their_call(self, tmp_path, corpus_file,
                                                     triples_file, capsys):
        cfg = write(tmp_path / "run.cfg", "dim=8\nepochs=1\n")
        inputs = ["--corpus", corpus_file, "--triples", triples_file, "--min-count", "1"]
        report = tmp_path / "r.tsv"
        assert main(["train", "--config", cfg, *inputs, "--report", str(report),
                     "--checkpoint", str(tmp_path / "a.kgv")]) == 0
        assert "\td\t8\t" in report.read_text(encoding="utf-8")
        ck = tmp_path / "b.kgv"
        assert main(["train", *inputs, "--checkpoint", str(ck)]) == 0
        assert "\td\t100\t" in capsys.readouterr().out
        assert load_checkpoint(ck).train_config.epochs == TrainConfig().epochs

    def test_usage_error_leaves_the_next_call_clean(self, tmp_path, corpus_file, capsys):
        ck = tmp_path / "model.kgv"
        argv = ["train", "--corpus", corpus_file, "--alpha", "0", "--min-count", "1",
                "--epochs", "1", "--checkpoint", str(ck), "--report", str(tmp_path / "r.tsv")]
        assert main([*argv, "--dim", "x"]) == 1
        assert not ck.exists()
        assert main([*argv, "--dim", "4"]) == 0
        assert load_checkpoint(ck).model_config.dim == 4
