"""Command-line pipeline: vocabulary, KG stats, training, evaluation, export.

Exit codes: 0 success, 1 usage/configuration error (``ConfigError`` or any
other ``ValueError``), 2 data error (``DataError``, such as a file that is not
UTF-8, or an unreadable file), 3 numeric failure (``NumericError``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import evaluation
from .corpus import (
    PHRASE_SEP,
    PhraseIndex,
    Vocabulary,
    build_vocabulary,
    load_phrase_lexicon,
    merge_phrases,
    read_lines,
    tokenize,
)
from .errors import ConfigError, DataError, NumericError
from .kg import compute_mapping_stats, load_triples
from .model import ModelConfig, VARIANTS, save_embeddings_text
from .trainer import TrainConfig, load_checkpoint, save_checkpoint, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# Paper-default sweep grid for the rank experiment.
DEFAULT_RANK_GRID = "10,20,30,40,50,60,70,80,90,95,100"
DEFAULT_ALPHA_GRID = "0.01,0.05,0.1,0.2,0.5"

_MODEL_DEFAULTS = ModelConfig()
_TRAIN_DEFAULTS = TrainConfig()


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's 2
        raise _UsageError(f"{self.prog}: {message}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # The file's flags go before the command line's, so the command
            # line wins and argparse's defaults fill in the rest.
            config = _config_flags(args.config, args.config_keys)
            try:
                args = parser.parse_args([argv[0], *config, *argv[1:]])
            except _UsageError as exc:
                # The command line alone parsed, so the file is at fault.
                raise _UsageError(f"{args.config}: {exc}") from None
        # A diverging run overflows before the finite checks see it; the
        # NumericError they raise is the one report of that.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (_UsageError, ValueError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> _Parser:
    parser = _Parser(prog="kgvec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a vocabulary file from a corpus")
    p.add_argument("--corpus", required=True, help="UTF-8 text corpus")
    p.add_argument("--lexicon", help="phrase lexicon, one entity name per line")
    p.add_argument(
        "--min-count", type=int, default=5, help="frequency threshold (default: 5)"
    )
    p.add_argument("--output", required=True, help="vocabulary file to write")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("stats", help="per-relation mapping-cardinality statistics")
    p.add_argument("--triples", required=True, help="head<TAB>relation<TAB>tail TSV")
    p.add_argument("--vocab", help="optional vocabulary file used as entity filter")
    p.add_argument("--output", default="-", help="output TSV (default: stdout)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="jointly train text and knowledge objectives")
    _add_train_flags(p)
    p.add_argument("--checkpoint", required=True, help="binary checkpoint to write")
    p.add_argument("--export", help="also write embeddings in word2vec text format")
    p.add_argument("--report", default="-", help="per-epoch TSV report (default: stdout)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-analogy", help="analogical reasoning accuracy")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--questions", required=True, help="word2vec questions file")
    p.add_argument(
        "--mode",
        choices=("relational", "3cosadd"),
        default="relational",
        help="two-step relational inference or plain vector offset "
        "(default: relational; falls back to 3cosadd when the model "
        "has no relation projections)",
    )
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_eval_analogy)

    p = sub.add_parser("eval-similarity", help="Spearman rho on a similarity file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pairs", required=True, help="word1<TAB>word2<TAB>score file")
    p.add_argument("--dataset", default="similarity", help="label for the report row")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_eval_similarity)

    p = sub.add_parser("rank-sweep", help="accuracy grid over projection ranks")
    _add_train_flags(p)
    p.add_argument("--questions", required=True)
    p.add_argument(
        "--head-ranks",
        default=DEFAULT_RANK_GRID,
        help=f"comma list of head ranks (default: {DEFAULT_RANK_GRID})",
    )
    p.add_argument(
        "--tail-ranks",
        default=DEFAULT_RANK_GRID,
        help=f"comma list of tail ranks (default: {DEFAULT_RANK_GRID})",
    )
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_rank_sweep)

    p = sub.add_parser("export", help="write checkpoint embeddings as text")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """Flags shared by train and rank-sweep.

    ``--head-rank``, ``--tail-rank`` and ``--alpha`` default to None: their
    defaults depend on ``--dim`` and ``--variant``.
    """
    md, td = _MODEL_DEFAULTS, _TRAIN_DEFAULTS
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--corpus", help="UTF-8 text corpus (required unless alpha=1)")
    p.add_argument("--triples", help="triple TSV (required unless alpha=0)")
    p.add_argument("--vocab", help="vocabulary file; built from corpus if omitted")
    p.add_argument("--lexicon", help="phrase lexicon file")
    p.add_argument(
        "--min-count",
        type=int,
        default=5,
        help="vocabulary threshold when building from the corpus (default: 5)",
    )
    p.add_argument(
        "--variant",
        choices=VARIANTS,
        default=md.variant,
        help=f"knowledge model variant; 'sg' is text-only (default: {md.variant})",
    )
    p.add_argument("--dim", type=int, default=md.dim, help=f"embedding size d (default: {md.dim})")
    p.add_argument(
        "--head-rank", type=int, default=None,
        help=f"rank bound of the head projection (default: {md.head_rank})",
    )
    p.add_argument(
        "--tail-rank", type=int, default=None,
        help=f"rank bound of the tail projection (default: {md.tail_rank})",
    )
    p.add_argument(
        "--negatives", type=int, default=md.negatives,
        help=f"noise words per text update (default: {md.negatives})",
    )
    p.add_argument(
        "--margin", type=float, default=md.margin,
        help=f"ranking-loss margin gamma (default: {md.margin})",
    )
    p.add_argument(
        "--alpha", type=float, default=None,
        help="knowledge share of the joint objective in [0,1]; 0 is plain "
        f"skip-gram (default: {td.alpha}; paper grid {DEFAULT_ALPHA_GRID})",
    )
    p.add_argument(
        "--lr", type=float, default=td.initial_lr,
        help=f"initial learning rate, decays linearly (default: {td.initial_lr})",
    )
    p.add_argument("--epochs", type=int, default=td.epochs, help=f"(default: {td.epochs})")
    p.add_argument(
        "--window", type=int, default=td.window,
        help=f"context window radius (default: {td.window})",
    )
    p.add_argument("--seed", type=int, default=td.seed, help=f"(default: {td.seed})")
    p.add_argument(
        "--subsample", type=float, default=td.subsample,
        help=f"frequent-word subsampling rate, 0 disables (default: {td.subsample})",
    )
    p.add_argument(
        "--float32", type=_parse_bool, default=td.use_float32, metavar="{true,false}",
        help="train in 32-bit floats: true/false, yes/no or 1/0 "
        f"(default: {str(td.use_float32).lower()})",
    )
    # A config file may set any of these flags but --config, by its name
    # without the dashes; parsing no arguments lists them all.
    keys = {dest.replace("_", "-") for dest in vars(p.parse_args([]))} - {"config"}
    p.set_defaults(config_keys=frozenset(keys))


def _config_flags(path: str, keys: frozenset[str]) -> list[str]:
    """A config file's ``key=value`` lines as ``--key=value`` arguments."""
    values: dict[str, str] = {}
    for lineno, line in read_lines(path):
        line = line.strip()
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    unknown = sorted(set(values) - keys)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}")
    return [f"--{key}={value}" for key, value in values.items()]


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def _build_configs(args) -> tuple[ModelConfig, TrainConfig]:
    # Rank defaults keep the reference d=100 proportions (50/100 and 90/100)
    # when the user picks another dimension without pinning the ranks.
    model = ModelConfig(
        variant=args.variant,
        dim=args.dim,
        head_rank=max(1, args.dim // 2) if args.head_rank is None else args.head_rank,
        tail_rank=max(1, args.dim * 9 // 10) if args.tail_rank is None else args.tail_rank,
        negatives=args.negatives,
        margin=args.margin,
    )
    # sg defaults to a pure-text run; an explicit contradictory --alpha still
    # reaches TrainConfig/train and fails loudly there.
    alpha_default = 0.0 if model.variant == "sg" else _TRAIN_DEFAULTS.alpha
    tcfg = TrainConfig(
        alpha=alpha_default if args.alpha is None else args.alpha,
        initial_lr=args.lr,
        epochs=args.epochs,
        window=args.window,
        seed=args.seed,
        subsample=args.subsample,
        use_float32=args.float32,
    )
    return model, tcfg


def _corpus_lines(path: str):
    """A corpus file's lines; the corpus format has no line to reject."""
    return (line for _, line in read_lines(path))


def _load_inputs(args, train_config):
    """Read corpus/lexicon/vocab/triples per the resolved configuration."""
    need_text = train_config.alpha < 1.0
    need_kg = train_config.alpha > 0.0
    if need_text and args.corpus is None:
        raise ConfigError("--corpus is required when alpha < 1")
    if need_kg and args.triples is None:
        raise ConfigError("--triples is required when alpha > 0")

    index = load_phrase_lexicon(args.lexicon) if args.lexicon else PhraseIndex()
    if not (args.vocab or args.corpus):
        raise ConfigError("need --vocab or --corpus to define the vocabulary")
    if not args.vocab:
        vocab = build_vocabulary(_corpus_lines(args.corpus), args.min_count, index)
    else:
        vocab = Vocabulary.load(args.vocab)
        if not args.lexicon:
            # The vocabulary's phrase tokens stand in for the lexicon.
            index = PhraseIndex(t.split(PHRASE_SEP) for t in vocab.tokens if PHRASE_SEP in t)

    tokens: list[str] = []
    if args.corpus:
        for line in _corpus_lines(args.corpus):
            tokens.extend(merge_phrases(tokenize(line), index))

    triples = load_triples(args.triples, vocab) if args.triples else None
    return tokens, vocab, triples


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_build_vocab(args) -> int:
    index = load_phrase_lexicon(args.lexicon) if args.lexicon else PhraseIndex()
    vocab = build_vocabulary(_corpus_lines(args.corpus), args.min_count, index)
    vocab.save(args.output)
    print(f"wrote {len(vocab)} tokens to {args.output}")
    return EXIT_OK


def cmd_stats(args) -> int:
    vocab = Vocabulary.load(args.vocab) if args.vocab else None
    triples = load_triples(args.triples, vocab)
    stats = compute_mapping_stats(triples)
    _write_text(args.output, stats.to_tsv())
    return EXIT_OK


def cmd_train(args) -> int:
    model_config, train_config = _build_configs(args)
    tokens, vocab, triples = _load_inputs(args, train_config)
    state, report = train(tokens, vocab, triples, model_config, train_config)
    save_checkpoint(state, args.checkpoint)
    if args.export:
        save_embeddings_text(vocab.tokens, state.store.input_vectors, args.export)
    header = (
        "# kgvec train report\n"
        f"# seed\t{train_config.seed}\n"
        f"# variant\t{model_config.variant}\td\t{model_config.dim}"
        f"\tlr\t{train_config.initial_lr}\tgamma\t{model_config.margin}"
        f"\talpha\t{train_config.alpha}\n"
    )
    _write_text(args.report, header + report.to_tsv())
    return EXIT_OK


def cmd_eval_analogy(args) -> int:
    state = load_checkpoint(args.checkpoint)
    questions = evaluation.load_analogy_questions(args.questions)
    predict = evaluation.make_analogy_predictor(state, args.mode)
    report = evaluation.run_analogy_suite(questions, predict, state.vocab)
    _write_text(args.output, report.to_tsv())
    return EXIT_OK


def cmd_eval_similarity(args) -> int:
    state = load_checkpoint(args.checkpoint)
    pairs = evaluation.load_similarity_pairs(args.pairs)
    report = evaluation.run_similarity_suite(
        pairs, state.vocab, state.store.input_vectors, args.dataset
    )
    _write_text(args.output, report.to_tsv())
    return EXIT_OK


def _parse_grid(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"bad rank grid {text!r}; expected comma-separated ints") from None


def cmd_rank_sweep(args) -> int:
    model_config, train_config = _build_configs(args)
    tokens, vocab, triples = _load_inputs(args, train_config)
    if triples is None:
        raise ConfigError("rank-sweep requires --triples")
    questions = evaluation.load_analogy_questions(args.questions)
    rows = evaluation.rank_sweep(
        tokens,
        vocab,
        triples,
        questions,
        model_config,
        train_config,
        _parse_grid(args.head_ranks),
        _parse_grid(args.tail_ranks),
    )
    header = f"# kgvec rank sweep\n# seed\t{train_config.seed}\n"
    _write_text(args.output, header + evaluation.sweep_to_tsv(rows))
    return EXIT_OK


def cmd_export(args) -> int:
    state = load_checkpoint(args.checkpoint)
    save_embeddings_text(state.vocab.tokens, state.store.input_vectors, args.output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
