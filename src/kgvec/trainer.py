"""Joint SGD over the text and knowledge objectives.

Every micro-step flips a biased coin: with probability ``alpha`` it applies
one knowledge update (a golden triple against one corrupted triple under the
margin ranking loss), otherwise one text update (a (center, context) pair
against ``negatives`` sampled noise words).  ``alpha = 0`` is plain
skip-gram, ``alpha = 1`` trains the knowledge model alone.  The learning
rate decays linearly to a 1e-4 floor over the scheduled step budget.
Micro-steps run in blocks of ``BLOCK``; see :func:`train`.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import (
    Vocabulary,
    build_negative_table,
    context_pair_arrays,
    _subsample_ids,
)
from .errors import CheckpointError, ConfigError, EmptyCorpusError, NumericError
from .kg import TripleSet, corrupt_triple
from .model import (
    RELATION_TYPES,
    EmbeddingStore,
    ModelConfig,
    RelationParams,
    _number_fields,
    all_finite,
    init_relation_params,
    knowledge_loss_grad,
    relation_array_shapes,
    skipgram_ns_loss_grad,
)

LR_FLOOR = 1e-4
# Micro-steps per block; see train.
BLOCK = 256

CHECKPOINT_MAGIC = b"KGVECBIN"
CHECKPOINT_VERSION = 3
# The header is padded so that the arrays start at a file offset that is a
# multiple of this.  Loaded arrays are views of a page-aligned map of the
# file, so they are aligned in memory too.
CHECKPOINT_ALIGN = 64


@dataclass
class TrainConfig:
    """Training hyperparameters.

    ``alpha`` is the knowledge share of the joint objective: the probability
    that a micro-step updates the knowledge model instead of the text model.
    """

    alpha: float = 0.2
    initial_lr: float = 0.025
    epochs: int = 1
    window: int = 5
    seed: int = 1
    subsample: float = 0.0
    use_float32: bool = False

    def __post_init__(self) -> None:
        _number_fields(self, float, "alpha", "initial_lr", "subsample")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 < self.initial_lr < math.inf:
            raise ConfigError(f"initial_lr must be finite and > 0, got {self.initial_lr}")
        _number_fields(self, int, "epochs", "window", "seed")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0.0 <= self.subsample < math.inf:
            raise ConfigError(f"subsample must be finite and >= 0, got {self.subsample}")
        if not isinstance(self.use_float32, (bool, np.bool_)):
            raise ConfigError(f"use_float32 must be a bool, got {self.use_float32!r}")
        self.use_float32 = bool(self.use_float32)  # a numpy bool is not JSON


@dataclass
class EpochStats:
    epoch: int
    text_loss: float
    kg_loss: float
    combined_loss: float
    text_steps: int
    kg_steps: int
    seconds: float
    kg_active: int = 0  # knowledge steps whose hinge was active


@dataclass
class TrainReport:
    """Per-epoch mean losses and step counts."""

    alpha: float
    rows: list[EpochStats] = field(default_factory=list)

    @property
    def first_combined(self) -> float:
        return self.rows[0].combined_loss

    @property
    def final_combined(self) -> float:
        return self.rows[-1].combined_loss

    def to_tsv(self) -> str:
        lines = [
            "epoch\ttext_loss\tkg_loss\tcombined_loss\ttext_steps\tkg_steps"
            "\tseconds\tkg_active"
        ]
        for r in self.rows:
            lines.append(
                f"{r.epoch}\t{r.text_loss:.6g}\t{r.kg_loss:.6g}"
                f"\t{r.combined_loss:.6g}\t{r.text_steps}\t{r.kg_steps}"
                f"\t{r.seconds:.3f}\t{r.kg_active}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class ModelState:
    """Everything needed to resume, evaluate, or export a trained model.

    ``relation_arrays`` holds the stacks of ``init_relation_params``;
    ``params`` one bundle per relation, of views of their rows."""

    model_config: ModelConfig
    train_config: TrainConfig
    vocab: Vocabulary
    relation_names: list[str]
    store: EmbeddingStore
    relation_arrays: dict[str, np.ndarray]
    params: list[RelationParams] = field(init=False)

    def __post_init__(self) -> None:
        kind = RELATION_TYPES[self.model_config.variant]
        self.params = [
            kind.from_arrays({n: a[i] for n, a in self.relation_arrays.items()})
            for i in range(len(self.relation_names))
        ]


def init_state(
    vocab: Vocabulary,
    relation_names: Sequence[str],
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> ModelState:
    """Deterministic parameter initialization for a given seed.

    ``train`` starts from exactly this state, so a run with ``alpha = 0``
    leaves the knowledge parameters bitwise equal to what this returns.
    """
    root = np.random.SeedSequence(train_config.seed)
    init_seed = root.spawn(1)[0]
    rng = np.random.default_rng(init_seed)
    dtype = np.float32 if train_config.use_float32 else np.float64
    store = EmbeddingStore.init(
        len(vocab), len(relation_names), model_config.dim, rng, dtype
    )
    relation_arrays = init_relation_params(model_config, len(relation_names), rng)
    return ModelState(
        model_config, train_config, vocab, list(relation_names), store, relation_arrays
    )


@np.errstate(over="ignore", invalid="ignore")  # NaN and inf end in NumericError
def train(
    tokens: Sequence[str] | None,
    vocab: Vocabulary,
    triples: TripleSet | None,
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> tuple[ModelState, TrainReport]:
    """Run the joint objective and return the trained state plus a report.

    ``tokens`` is the phrase-merged token stream (may be None/empty when
    ``alpha == 1``); ``triples`` may be None when ``alpha == 0``.  The step
    budget is ``epochs`` times the number of context pairs, falling back to
    ``epochs * len(triples)`` for corpus-free knowledge-only runs.

    One SGD stream runs the micro-steps in blocks of ``BLOCK``.  A block
    draws its objective coins at once, applies all of its text steps as one
    batched update taken at the block-start parameters, then its knowledge
    steps one by one.  A non-finite loss in a block raises ``NumericError``
    naming the block's step range; a NaN or inf left in the state at the end
    of an epoch raises one naming the array as ``load_checkpoint`` would.
    """
    mc, tc = model_config, train_config
    use_text = tc.alpha < 1.0
    use_kg = tc.alpha > 0.0

    root = np.random.SeedSequence(tc.seed)
    # Child 0 is reserved for init_state so the layout is stable.
    _, stream_seed, step_seed = root.spawn(3)

    state = init_state(
        vocab, triples.relation_names if triples is not None else [], mc, tc
    )
    store = state.store

    ids = vocab.encode(tokens) if tokens is not None else np.empty(0, dtype=np.int64)
    if tc.subsample > 0.0:
        ids = _subsample_ids(ids, vocab, tc.subsample, np.random.default_rng(stream_seed))
    centers, contexts = context_pair_arrays(ids, tc.window)
    n_pairs = len(centers)
    if use_text and n_pairs == 0:
        if tokens is None:
            raise ConfigError("alpha < 1 needs a corpus")
        raise EmptyCorpusError("the corpus yields no context pairs over the vocabulary")

    if use_kg:
        if triples is None or len(triples) == 0:
            raise ConfigError("alpha > 0 needs a non-empty triple set")
        missing = [n for n in triples.entity_names if n not in vocab]
        if missing:
            raise ConfigError(
                f"vocabulary does not cover {len(missing)} triple entities "
                f"(first: {missing[0]!r})"
            )
    # Only knowledge steps read entity rows, so at alpha 0 the vocabulary
    # need not cover the triples.
    entity_rows = (
        np.asarray([vocab.index[n] for n in triples.entity_names], dtype=np.int64)
        if use_kg
        else np.empty(0, dtype=np.int64)
    )

    table = build_negative_table(vocab) if use_text else None

    steps_per_epoch = n_pairs if n_pairs > 0 else len(triples)
    total_steps = tc.epochs * steps_per_epoch
    rng = np.random.default_rng(step_seed)
    order = _triple_order(triples, rng)
    text_cursor = 0

    report = TrainReport(alpha=tc.alpha)
    for epoch in range(tc.epochs):
        started = time.perf_counter()
        text_loss = kg_loss = 0.0
        text_steps = kg_steps = kg_active = 0
        epoch_end = (epoch + 1) * steps_per_epoch
        for first in range(epoch * steps_per_epoch, epoch_end, BLOCK):
            steps = np.arange(first, min(first + BLOCK, epoch_end))
            lr = tc.initial_lr * np.maximum(1.0 - steps / total_steps, LR_FLOOR)
            if use_text and use_kg:
                is_kg = rng.random(len(steps)) < tc.alpha
            else:
                is_kg = np.full(len(steps), use_kg)
            try:
                if not is_kg.all():
                    text_lr = lr[~is_kg]
                    n = len(text_lr)
                    rows = (text_cursor + np.arange(n)) % n_pairs
                    text_cursor = (text_cursor + n) % n_pairs
                    negs = table[rng.integers(0, len(table), size=n * mc.negatives)]
                    loss = _sgd_text_block(
                        store, centers[rows], contexts[rows], negs, text_lr
                    )
                    if not np.isfinite(loss):
                        raise NumericError("non-finite text loss")
                    text_loss += loss
                    text_steps += n
                kg_lr = lr[is_kg].tolist()
                for step_lr in kg_lr:
                    index = next(order)
                    loss, active = _kg_step(state, triples, entity_rows, index, rng, step_lr)
                    kg_loss += loss
                    kg_active += active
                kg_steps += len(kg_lr)
            except NumericError as exc:
                raise NumericError(f"{exc} in steps {steps[0]}..{steps[-1]}") from exc
        text_loss /= max(text_steps, 1)
        kg_loss /= max(kg_steps, 1)
        report.rows.append(
            EpochStats(
                epoch,
                text_loss,
                kg_loss,
                (1.0 - tc.alpha) * text_loss + tc.alpha * kg_loss,
                text_steps,
                kg_steps,
                time.perf_counter() - started,
                kg_active,
            )
        )
        for name, a in _state_arrays(state):
            if not all_finite(a):
                raise NumericError(_not_finite(name, a))

    return state, report


def _triple_order(triples: TripleSet, rng: np.random.Generator):
    """Triple indices, a fresh permutation drawn whenever one runs out."""
    while True:
        yield from rng.permutation(len(triples))


def _kg_step(
    state: ModelState,
    triples: TripleSet,
    entity_rows: np.ndarray,
    index: int,
    rng: np.random.Generator,
    lr: float,
) -> tuple[float, bool]:
    """One knowledge micro-step on triple ``index`` against one corruption;
    returns its hinge loss and whether the hinge was active."""
    h, r, t = triples.triples[index]
    ch, _, ct = corrupt_triple((h, r, t), triples, rng)

    store = state.store
    hr, tr = entity_rows[h], entity_rows[t]
    chr_, ctr = entity_rows[ch], entity_rows[ct]
    params = state.params[r]
    g = knowledge_loss_grad(
        state.model_config,
        params,
        store.input_vectors[hr],
        store.input_vectors[tr],
        store.input_vectors[chr_],
        store.input_vectors[ctr],
        store.relation_vectors[r],
    )
    if g.active:
        # Rows may coincide (one slot is shared with the golden triple);
        # sequential in-place updates accumulate correctly.
        store.input_vectors[hr] -= lr * g.head
        store.input_vectors[tr] -= lr * g.tail
        store.input_vectors[chr_] -= lr * g.corrupt_head
        store.input_vectors[ctr] -= lr * g.corrupt_tail
        store.relation_vectors[r] -= lr * g.relation
        for array, grad in zip(params.arrays().values(), g.params):
            array -= lr * grad
        params.renormalize()
    return g.loss, g.active


def _sgd_text_block(
    store: EmbeddingStore,
    centers: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
    lr: np.ndarray,
) -> float:
    """One SGD update from n (center, context) pairs, all taken at the
    current parameters; returns the summed loss.

    ``negatives`` holds k rows per pair (pair i's are rows i*k .. i*k+k-1)
    and ``lr`` one rate per pair.  A row that occurs several times in the
    block receives the sum of its updates.
    """
    inp, out = store.input_vectors, store.output_vectors
    g = skipgram_ns_loss_grad(inp[centers], out[contexts], out[negatives])
    lr = lr.astype(inp.dtype, copy=False)[:, None]
    k = len(negatives) // len(centers)
    _scatter_subtract(
        out,
        np.concatenate([contexts, negatives]),
        np.concatenate([lr * g.context, np.repeat(lr, k, axis=0) * g.negatives]),
    )
    _scatter_subtract(inp, centers, lr * g.center)
    return g.loss


def _scatter_subtract(table: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
    """``table[rows] -= updates``, where a repeated row takes every update.

    ``np.subtract.at`` runs on the flat view of the table, since numpy's
    fast path for ``ufunc.at`` covers 1-D indices only.
    """
    if not table.flags.c_contiguous:
        raise ValueError("scatter target must be C-contiguous")
    d = table.shape[1]
    flat_rows = (rows[:, None] * d + np.arange(d)).reshape(-1)
    np.subtract.at(table.reshape(-1), flat_rows, updates.reshape(-1))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def _state_arrays(state: ModelState):
    """Each array of ``state`` under its checkpoint name: the three tables,
    then the ``rel.<name>`` stacks, in the order of ``relation_arrays``."""
    store = state.store
    yield "input", store.input_vectors
    yield "output", store.output_vectors
    yield "relations", store.relation_vectors
    for name, stack in state.relation_arrays.items():
        yield f"rel.{name}", stack


def _not_finite(name: str, a: np.ndarray) -> str:
    """What is wrong with checkpoint array ``name``, which holds NaN or inf;
    for a ``rel.`` stack, the first relation that does is named."""
    bad = ~np.isfinite(a.reshape(len(a), -1)).all(axis=1)
    where = f" in relation {np.argmax(bad)}" if name.startswith("rel.") else ""
    return f"array {name!r} holds NaN or inf{where}"


def _checkpoint_layout(
    model_config: ModelConfig, train_config: TrainConfig, n_tokens: int, n_relations: int
) -> list[tuple[str, tuple[int, ...], np.dtype]]:
    """Name, shape and dtype of each array of a checkpoint, in file order.

    ``input``, ``output`` and ``relations`` take the state dtype (float32 iff
    ``use_float32``); then each name of a relation's ``arrays()`` view has a
    float64 stack ``rel.<name>`` of shape ``(R, *shape)``, relation i at [i].
    """
    d = model_config.dim
    dtype = np.dtype("<f4" if train_config.use_float32 else "<f8")
    layout = [
        ("input", (n_tokens, d), dtype),
        ("output", (n_tokens, d), dtype),
        ("relations", (n_relations, d), dtype),
    ]
    for name, shape in relation_array_shapes(model_config).items():
        layout.append((f"rel.{name}", (n_relations, *shape), np.dtype("<f8")))
    return layout


def save_checkpoint(state: ModelState, path: str | Path) -> None:
    """Binary dump of the full model state; load_checkpoint restores it
    bitwise.

    Raises ``ValueError``, before writing anything, if the state's arrays
    differ in name, shape or dtype from the layout that its configs,
    vocabulary and relations imply.  The bytes go to a temporary file beside ``path``
    that ``os.replace`` then moves into place, so ``path`` holds the old or
    the new checkpoint, never a partial one.
    """
    layout = _checkpoint_layout(
        state.model_config, state.train_config, len(state.vocab), len(state.relation_names)
    )
    arrays = dict(_state_arrays(state))
    if extra := sorted(arrays.keys() - {name for name, _, _ in layout}):
        raise ValueError(f"state array {extra[0]!r} is not one that its configs imply")
    for name, shape, dtype in layout:
        a = arrays.get(name)
        if a is None or (a.shape, a.dtype) != (shape, dtype):
            raise ValueError(
                f"state array {name!r} is not of the shape {shape} and dtype "
                f"{dtype} that its configs imply"
            )
    header = {
        "model": asdict(state.model_config),
        "train": asdict(state.train_config),
        "vocab": {"tokens": state.vocab.tokens, "counts": state.vocab.counts.tolist()},
        "relations": state.relation_names,
    }
    blob = json.dumps(header).encode("utf-8")
    # Trailing spaces keep the blob valid JSON and align the arrays, which
    # numpy would otherwise copy into aligned buffers before each matmul.
    blob += b" " * (-(len(CHECKPOINT_MAGIC) + 8 + len(blob)) % CHECKPOINT_ALIGN)
    arrays_size = sum(a.nbytes for a in arrays.values())
    size = len(CHECKPOINT_MAGIC) + 8 + len(blob) + arrays_size
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            if hasattr(os, "posix_fallocate"):
                # With its blocks allocated up front, the file has no delayed
                # allocation for ext4 to flush when the rename replaces the
                # old checkpoint, which would make a save up to 1.5x slower.
                os.posix_fallocate(fh.fileno(), 0, size)
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
            fh.write(blob)
            for name, _, _ in layout:
                fh.write(np.ascontiguousarray(arrays[name]))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _checked_section(path, what: str, section, keys) -> dict:
    """``section`` itself if it is a JSON object with exactly ``keys``."""
    if not isinstance(section, dict):
        raise CheckpointError(f"{path}: checkpoint {what} is not an object")
    unknown = sorted(set(section) - set(keys))
    missing = sorted(set(keys) - set(section))
    if unknown or missing:
        raise CheckpointError(
            f"{path}: checkpoint {what} has unknown keys {unknown}, "
            f"missing keys {missing}"
        )
    return section


def _checked_config(path, what: str, cls, section):
    _checked_section(path, what, section, [f.name for f in fields(cls)])
    # A saved config holds every value; a null would take a derived default.
    null = [key for key, value in section.items() if value is None]
    if null:
        raise CheckpointError(f"{path}: checkpoint {what} rejected: {null[0]} is null")
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: checkpoint {what} rejected: {exc}") from exc


def _is_list_of(value, kind: type) -> bool:
    """Whether ``value`` is a list of exactly ``kind`` (so a bool is no int)."""
    return isinstance(value, list) and set(map(type, value)) <= {kind}


def load_checkpoint(path: str | Path) -> ModelState:
    """Inverse of :func:`save_checkpoint`.

    The header's configs, vocabulary and relation names fix the shape and
    dtype of every array, so the file must hold exactly their bytes after
    the header; this is checked before the file is mapped.  Every array
    must hold only finite values.

    The arrays are views of one copy-on-write map of the file.  A save to
    the same path replaces the file and leaves them as they were; a tool
    that rewrites the file in place can change them, or end the process
    with SIGBUS if it shrinks the file.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a kgvec checkpoint")
        head = fh.read(8)
        if len(head) != 8:
            raise CheckpointError(f"{path}: truncated checkpoint header")
        version, blob_len = struct.unpack("<II", head)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {version}; "
                f"this release reads version {CHECKPOINT_VERSION} only"
            )
        if blob_len > size - fh.tell():
            raise CheckpointError(f"{path}: truncated checkpoint header")
        try:
            header = json.loads(fh.read(blob_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt checkpoint header") from exc
        _checked_section(path, "header", header, ("model", "train", "vocab", "relations"))
        model_config = _checked_config(path, "model", ModelConfig, header["model"])
        train_config = _checked_config(path, "train", TrainConfig, header["train"])
        v = _checked_section(path, "vocab", header["vocab"], ("tokens", "counts"))
        if not (_is_list_of(v["tokens"], str) and _is_list_of(v["counts"], int)):
            raise CheckpointError(
                f"{path}: checkpoint vocab needs a list of strings as tokens "
                "and a list of integers as counts"
            )
        try:
            vocab = Vocabulary(v["tokens"], np.asarray(v["counts"], dtype=np.int64))
        except (OverflowError, ValueError) as exc:
            raise CheckpointError(f"{path}: checkpoint vocab rejected: {exc}") from exc
        relation_names = header["relations"]
        if not _is_list_of(relation_names, str):
            raise CheckpointError(f"{path}: checkpoint relations is not a list of strings")

        layout = _checkpoint_layout(
            model_config, train_config, len(vocab), len(relation_names)
        )
        offset = fh.tell()
        implied = sum(math.prod(shape) * dtype.itemsize for _, shape, dtype in layout)
        if implied != size - offset:
            raise CheckpointError(
                f"{path}: the header implies {implied} bytes of arrays, "
                f"the file holds {size - offset}"
            )
        # Copy-on-write: the arrays are writable, a write stays in this
        # process, and the page cache supplies the bytes without a copy.
        buffer = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
    if len(buffer) != size:
        raise CheckpointError(
            f"{path}: the file changed size while loading ({size} bytes, "
            f"then {len(buffer)})"
        )
    arrays: dict[str, np.ndarray] = {}
    for name, shape, dtype in layout:
        a = np.ndarray(shape, dtype, buffer=buffer, offset=offset)
        offset += a.nbytes
        # This pass is the one that pages the array in.
        if not all_finite(a):
            raise CheckpointError(f"{path}: checkpoint {_not_finite(name, a)}")
        arrays[name.removeprefix("rel.")] = a

    store = EmbeddingStore(arrays.pop("input"), arrays.pop("output"), arrays.pop("relations"))
    return ModelState(model_config, train_config, vocab, relation_names, store, arrays)
