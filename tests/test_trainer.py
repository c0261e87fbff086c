import json
import re
import struct
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

import kgvec.trainer
from kgvec.corpus import Vocabulary, context_pair_arrays
from kgvec.errors import CheckpointError, ConfigError, NumericError
from kgvec.model import (
    VARIANTS,
    EmbeddingStore,
    ModelConfig,
    all_finite,
    relation_array_shapes,
    skipgram_ns_loss_grad,
)
from kgvec.trainer import (
    BLOCK,
    CHECKPOINT_MAGIC,
    TrainConfig,
    _scatter_subtract,
    _sgd_text_block,
    init_state,
    load_checkpoint,
    save_checkpoint,
    train,
)
from oracles import lr_at
from synthdata import relation_world, translation_fixture


@pytest.fixture(scope="module")
def world():
    return translation_fixture(seed=0, corpus_len=1500)


@pytest.fixture(scope="module")
def three_relations():
    """A vocabulary and 12 triples over 3 relations."""
    _, vocab, triples, _ = relation_world(seed=0, n_groups=4, n_filler=10, corpus_len=200)
    return vocab, triples


def poison_after_last_step(monkeypatch, name: str, value: float, relation: int) -> list:
    """Make ``train`` set one entry of checkpoint array ``name`` to ``value``
    once the first epoch's steps are done: entry 0 of relation ``relation``'s
    part of a ``rel.`` stack, or of row ``relation`` of a table.  Returns the
    list that receives the state ``train`` starts from."""
    states = []
    real_init, real_stats = kgvec.trainer.init_state, kgvec.trainer.EpochStats

    def init_state(*args):
        states.append(real_init(*args))
        return states[-1]

    def epoch_stats(*args):
        # train takes an epoch's stats after its last step, before its check.
        state = states[-1]
        if name.startswith("rel."):
            array = state.params[relation].arrays()[name.removeprefix("rel.")]
        else:
            store = state.store
            tables = {
                "input": store.input_vectors,
                "output": store.output_vectors,
                "relations": store.relation_vectors,
            }
            array = tables[name][relation]
        array.flat[0] = value
        return real_stats(*args)

    monkeypatch.setattr(kgvec.trainer, "init_state", init_state)
    monkeypatch.setattr(kgvec.trainer, "EpochStats", epoch_stats)
    return states


def small_model(variant="lowrank"):
    return ModelConfig(variant=variant, dim=16, head_rank=6, tail_rank=12)


class TestLrSchedule:
    def test_initial(self):
        assert lr_at(0, 1000, 0.025) == 0.025

    def test_floor_at_end(self):
        assert lr_at(1000, 1000, 0.025) == pytest.approx(0.025e-4)

    def test_midpoint(self):
        assert lr_at(500, 1000, 0.025) == pytest.approx(0.0125)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lr_at(-1, 10, 0.025)
        with pytest.raises(ValueError):
            lr_at(11, 10, 0.025)

    def test_trainer_follows_the_schedule(self, world, monkeypatch):
        tokens, vocab, _ = world
        seen = []

        def record(store, centers, contexts, negatives, lr):
            seen.append(lr)
            return 0.0

        monkeypatch.setattr("kgvec.trainer._sgd_text_block", record)
        tc = TrainConfig(alpha=0.0, epochs=2, window=2, seed=3)
        train(tokens, vocab, None, small_model(), tc)
        total = tc.epochs * len(context_pair_arrays(vocab.encode(tokens), tc.window)[0])
        want = [lr_at(s, total, tc.initial_lr) for s in range(total)]
        assert np.concatenate(seen).tolist() == want


class TestTrainConfig:
    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            TrainConfig(alpha=1.5)

    @pytest.mark.parametrize(
        "bad",
        [
            {"initial_lr": 0.0},
            {"initial_lr": -0.1},
            {"initial_lr": float("nan")},
            {"initial_lr": float("inf")},
            {"subsample": -1.0},
            {"subsample": float("nan")},
            {"subsample": float("inf")},
        ],
    )
    def test_bad_rate_rejected(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [{"epochs": "2"}, {"epochs": 2.0}, {"window": True}, {"seed": 1.5}, {"seed": None}],
    )
    def test_non_integer_count_rejected(self, bad):
        with pytest.raises(ConfigError, match="must be an integer"):
            TrainConfig(**bad)

    @pytest.mark.parametrize("field", ["epochs", "window"])
    def test_count_below_one_rejected(self, field):
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            TrainConfig(**{field: 0})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("bad", ["no", 0, 1.0, None], ids=repr)
    def test_non_bool_float32_rejected(self, bad):
        with pytest.raises(ConfigError, match="use_float32 must be a bool"):
            TrainConfig(use_float32=bad)

    @pytest.mark.parametrize("field", ["alpha", "initial_lr", "subsample"])
    @pytest.mark.parametrize("bad", [True, "0.5", None], ids=repr)
    def test_non_real_rate_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=f"{field} must be a real number, got {bad!r}"):
            TrainConfig(**{field: bad})

    def test_integer_past_the_float_range_rejected(self):
        with pytest.raises(ConfigError, match="initial_lr is past the float range"):
            TrainConfig(initial_lr=10**400)


class TestDegenerateMixes:
    def test_alpha_zero_leaves_knowledge_parameters_at_init(self, world):
        tokens, vocab, triples = world
        mc = small_model()
        tc = TrainConfig(alpha=0.0, epochs=1, seed=5, window=2)
        state, report = train(tokens, vocab, triples, mc, tc)
        init = init_state(vocab, triples.relation_names, mc, tc)
        assert sum(r.kg_steps for r in report.rows) == 0
        assert np.array_equal(state.store.relation_vectors, init.store.relation_vectors)
        for got, want in zip(state.params, init.params):
            assert np.array_equal(got.head_proj.weights, want.head_proj.weights)
            assert np.array_equal(got.head_proj.out_factors, want.head_proj.out_factors)
            assert np.array_equal(got.head_proj.in_factors, want.head_proj.in_factors)
            assert np.array_equal(got.tail_proj.in_factors, want.tail_proj.in_factors)
        assert not np.array_equal(state.store.input_vectors, init.store.input_vectors)

    def test_alpha_one_leaves_output_vectors_untouched(self, world):
        tokens, vocab, triples = world
        mc = small_model("transe")
        tc = TrainConfig(alpha=1.0, epochs=1, seed=5, window=2)
        state, report = train(tokens, vocab, triples, mc, tc)
        init = init_state(vocab, triples.relation_names, mc, tc)
        assert sum(r.text_steps for r in report.rows) == 0
        assert np.array_equal(state.store.output_vectors, init.store.output_vectors)
        # words that are not entities keep their initial input vectors too
        non_entities = [
            vocab.index[t] for t in vocab.tokens if t not in triples.entity_names
        ]
        assert np.array_equal(
            state.store.input_vectors[non_entities],
            init.store.input_vectors[non_entities],
        )

    def test_config_errors(self, world):
        tokens, vocab, triples = world
        mc = small_model()
        with pytest.raises(ConfigError):
            train(None, vocab, triples, mc, TrainConfig(alpha=0.5))
        with pytest.raises(ConfigError):
            train(tokens, vocab, None, mc, TrainConfig(alpha=0.5))

    def test_alpha_zero_needs_no_entity_rows(self):
        tokens, vocab, triples = translation_fixture(seed=0)
        keep = [t for t in vocab.tokens if t != "src00"]
        partial = Vocabulary(keep, vocab.counts[[vocab.index[t] for t in keep]])
        mc = small_model()
        tc = TrainConfig(alpha=0.0, epochs=1, seed=5, window=2)
        state, report = train(tokens, partial, triples, mc, tc)
        start = init_state(partial, triples.relation_names, mc, tc)
        assert sum(r.text_steps for r in report.rows) > 0
        assert same_bits(state.store.relation_vectors, start.store.relation_vectors)
        for trained, initial in zip(state.params, start.params, strict=True):
            assert all(
                same_bits(a, b) for a, b in zip(trained.arrays().values(), initial.arrays().values())
            )
        with pytest.raises(ConfigError, match="does not cover 1 triple entities"):
            train(tokens, partial, triples, mc, TrainConfig(alpha=0.5, epochs=1, seed=5, window=2))

    def test_vocab_must_cover_entities(self, world):
        tokens, _, triples = world
        tiny = Vocabulary(["only", "these"], np.array([1, 1]))
        with pytest.raises(ConfigError):
            train(
                ["only", "these", "only"],
                tiny,
                triples,
                small_model(),
                TrainConfig(alpha=0.5, window=1),
            )


class TestConvergence:
    def test_exact_translation_kg_reaches_near_zero_loss(self, world):
        tokens, vocab, triples = world
        mc = small_model("transe")
        tc = TrainConfig(alpha=0.5, epochs=3, seed=1, window=2)
        state, report = train(tokens, vocab, triples, mc, tc)
        assert report.rows[-1].kg_loss < 0.01 * mc.margin

    def test_combined_loss_non_increasing_within_tolerance(self, world):
        tokens, vocab, triples = world
        tc = TrainConfig(alpha=0.5, epochs=4, seed=2, window=2)
        _, report = train(tokens, vocab, triples, small_model("transe"), tc)
        combined = [r.combined_loss for r in report.rows]
        for earlier, later in zip(combined, combined[1:]):
            assert later <= earlier * 1.01
        assert all(np.isfinite(c) and c >= 0 for c in combined)


class TestDeterminism:
    def test_bitwise_reproducible_single_worker(self, world):
        tokens, vocab, triples = world
        mc = small_model()
        tc = TrainConfig(alpha=0.4, epochs=1, seed=11, window=2)
        s1, _ = train(tokens, vocab, triples, mc, tc)
        s2, _ = train(tokens, vocab, triples, mc, tc)
        assert np.array_equal(s1.store.input_vectors, s2.store.input_vectors)
        assert np.array_equal(s1.store.output_vectors, s2.store.output_vectors)
        assert np.array_equal(s1.store.relation_vectors, s2.store.relation_vectors)
        for p1, p2 in zip(s1.params, s2.params):
            assert np.array_equal(p1.head_proj.in_factors, p2.head_proj.in_factors)
            assert np.array_equal(p1.tail_proj.out_factors, p2.tail_proj.out_factors)


class TestSubsampling:
    def test_seeded_run_repeats_bitwise_on_fewer_pairs(self, world):
        tokens, vocab, _ = world
        mc = ModelConfig(dim=8)
        runs = [
            train(tokens, vocab, None, mc,
                  TrainConfig(alpha=0.0, window=2, seed=5, subsample=subsample))
            for subsample in (1e-3, 1e-3, 0.0)
        ]
        (first, report), (again, repeat), (_, full) = runs
        assert same_bits(first.store.input_vectors, again.store.input_vectors)
        assert same_bits(first.store.output_vectors, again.store.output_vectors)
        steps = [r.rows[0].text_steps for r in (report, repeat, full)]
        assert steps[0] == steps[1] < steps[2]


class TestTextBlock:
    def test_repeated_rows_receive_the_sum_of_per_pair_updates(self):
        # Three words, so rows repeat within the block as centers, as
        # contexts, as negatives, and across those roles.
        rng = np.random.default_rng(12)
        d, k = 4, 3
        store = EmbeddingStore(
            rng.standard_normal((3, d)), rng.standard_normal((3, d)), np.zeros((0, d))
        )
        centers = np.array([0, 0, 1, 2, 0, 1])
        contexts = np.array([1, 1, 2, 0, 1, 0])
        negatives = rng.integers(0, 3, size=len(centers) * k)
        lr = np.linspace(0.5, 0.1, len(centers))

        inp, out = store.input_vectors.copy(), store.output_vectors.copy()
        want_inp, want_out = inp.copy(), out.copy()
        want_loss = 0.0
        for i, (c, o) in enumerate(zip(centers, contexts)):
            negs = negatives[i * k : (i + 1) * k]
            g = skipgram_ns_loss_grad(inp[c], out[o], out[negs])
            want_loss += g.loss
            want_inp[c] -= lr[i] * g.center
            want_out[o] -= lr[i] * g.context
            for j, row in enumerate(negs):
                want_out[row] -= lr[i] * g.negatives[j]

        loss = _sgd_text_block(store, centers, contexts, negatives, lr)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        np.testing.assert_allclose(store.input_vectors, want_inp, rtol=1e-12)
        np.testing.assert_allclose(store.output_vectors, want_out, rtol=1e-12)

    def test_non_finite_text_loss_names_its_block(self, world):
        tokens, vocab, triples = world
        n_pairs = len(context_pair_arrays(vocab.encode(tokens), 2)[0])
        tc = TrainConfig(alpha=0.0, epochs=3, seed=1, window=2, initial_lr=1e200)
        with np.errstate(all="ignore"), pytest.raises(NumericError) as exc:
            train(tokens, vocab, triples, small_model(), tc)
        match = re.search(r"text loss in steps (\d+)\.\.(\d+)", str(exc.value))
        assert match, str(exc.value)
        first, last = int(match[1]), int(match[2])
        assert first % BLOCK == 0 and last - first == BLOCK - 1
        assert last < n_pairs  # caught inside epoch 1, not at its end

    def test_scatter_refuses_a_table_that_is_not_c_contiguous(self):
        # The flat view the scatter writes through would be a copy.
        table = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        before = table.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            _scatter_subtract(table, np.array([0, 2]), np.ones((2, 3)))
        np.testing.assert_array_equal(table, before)


class TestMixingRatio:
    def test_text_fraction_tracks_alpha(self, world):
        tokens, vocab, triples = world
        alpha = 0.3
        tc = TrainConfig(alpha=alpha, epochs=2, seed=6, window=2)
        _, report = train(tokens, vocab, triples, small_model("transe"), tc)
        text = sum(r.text_steps for r in report.rows)
        kg = sum(r.kg_steps for r in report.rows)
        n = text + kg
        sigma = np.sqrt(alpha * (1 - alpha) / n)
        assert abs(text / n - (1 - alpha)) <= 3 * sigma


class TestActiveCount:
    def test_zero_without_knowledge_steps(self, world):
        tokens, vocab, triples = world
        tc = TrainConfig(alpha=0.0, epochs=2, seed=5, window=2)
        _, report = train(tokens, vocab, triples, small_model(), tc)
        assert [r.kg_active for r in report.rows] == [0, 0]

    def test_counts_the_active_hinges_of_each_epoch(self, world, monkeypatch):
        tokens, vocab, triples = world
        flags = []
        plain = kgvec.trainer.knowledge_loss_grad

        def counted(*args):
            g = plain(*args)
            flags.append(g.active)
            return g

        monkeypatch.setattr(kgvec.trainer, "knowledge_loss_grad", counted)
        tc = TrainConfig(alpha=0.5, epochs=3, seed=4, window=2)
        _, report = train(tokens, vocab, triples, small_model(), tc)
        ends = np.cumsum([r.kg_steps for r in report.rows])
        assert ends[-1] == len(flags)
        per_epoch = [sum(part) for part in np.split(flags, ends[:-1])]
        assert [r.kg_active for r in report.rows] == per_epoch
        assert all(r.kg_active <= r.kg_steps for r in report.rows)
        assert 0 < sum(flags) < len(flags)

    def test_is_the_last_report_column(self, world):
        tokens, vocab, triples = world
        tc = TrainConfig(alpha=0.5, epochs=1, seed=4, window=2)
        _, report = train(tokens, vocab, triples, small_model(), tc)
        header, row = report.to_tsv().splitlines()
        assert header.split("\t")[-1] == "kg_active"
        assert row.split("\t")[-1] == str(report.rows[0].kg_active)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def file_order_arrays(state):
    """The arrays of a checkpoint of ``state``, in file order."""
    store, views = state.store, [p.arrays() for p in state.params]
    arrays = [store.input_vectors, store.output_vectors, store.relation_vectors]
    return arrays + [np.stack([v[name] for v in views]) for name in views[0]]


def header_of(state):
    return {
        "model": asdict(state.model_config),
        "train": asdict(state.train_config),
        "vocab": {"tokens": state.vocab.tokens, "counts": state.vocab.counts.tolist()},
        "relations": state.relation_names,
    }


class TestTextOnly:
    def test_triples_leave_an_alpha_zero_run_unchanged(self, world):
        tokens, vocab, triples = world
        tc = TrainConfig(alpha=0.0, epochs=1, window=2, seed=4)
        (joint, _), (text, _) = (
            train(tokens, vocab, kg, small_model(), tc) for kg in (triples, None)
        )
        assert same_bits(joint.store.input_vectors, text.store.input_vectors)
        assert same_bits(joint.store.output_vectors, text.store.output_vectors)
        assert text.params == [] and text.store.relation_vectors.shape == (0, 16)
        # The knowledge side is built and left as initialised.
        start = init_state(vocab, triples.relation_names, small_model(), tc)
        assert same_bits(joint.store.relation_vectors, start.store.relation_vectors)
        for trained, initial in zip(joint.params, start.params, strict=True):
            assert all(
                same_bits(a, b) for a, b in zip(trained.arrays().values(), initial.arrays().values())
            )


class TestCheckpoint:
    @pytest.mark.parametrize(
        "variant, alpha",
        [*(pytest.param(v, 0.5, id=v) for v in VARIANTS),
         pytest.param("lowrank", 0.0, id="text-only")],
    )
    def test_round_trip_bitwise(self, world, tmp_path, variant, alpha):
        tokens, vocab, triples = world
        tc = TrainConfig(alpha=alpha, epochs=1, seed=8, window=2)
        # The text-only case has no relations, so its stacks are empty.
        kg = triples if alpha else None
        state, _ = train(tokens, vocab, kg, small_model(variant), tc)
        path = tmp_path / "model.kgv"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert same_bits(loaded.store.input_vectors, state.store.input_vectors)
        assert same_bits(loaded.store.output_vectors, state.store.output_vectors)
        assert same_bits(loaded.store.relation_vectors, state.store.relation_vectors)
        assert len(loaded.params) == len(state.params)
        for p1, p2 in zip(loaded.params, state.params):
            assert type(p1) is type(p2)
            v1, v2 = p1.arrays(), p2.arrays()
            assert list(v1) == list(v2)
            assert all(same_bits(v1[name], v2[name]) for name in v2)
        again = tmp_path / "again.kgv"
        save_checkpoint(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        assert loaded.vocab.tokens == state.vocab.tokens
        assert loaded.vocab.index == state.vocab.index
        assert loaded.relation_names == state.relation_names
        assert loaded.model_config == state.model_config
        assert loaded.train_config == state.train_config

    def test_numpy_integer_config_saves_and_loads(self, world, tmp_path):
        _, vocab, triples = world
        mc = ModelConfig(dim=np.int64(4), head_rank=2, tail_rank=2)
        tc = TrainConfig(epochs=np.int64(2), window=np.int32(3), seed=np.uint8(7))
        assert type(mc.dim) is int and type(tc.epochs) is int
        assert all(type(getattr(mc, f)) is int for f in ("head_rank", "tail_rank", "negatives"))
        assert type(tc.window) is int and type(tc.seed) is int
        state = init_state(vocab, triples.relation_names, mc, tc)
        path = tmp_path / "model.kgv"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.model_config == mc and loaded.train_config == tc
        assert same_bits(loaded.store.input_vectors, state.store.input_vectors)
        assert same_bits(loaded.store.relation_vectors, state.store.relation_vectors)
        for p1, p2 in zip(loaded.params, state.params, strict=True):
            assert all(same_bits(a, b) for a, b in zip(p1.arrays().values(), p2.arrays().values()))

    def test_numpy_float_config_trains_saves_and_loads(self, world, tmp_path):
        tokens, vocab, triples = world
        mc = ModelConfig(dim=4, head_rank=2, tail_rank=2, margin=np.float32(1.5))
        tc = TrainConfig(
            alpha=np.float32(0.5), initial_lr=np.float32(0.025), subsample=np.float64(1e-3),
            window=2,
        )
        assert all(type(v) is float for v in (mc.margin, tc.alpha, tc.initial_lr, tc.subsample))
        assert tc.initial_lr == float(np.float32(0.025))
        state, _ = train(tokens, vocab, triples, mc, tc)
        path = tmp_path / "model.kgv"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.model_config == mc and loaded.train_config == tc
        assert all(map(same_bits, file_order_arrays(loaded), file_order_arrays(state)))

    def test_file_is_header_then_name_major_stacks(self, world, tmp_path):
        _, vocab, _ = world
        tc = TrainConfig(use_float32=True)
        state = init_state(vocab, ["a", "b", "c"], small_model(), tc)
        path = tmp_path / "model.kgv"
        save_checkpoint(state, path)
        data = path.read_bytes()
        start = len(CHECKPOINT_MAGIC) + 8
        version, size = struct.unpack_from("<II", data, len(CHECKPOINT_MAGIC))
        assert version == 3
        header = json.loads(data[start : start + size])
        assert sorted(header) == ["model", "relations", "train", "vocab"]
        assert header["vocab"] == {"tokens": vocab.tokens, "counts": vocab.counts.tolist()}
        want = file_order_arrays(state)
        assert all(a.dtype == np.float32 for a in want[:3])
        assert all(a.dtype == np.float64 for a in want[3:])
        assert data[start + size :] == b"".join(a.tobytes() for a in want)

    def test_numpy_bool_float32_saves_as_true(self, world, tmp_path):
        _, vocab, _ = world
        state = init_state(vocab, ["a"], small_model(), TrainConfig(use_float32=np.True_))
        assert type(state.train_config.use_float32) is bool
        path = tmp_path / "model.kgv"
        save_checkpoint(state, path)
        assert b'"use_float32": true' in path.read_bytes()
        assert load_checkpoint(path).train_config.use_float32 is True

    def test_non_bool_float32_in_header_is_a_checkpoint_error(self, world, tmp_path):
        _, vocab, _ = world
        path = tmp_path / "model.kgv"
        save_checkpoint(init_state(vocab, ["a"], small_model(), TrainConfig()), path)
        data = path.read_bytes()
        # Same length, so the header's size field and the padding still hold.
        bad = data.replace(b'"use_float32": false', b'"use_float32": "no" ')
        assert bad != data
        path.write_bytes(bad)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == (
            f"{path}: checkpoint train rejected: use_float32 must be a bool, got 'no'"
        )

    def test_non_finite_relation_is_named(self, world, tmp_path):
        _, vocab, _ = world
        state = init_state(vocab, ["a", "b", "c"], small_model(), TrainConfig())
        state.params[2].tail_proj.in_factors[0, 0] = np.nan
        path = tmp_path / "model.kgv"
        save_checkpoint(state, path)
        with pytest.raises(
            CheckpointError,
            match=re.escape("array 'rel.tail.in' holds NaN or inf in relation 2"),
        ):
            load_checkpoint(path)

    def test_saving_over_the_loaded_file_leaves_the_loaded_state_as_it_was(
        self, world, tmp_path
    ):
        _, vocab, _ = world
        path = tmp_path / "model.kgv"
        save_checkpoint(init_state(vocab, ["a", "b"], small_model(), TrainConfig(seed=1)), path)
        data = path.read_bytes()
        loaded = load_checkpoint(path)
        # A write to a loaded array stays in this process's copy.
        loaded.store.input_vectors[0, 0] += 1.0
        assert path.read_bytes() == data
        snapshot = [a.copy() for a in file_order_arrays(loaded)]
        other = init_state(vocab, ["a", "b"], small_model(), TrainConfig(seed=2))
        save_checkpoint(other, path)
        assert all(map(same_bits, file_order_arrays(loaded), snapshot))
        assert all(map(same_bits, file_order_arrays(load_checkpoint(path)),
                       file_order_arrays(other)))

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("use_float32", [False, True], ids=["f8", "f4"])
    def test_header_is_padded_json_and_arrays_load_aligned(
        self, world, tmp_path, variant, use_float32
    ):
        _, vocab, _ = world
        # At d=16 and R=4 every array's size is a multiple of 64 bytes, so
        # each one starts on a 64-byte file offset, not only the first.
        tc = TrainConfig(use_float32=use_float32)
        state = init_state(vocab, ["a", "b", "c", "d"], small_model(variant), tc)
        path = tmp_path / "model.kgv"
        save_checkpoint(state, path)
        data = path.read_bytes()
        start = len(CHECKPOINT_MAGIC) + 8
        (size,) = struct.unpack_from("<I", data, start - 4)
        assert (start + size) % 64 == 0
        assert json.loads(data[start : start + size]) == header_of(state)
        loaded = load_checkpoint(path)
        assert all(a.ctypes.data % 64 == 0 for a in file_order_arrays(loaded)[:3])
        assert all(a.ctypes.data % 64 == 0 for a in loaded.params[0].arrays().values())

    def test_unpadded_version_3_file_loads_bitwise(self, world, tmp_path):
        _, vocab, _ = world
        for names in (["a", "b", "c"], ["a", "b", "cc"]):
            state = init_state(vocab, names, small_model(), TrainConfig())
            blob = json.dumps(header_of(state)).encode("utf-8")
            # One of the two lengths leaves the float64 arrays unaligned.
            if (len(CHECKPOINT_MAGIC) + 8 + len(blob)) % 8:
                break
        path = tmp_path / "unpadded.kgv"
        path.write_bytes(
            CHECKPOINT_MAGIC + struct.pack("<II", 3, len(blob)) + blob
            + b"".join(a.tobytes() for a in file_order_arrays(state))
        )
        loaded = load_checkpoint(path)
        assert not loaded.store.input_vectors.flags.aligned
        assert all(map(same_bits, file_order_arrays(loaded), file_order_arrays(state)))
        assert loaded.relation_names == state.relation_names

    def test_load_maps_instead_of_allocating(self, tmp_path):
        vocab = Vocabulary([f"w{i}" for i in range(5000)], np.ones(5000, dtype=np.int64))
        mc = ModelConfig(variant="transe", dim=128)
        state = init_state(vocab, ["r"], mc, TrainConfig())
        nbytes = sum(a.nbytes for a in file_order_arrays(state))
        assert nbytes >= 8 << 20
        path = tmp_path / "model.kgv"
        save_checkpoint(state, path)
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nbytes / 4
        assert all(map(same_bits, file_order_arrays(loaded), file_order_arrays(state)))

    def test_short_map_is_a_checkpoint_error(self, world, tmp_path, monkeypatch):
        _, vocab, _ = world
        path = tmp_path / "model.kgv"
        save_checkpoint(init_state(vocab, ["a"], small_model(), TrainConfig()), path)
        real = kgvec.trainer.mmap.mmap
        short = path.stat().st_size - 64
        monkeypatch.setattr(
            kgvec.trainer.mmap, "mmap", lambda fd, length, access: real(fd, short, access=access)
        )
        with pytest.raises(CheckpointError, match="changed size while loading"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.kgv"
        path.write_bytes(b"NOTKGVEC" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, world, tmp_path):
        tokens, vocab, triples = world
        state, _ = train(
            tokens,
            vocab,
            triples,
            small_model("transe"),
            TrainConfig(alpha=0.5, epochs=1, seed=9, window=2),
        )
        path = tmp_path / "model.kgv"
        save_checkpoint(state, path)
        data = path.read_bytes()
        for cut in (4, len(CHECKPOINT_MAGIC) + 3, len(data) // 2, len(data) - 17):
            trunc = tmp_path / "trunc.kgv"
            trunc.write_bytes(data[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(trunc)

    def test_version_mismatch_rejected(self, world, tmp_path):
        tokens, vocab, triples = world
        state, _ = train(
            tokens,
            vocab,
            triples,
            small_model("transe"),
            TrainConfig(alpha=0.5, epochs=1, seed=9, window=2),
        )
        path = tmp_path / "model.kgv"
        save_checkpoint(state, path)
        data = bytearray(path.read_bytes())
        data[len(CHECKPOINT_MAGIC)] = 99
        bad = tmp_path / "bad.kgv"
        bad.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)


class TestRelationUpdate:
    def test_transh_normals_stay_unit_length(self, world):
        _, vocab, triples = world
        tc = TrainConfig(alpha=1.0, epochs=2, seed=3)
        state, report = train(None, vocab, triples, small_model("transh"), tc)
        assert report.rows[-1].kg_steps > 0
        for p in state.params:
            assert abs(np.linalg.norm(p.normal) - 1.0) < 1e-12


class TestFiniteCheck:
    """The end-of-epoch check names a non-finite array as load_checkpoint does."""

    @staticmethod
    def check(monkeypatch, tmp_path, three_relations, variant, name, value, relation=1):
        vocab, triples = three_relations
        with monkeypatch.context() as m:
            states = poison_after_last_step(m, name, value, relation)
            tc = TrainConfig(alpha=1.0, epochs=2, seed=2)
            with pytest.raises(NumericError) as exc:
                train(None, vocab, triples, small_model(variant), tc)
        where = f" in relation {relation}" if name.startswith("rel.") else ""
        assert str(exc.value) == f"array {name!r} holds NaN or inf{where}"
        path = tmp_path / "poisoned.kgv"
        save_checkpoint(states[0], path)
        with pytest.raises(CheckpointError) as loaded:
            load_checkpoint(path)
        assert str(loaded.value) == f"{path}: checkpoint {exc.value}"

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_names_the_table(self, variant, monkeypatch, tmp_path, three_relations):
        for name in ("input", "output", "relations"):
            for value in (np.nan, np.inf):
                self.check(monkeypatch, tmp_path, three_relations, variant, name, value)

    @pytest.mark.parametrize("variant", ["lowrank", "transh", "se", "transr"])
    def test_names_the_relation_and_the_array(
        self, variant, monkeypatch, tmp_path, three_relations
    ):
        for name in relation_array_shapes(small_model(variant)):
            for value in (np.nan, -np.inf):
                self.check(
                    monkeypatch, tmp_path, three_relations, variant, f"rel.{name}", value
                )

    def test_lowrank_head_factor(self, monkeypatch, tmp_path, three_relations):
        self.check(
            monkeypatch, tmp_path, three_relations, "lowrank", "rel.head.out", np.inf, 0
        )


class TestOverflow:
    def test_raises_numeric_error_without_a_warning(self, world, monkeypatch):
        tokens, vocab, triples = world
        real_init = kgvec.trainer.init_state

        def init_state(*args):
            # Factors this large overflow the first knowledge step's score.
            state = real_init(*args)
            for p in state.params:
                for array in p.arrays().values():
                    array[...] = 1e200
            return state

        monkeypatch.setattr(kgvec.trainer, "init_state", init_state)
        tc = TrainConfig(alpha=1.0, epochs=1, window=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"non-finite triple score in steps 0\.\.255$"):
                train(tokens, vocab, triples, small_model(), tc)


class TestStackedState:
    """Relation parameters live once, in ``relation_arrays``; every bundle
    array is a view of its relation's row there."""

    @staticmethod
    def assert_bundles_are_views(state):
        stacks = state.relation_arrays
        assert list(stacks) == list(relation_array_shapes(state.model_config))
        assert len(state.params) == len(state.relation_names)
        for i, p in enumerate(state.params):
            for name, a in p.arrays().items():
                assert np.shares_memory(a, stacks[name][i])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fresh_trained_and_loaded_bundles_are_views(self, world, tmp_path, variant):
        tokens, vocab, triples = world
        mc, tc = small_model(variant), TrainConfig(alpha=0.5, epochs=1, seed=3, window=2)
        self.assert_bundles_are_views(init_state(vocab, triples.relation_names, mc, tc))
        state, _ = train(tokens, vocab, triples, mc, tc)
        self.assert_bundles_are_views(state)
        save_checkpoint(state, tmp_path / "model.kgv")
        self.assert_bundles_are_views(load_checkpoint(tmp_path / "model.kgv"))

    @pytest.mark.parametrize("variant", ["lowrank", "transh", "se", "transr"])
    def test_a_write_through_a_bundle_lands_in_the_stack(self, world, variant):
        _, vocab, _ = world
        state = init_state(vocab, ["a", "b", "c"], small_model(variant), TrainConfig())
        want = {name: stack.copy() for name, stack in state.relation_arrays.items()}
        for name, a in state.params[1].arrays().items():
            a.flat[0] = 42.0
            want[name][1].flat[0] = 42.0
        for name, stack in state.relation_arrays.items():
            assert same_bits(stack, want[name])

    def test_init_state_holds_each_relation_array_once(self):
        vocab = Vocabulary([f"w{i}" for i in range(50)], np.ones(50, dtype=np.int64))
        names = [f"r{i}" for i in range(24)]
        mc = ModelConfig("lowrank", dim=64)
        init_state(vocab, names[:1], mc, TrainConfig())  # first-call allocations
        tracemalloc.start()
        try:
            state = init_state(vocab, names, mc, TrainConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stacks = sum(a.nbytes for a in state.relation_arrays.values())
        store = sum(a.nbytes for a in file_order_arrays(state)[:3])
        # On top of the stacks and tables: one relation's draw with its
        # temporaries (1.7 relations' bytes at numpy 2.4) and the bundles.
        assert peak < stacks + store + 3 * stacks / len(names)

    def test_text_only_state_saves_and_loads_size_zero_stacks(self, world, tmp_path):
        tokens, vocab, _ = world
        tc = TrainConfig(alpha=0.0, epochs=1, window=2)
        state, _ = train(tokens, vocab, None, small_model(), tc)
        want = {name: (0, *shape) for name, shape in relation_array_shapes(small_model()).items()}
        path = tmp_path / "model.kgv"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        for s in (state, loaded):
            assert {name: a.shape for name, a in s.relation_arrays.items()} == want
            assert s.params == []

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s: s.pop("head.in"), "state array 'rel.head.in' is not of the shape"),
            (lambda s: s.update(extra=np.zeros((2, 3))), "state array 'rel.extra' is not one"),
        ],
        ids=["missing", "extra"],
    )
    def test_a_missing_or_extra_stack_is_refused_before_writing(
        self, world, tmp_path, edit, message
    ):
        _, vocab, _ = world
        state = init_state(vocab, ["a", "b"], small_model(), TrainConfig())
        edit(state.relation_arrays)
        with pytest.raises(ValueError, match=re.escape(message)):
            save_checkpoint(state, tmp_path / "model.kgv")
        assert list(tmp_path.iterdir()) == []

    def test_a_non_finite_stack_names_its_first_bad_relation(self, world, tmp_path):
        _, vocab, _ = world
        state = init_state(vocab, ["a", "b", "c", "d"], small_model(), TrainConfig())
        state.relation_arrays["tail.in"][3, 0, 0] = np.inf
        state.relation_arrays["tail.in"][1, -1, -1] = np.nan
        save_checkpoint(state, tmp_path / "model.kgv")
        with pytest.raises(
            CheckpointError, match=re.escape("array 'rel.tail.in' holds NaN or inf in relation 1")
        ):
            load_checkpoint(tmp_path / "model.kgv")


class TestKnowledgeOnlySchedule:
    def test_corpus_free_run_uses_triple_budget(self, world):
        _, vocab, triples = world
        tc = TrainConfig(alpha=1.0, epochs=5, seed=1)
        _, report = train(None, vocab, triples, small_model("transe"), tc)
        assert all(r.text_steps == 0 for r in report.rows)
        assert all(r.kg_steps == len(triples) for r in report.rows)


class TestFloat32Mode:
    def test_trains_and_stays_float32(self, world):
        tokens, vocab, triples = world
        tc = TrainConfig(alpha=0.5, epochs=1, seed=1, window=2, use_float32=True)
        state, report = train(tokens, vocab, triples, small_model(), tc)
        assert state.store.input_vectors.dtype == np.float32
        assert state.store.output_vectors.dtype == np.float32
        assert all_finite(state.store.input_vectors)
        assert all_finite(state.store.output_vectors)
        assert all_finite(state.store.relation_vectors)
        assert np.isfinite(report.rows[-1].combined_loss)
