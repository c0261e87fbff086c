from dataclasses import replace

import numpy as np
import pytest

from gradcheck import assert_grad_matches, param_grad_pairs, random_relation_params
from kgvec.errors import NumericError
from kgvec.model import (
    VARIANTS,
    EmbeddingStore,
    LowRankRelation,
    ModelConfig,
    SERelation,
    TransERelation,
    TransHRelation,
    TransRRelation,
    init_relation_params,
    knowledge_loss_grad,
    relation_array_shapes,
    relation_params_from_arrays,
    save_embeddings_text,
    score_triple,
    skipgram_ns_loss_grad,
)
from kgvec.projection import LowRankProjection
from oracles import OUTER_PRODUCT_GRADS, identity_projection, load_embeddings_text


class TestModelConfig:
    def test_rank_bounds_validated(self):
        with pytest.raises(ValueError):
            ModelConfig(variant="lowrank", dim=4, head_rank=5, tail_rank=2)

    def test_margin_positive(self):
        with pytest.raises(ValueError):
            ModelConfig(margin=0.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ModelConfig(variant="transz")

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_margin_rejected(self, margin):
        with pytest.raises(ValueError, match="margin"):
            ModelConfig(margin=margin)

    @pytest.mark.parametrize(
        "field, value",
        [("dim", 16.0), ("dim", True), ("head_rank", True), ("tail_rank", 2.5),
         ("negatives", 1.5), ("negatives", True), ("negatives", "5")],
    )
    def test_non_integer_shape_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{"dim": 4, "head_rank": 2, "tail_rank": 2, field: value})

    @pytest.mark.parametrize("field", ["dim", "negatives"])
    def test_size_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            ModelConfig(**{"dim": 4, "head_rank": 2, "tail_rank": 2, field: 0})

    def test_numpy_integers_accepted(self):
        cfg = ModelConfig(dim=np.int64(4), head_rank=np.int32(2), tail_rank=2)
        assert cfg.dim == 4

    @pytest.mark.parametrize(
        "dim, ranks", [(1, (1, 1)), (2, (1, 1)), (7, (3, 6)), (32, (16, 28)), (100, (50, 90))]
    )
    def test_ranks_default_to_proportions_of_dim(self, dim, ranks):
        cfg = ModelConfig(dim=dim)
        assert (cfg.head_rank, cfg.tail_rank) == ranks

    def test_lowrank_below_the_reference_dim_constructs(self):
        assert ModelConfig("lowrank", dim=32).tail_rank == 28
        assert (ModelConfig().head_rank, ModelConfig().tail_rank) == (50, 90)
        assert ModelConfig(dim=32, head_rank=3).head_rank == 3

    def test_non_integer_dim_named_before_ranks_derive(self):
        with pytest.raises(ValueError, match="dim must be an integer"):
            ModelConfig(dim="wide")


class TestScoreTriple:
    def test_lowrank_exact_translation_scores_zero(self):
        d = 4
        cfg = ModelConfig(variant="lowrank", dim=d, head_rank=d, tail_rank=d)
        params = LowRankRelation(identity_projection(d), identity_projection(d))
        h = np.array([1.0, 2.0, 0.0, -1.0])
        r = np.array([0.5, 0.0, 1.0, 0.0])
        assert score_triple(cfg, params, h, r, h + r) == 0.0

    def test_translation_hand_value(self):
        cfg = ModelConfig(variant="transe", dim=2)
        h = np.array([1.0, 0.0])
        r = np.array([0.0, 1.0])
        t = np.array([0.0, 0.0])
        assert score_triple(cfg, TransERelation(), h, r, t) == 2.0

    def test_transh_hand_projection(self):
        cfg = ModelConfig(variant="transh", dim=2)
        params = TransHRelation(np.array([1.0, 0.0]))
        h = np.array([3.0, 1.0])
        t = np.array([5.0, 1.0])
        r = np.zeros(2)
        assert score_triple(cfg, params, h, r, t) == 0.0

    def test_se_l1_norm_no_relation_term(self):
        cfg = ModelConfig(variant="se", dim=2)
        params = SERelation(np.eye(2), np.eye(2))
        h = np.array([1.0, -2.0])
        t = np.array([0.0, 1.0])
        # relation vector must not matter
        for r in (np.zeros(2), np.array([100.0, -3.0])):
            assert score_triple(cfg, params, h, r, t) == 4.0

    def test_transr_shared_matrix(self):
        cfg = ModelConfig(variant="transr", dim=2)
        params = TransRRelation(np.array([[2.0, 0.0], [0.0, 0.0]]))
        h = np.array([1.0, 5.0])
        t = np.array([0.0, -3.0])
        r = np.array([-2.0, 1.0])
        # M(h - t) + r = (2, 0) + (-2, 1) = (0, 1)
        assert score_triple(cfg, params, h, r, t) == 1.0

    def test_non_finite_input_raises(self):
        cfg = ModelConfig(variant="transe", dim=2)
        with pytest.raises(NumericError):
            score_triple(
                cfg, TransERelation(), np.array([np.nan, 0.0]), np.zeros(2), np.zeros(2)
            )


class TestSpecialCaseReductions:
    def test_identity_projections_reproduce_plain_translation(self):
        rng = np.random.default_rng(0)
        d = 6
        low = ModelConfig(variant="lowrank", dim=d, head_rank=d, tail_rank=d)
        plain = ModelConfig(variant="transe", dim=d)
        params = LowRankRelation(identity_projection(d), identity_projection(d))
        for _ in range(50):
            h, r, t = (rng.standard_normal(d) for _ in range(3))
            assert score_triple(low, params, h, r, t) == score_triple(
                plain, TransERelation(), h, r, t
            )

    def test_full_rank_shared_factors_reproduce_transr(self):
        # write M as sum_i e_i (M_i.)^T: full-rank factors, left = right
        rng = np.random.default_rng(1)
        d = 5
        M = rng.standard_normal((d, d))
        proj = LowRankProjection(np.ones(d), np.eye(d), M.copy())
        params = LowRankRelation(proj, proj)
        low = ModelConfig(variant="lowrank", dim=d, head_rank=d, tail_rank=d)
        tr = ModelConfig(variant="transr", dim=d)
        for _ in range(50):
            h, r, t = (rng.standard_normal(d) for _ in range(3))
            got = score_triple(low, params, h, r, t)
            want = score_triple(tr, TransRRelation(M), h, r, t)
            assert got == pytest.approx(want, rel=1e-12)


class TestKnowledgeLossGrad:
    def test_inactive_hinge_zero_everything(self):
        d = 4
        cfg = ModelConfig(variant="transe", dim=d, margin=1.0)
        h = np.zeros(d)
        r = np.zeros(d)
        t = np.zeros(d)
        ch = np.full(d, 10.0)  # corrupted score far above margin
        g = knowledge_loss_grad(cfg, TransERelation(), h, t, ch, t, r)
        assert g.loss == 0.0
        assert not g.active
        for arr in (g.head, g.tail, g.corrupt_head, g.corrupt_tail, g.relation, g.params):
            assert arr is None

    @pytest.mark.parametrize("variant", ["lowrank", "transe", "transh", "se", "transr"])
    def test_inactive_hinge_returns_no_gradient(self, variant):
        d = 4
        rng = np.random.default_rng(3)
        cfg, params = random_relation_params(variant, d, rng)
        z = np.zeros(d)
        far = 100.0 * rng.standard_normal(d)  # corrupted score far above margin
        g = knowledge_loss_grad(cfg, params, z, z, far, z, z)
        assert (g.loss, g.active, g.params) == (0.0, False, None)

    def test_hand_hinge_value(self):
        # margin 1, f_golden = 1.0, f_corrupt = 1.2 -> loss 0.8
        d = 1
        cfg = ModelConfig(variant="transe", dim=d, margin=1.0)
        h = np.array([1.0])
        r = np.zeros(1)
        t = np.zeros(1)  # f_golden = 1.0
        ch = np.array([np.sqrt(1.2)])  # f_corrupt = 1.2
        g = knowledge_loss_grad(cfg, TransERelation(), h, t, ch, t, r)
        assert g.loss == pytest.approx(0.8, abs=1e-12)

    def test_overflowing_hinge_raises(self):
        # margin + f_golden = 1e308 + 1e308 overflows; both scores are finite
        cfg = ModelConfig(variant="transe", dim=1, margin=1e308)
        z = np.zeros(1)
        with pytest.raises(NumericError, match="non-finite knowledge loss"):
            knowledge_loss_grad(cfg, TransERelation(), np.array([1e154]), z, z, z, z)

    def test_loss_bounds(self):
        rng = np.random.default_rng(2)
        d = 6
        for variant in ("lowrank", "transe", "transh", "se", "transr"):
            cfg, params = random_relation_params(variant, d, rng)
            for _ in range(20):
                h, t, ch, ct, r = (rng.standard_normal(d) for _ in range(5))
                f_g = score_triple(cfg, params, h, r, t)
                g = knowledge_loss_grad(cfg, params, h, t, ch, ct, r)
                assert 0.0 <= g.loss <= cfg.margin + f_g + 1e-12

    @pytest.mark.parametrize("variant", ["lowrank", "transe", "transh", "se", "transr"])
    def test_gradients_match_finite_differences(self, variant):
        rng = np.random.default_rng(hash(variant) % 2**32)
        d = 8
        cfg, params = random_relation_params(variant, d, rng)
        for _ in range(5):
            h, t, ch, ct, r = (rng.standard_normal(d) for _ in range(5))
            g = knowledge_loss_grad(cfg, params, h, t, ch, ct, r)
            if not g.active:
                continue

            def loss_fn():
                f_g = score_triple(cfg, params, h, r, t)
                f_c = score_triple(cfg, params, ch, r, ct)
                return max(0.0, cfg.margin + f_g - f_c)

            assert_grad_matches(loss_fn, h, g.head)
            assert_grad_matches(loss_fn, t, g.tail)
            assert_grad_matches(loss_fn, ch, g.corrupt_head)
            assert_grad_matches(loss_fn, ct, g.corrupt_tail)
            assert_grad_matches(loss_fn, r, g.relation)
            for arr, grad in param_grad_pairs(params, g.params):
                assert_grad_matches(loss_fn, arr, grad)


def stacked_grads_cases():
    """(variant, d, rank) for every stacked ``grads``; rank is 1 or d and
    matters only to lowrank."""
    for d in (1, 7, 32):
        for rank in sorted({1, d}):
            yield "lowrank", d, rank
        yield "se", d, d
        yield "transr", d, d


class TestStackedGradsMatchOuterProducts:
    """The stacked ``grads`` round differently from the outer-product
    oracle, and only in the last bits.

    The tolerance is relative to each array's largest entry: an entry that
    cancels, such as 0.0038 as the difference of two terms near 19, keeps
    the absolute rounding error of its terms, about 1e-15.
    """

    @pytest.mark.parametrize("variant, d, rank", list(stacked_grads_cases()))
    @pytest.mark.parametrize("shared", [None, "head", "tail"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_random_states(self, variant, d, rank, shared, dtype):
        rng = np.random.default_rng([d, rank, VARIANTS.index(variant)])
        cfg = ModelConfig(variant=variant, dim=d, head_rank=rank, tail_rank=rank)
        params = init_relation_params(cfg, 1, rng)[0]
        for array in params.arrays().values():
            array[:] = rng.standard_normal(array.shape)
        for _ in range(5):
            h, t, ch, ct = rng.standard_normal((4, d)).astype(dtype)
            r = rng.standard_normal(d).astype(dtype)
            if shared == "head":
                ch = h
            elif shared == "tail":
                ct = t
            got = params.grads(h, t, ch, ct, r)
            want = OUTER_PRODUCT_GRADS[variant](params, h, t, ch, ct, r)
            assert len(got[5]) == len(want[5])
            for a, b in zip((*got[:5], *got[5]), (*want[:5], *want[5])):
                assert a.shape == b.shape and a.dtype == b.dtype
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())


class TestSkipGramLoss:
    def test_all_zero_vectors(self):
        d = 3
        g = skipgram_ns_loss_grad(np.zeros(d), np.zeros(d), np.zeros((1, d)))
        assert g.loss == pytest.approx(2 * np.log(2.0), abs=1e-12)

    def test_hand_value(self):
        center = np.array([1.0, 0.0])
        context = np.array([1.0, 0.0])
        neg = np.array([[-1.0, 0.0]])
        g = skipgram_ns_loss_grad(center, context, neg)
        expected = -2 * np.log(1.0 / (1.0 + np.exp(-1.0)))
        assert g.loss == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.6265, abs=1e-4)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d = int(rng.integers(2, 10))
            k = int(rng.integers(1, 6))
            center = rng.standard_normal(d)
            context = rng.standard_normal(d)
            negs = rng.standard_normal((k, d))
            g = skipgram_ns_loss_grad(center, context, negs)

            def loss_fn():
                s = 1.0 / (1.0 + np.exp(-(context @ center)))
                sn = 1.0 / (1.0 + np.exp(-(negs @ center)))
                return -np.log(s) - np.log(1.0 - sn).sum()

            assert_grad_matches(loss_fn, center, g.center)
            assert_grad_matches(loss_fn, context, g.context)
            assert_grad_matches(loss_fn, negs, g.negatives)

    def test_saturated_logits_do_not_overflow(self):
        d = 2
        center = np.full(d, 100.0)
        context = np.full(d, 100.0)
        negs = np.full((2, d), 100.0)
        g = skipgram_ns_loss_grad(center, context, negs)
        assert np.isfinite(g.loss)
        assert np.all(np.isfinite(g.center))

    def test_requires_a_negative(self):
        with pytest.raises(ValueError):
            skipgram_ns_loss_grad(np.zeros(2), np.zeros(2), np.zeros((0, 2)))

    def test_block_needs_the_same_negative_count_per_pair(self):
        with pytest.raises(ValueError):
            skipgram_ns_loss_grad(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((7, 2)))


def block_inputs(rng, n, k, d):
    return (
        rng.standard_normal((n, d)),
        rng.standard_normal((n, d)),
        rng.standard_normal((n * k, d)),
    )


class TestSkipGramBlock:
    """The (n, d) / (n*k, d) block form of skipgram_ns_loss_grad."""

    def test_matches_per_pair_loop(self):
        rng = np.random.default_rng(21)
        for n, k, d in [(1, 1, 3), (7, 5, 16), (256, 5, 32)]:
            centers, contexts, negs = block_inputs(rng, n, k, d)
            g = skipgram_ns_loss_grad(centers, contexts, negs)
            assert g.center.shape == (n, d)
            assert g.context.shape == (n, d)
            assert g.negatives.shape == (n * k, d)
            loss = 0.0
            for i in range(n):
                c, o, ns = centers[i], contexts[i], negs[i * k : (i + 1) * k]
                s_pos = 1.0 / (1.0 + np.exp(-(o @ c)))
                s_neg = 1.0 / (1.0 + np.exp(-(ns @ c)))
                loss += -np.log(s_pos) - np.log(1.0 - s_neg).sum()
                np.testing.assert_allclose(
                    g.center[i], (s_pos - 1.0) * o + s_neg @ ns, rtol=1e-12
                )
                np.testing.assert_allclose(g.context[i], (s_pos - 1.0) * c, rtol=1e-12)
                np.testing.assert_allclose(
                    g.negatives[i * k : (i + 1) * k], np.outer(s_neg, c), rtol=1e-12
                )
            assert g.loss == pytest.approx(loss, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(22)
        n, k, d = 4, 3, 5
        centers, contexts, negs = block_inputs(rng, n, k, d)
        g = skipgram_ns_loss_grad(centers, contexts, negs)

        def loss_fn():
            x_pos = np.sum(contexts * centers, axis=1)
            x_neg = np.einsum("nkd,nd->nk", negs.reshape(n, k, d), centers)
            return (
                np.log1p(np.exp(-x_pos)).sum() + np.log1p(np.exp(x_neg)).sum()
            )

        assert loss_fn() == pytest.approx(g.loss, rel=1e-12)
        assert_grad_matches(loss_fn, centers, g.center)
        assert_grad_matches(loss_fn, contexts, g.context)
        assert_grad_matches(loss_fn, negs, g.negatives)


class TestEmbeddingStore:
    def test_init_shapes_and_ranges(self):
        rng = np.random.default_rng(3)
        store = EmbeddingStore.init(7, 2, 10, rng)
        assert store.input_vectors.shape == (7, 10)
        assert store.output_vectors.shape == (7, 10)
        assert store.relation_vectors.shape == (2, 10)
        assert np.all(np.abs(store.input_vectors) <= 0.05)
        assert np.all(store.output_vectors == 0.0)
        store.check_finite()

    def test_float32_mode(self):
        store = EmbeddingStore.init(3, 1, 4, np.random.default_rng(0), np.float32)
        assert store.input_vectors.dtype == np.float32

    def test_check_finite_raises(self):
        store = EmbeddingStore.init(3, 1, 4, np.random.default_rng(0))
        store.input_vectors[1, 2] = np.inf
        with pytest.raises(NumericError):
            store.check_finite()


class TestRelationArrays:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_view_matches_declared_shapes(self, variant):
        cfg = ModelConfig(variant=variant, dim=6, head_rank=2, tail_rank=3)
        shapes = relation_array_shapes(cfg)
        for p in init_relation_params(cfg, 2, np.random.default_rng(0)):
            assert [(n, a.shape) for n, a in p.arrays().items()] == list(shapes.items())

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rebuilt_bundles_share_the_arrays(self, variant):
        cfg = ModelConfig(variant=variant, dim=6, head_rank=2, tail_rank=3)
        params = init_relation_params(cfg, 3, np.random.default_rng(0))
        rebuilt = relation_params_from_arrays(
            cfg, 3, lambda i, name: params[i].arrays()[name]
        )
        assert [type(p) for p in rebuilt] == [type(p) for p in params]
        for p, q in zip(params, rebuilt):
            for a, b in zip(p.arrays().values(), q.arrays().values()):
                assert a is b

    @pytest.mark.parametrize("variant", ["lowrank", "transe", "transh", "se", "transr"])
    def test_gradients_come_in_view_order(self, variant):
        rng = np.random.default_rng(7)
        cfg, params = random_relation_params(variant, 5, rng)
        h, t, ch, ct, r = (rng.standard_normal(5) for _ in range(5))
        g = knowledge_loss_grad(replace(cfg, margin=1e6), params, h, t, ch, ct, r)
        assert g.active
        assert [a.shape for a in g.params] == [a.shape for a in params.arrays().values()]


class TestInitRelationParams:
    def test_variant_structures(self):
        rng = np.random.default_rng(4)
        cfg = ModelConfig(variant="lowrank", dim=6, head_rank=2, tail_rank=3)
        params = init_relation_params(cfg, 4, rng)
        assert len(params) == 4
        assert len(params[0].head_proj.weights) == 2
        assert len(params[0].tail_proj.weights) == 3

        transh = init_relation_params(ModelConfig(variant="transh", dim=6), 2, rng)
        assert all(abs(np.linalg.norm(p.normal) - 1) < 1e-12 for p in transh)

        assert init_relation_params(ModelConfig(variant="transe", dim=6), 3, rng) == [
            TransERelation(),
            TransERelation(),
            TransERelation(),
        ]


class TestEmbeddingExport:
    def test_round_trip_at_six_significant_digits(self, tmp_path):
        rng = np.random.default_rng(5)
        tokens = ["alpha", "beta_gamma", "delta"]
        vectors = rng.standard_normal((3, 4))
        path = tmp_path / "vectors.txt"
        save_embeddings_text(tokens, vectors, path)
        first = path.read_text().splitlines()[0]
        assert first == "3 4"
        toks2, vecs2 = load_embeddings_text(path)
        assert toks2 == tokens
        assert np.allclose(vecs2, vectors, rtol=1e-5)

    def test_count_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            save_embeddings_text(["a"], np.zeros((2, 2)), tmp_path / "x.txt")

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bytes_match_formatting_each_coordinate(self, tmp_path, dtype):
        # signed zero, the smallest subnormal, a huge value and values at the
        # 6-digit rounding edge, beside ordinary ones
        edges = [-0.0, 5e-324, 1e300, 0.9999995, 1.2345650000000001, -123456.5]
        with np.errstate(over="ignore"):  # 1e300 is inf in float32
            vectors = np.vstack([edges, np.random.default_rng(8).standard_normal((3, 6))]).astype(dtype)
        tokens = ["edge", "a", "b_c", "d"]
        path = tmp_path / "vectors.txt"
        save_embeddings_text(tokens, vectors, path)
        want = "4 6\n" + "".join(
            tok + " " + " ".join(f"{x:.6g}" for x in row) + "\n"
            for tok, row in zip(tokens, vectors)
        )
        assert path.read_bytes() == want.encode("utf-8")
