import numpy as np
import pytest

from kgvec.model import ModelConfig, score_triple, TransHRelation, LowRankRelation
from kgvec.projection import LowRankProjection, init_projection
from oracles import identity_projection, transh_as_lowrank


def random_projection(rng, m, d):
    return LowRankProjection(
        rng.standard_normal(m),
        rng.standard_normal((m, d)),
        rng.standard_normal((m, d)),
    )


class TestApply:
    def test_identity_on_two_axes(self):
        e = np.eye(2)
        proj = LowRankProjection(np.ones(2), e.copy(), e.copy())
        assert np.allclose(proj.apply(np.array([3.0, 4.0])), [3.0, 4.0])

    def test_single_scaled_axis(self):
        e1 = np.array([[1.0, 0.0]])
        proj = LowRankProjection(np.array([2.0]), e1.copy(), e1.copy())
        assert np.allclose(proj.apply(np.array([3.0, 4.0])), [6.0, 0.0])

    def test_cross_axis_factor(self):
        proj = LowRankProjection(
            np.array([1.0]), np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        )
        assert np.allclose(proj.apply(np.array([3.0, 4.0])), [4.0, 0.0])

    def test_dimension_mismatch(self):
        proj = identity_projection(3)
        with pytest.raises(ValueError):
            proj.apply(np.zeros(4))
        with pytest.raises(ValueError):
            proj.apply_transpose(np.zeros(4))

    def test_factor_shapes_must_match_weights(self):
        with pytest.raises(ValueError, match="factor shapes"):
            LowRankProjection(np.ones(2), np.eye(3), np.eye(3)[:2])

    def test_agrees_with_materialize_to_1e12(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(2, 20))
            m = int(rng.integers(1, d + 1))
            proj = random_projection(rng, m, d)
            v = rng.standard_normal(d)
            dense = proj.materialize() @ v
            fast = proj.apply(v)
            scale = max(1.0, float(np.abs(dense).max()))
            assert np.abs(fast - dense).max() <= 1e-12 * scale
            dense_t = proj.materialize().T @ v
            fast_t = proj.apply_transpose(v)
            assert np.abs(fast_t - dense_t).max() <= 1e-12 * scale


class TestMaterialize:
    def test_full_rank_identity(self):
        d = 5
        proj = identity_projection(d)
        assert np.array_equal(proj.materialize(), np.eye(d))

    def test_hand_outer_product(self):
        proj = LowRankProjection(
            np.array([1.0]), np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]])
        )
        assert np.array_equal(proj.materialize(), [[1.0, 0.0], [1.0, 0.0]])

    def test_numerical_rank_bounded_by_m(self):
        rng = np.random.default_rng(1)
        proj = random_projection(rng, 3, 10)
        assert np.linalg.matrix_rank(proj.materialize()) <= 3


class TestInitProjection:
    def test_full_rank_is_identity(self):
        proj = init_projection(3, 3, np.random.default_rng(0))
        assert np.array_equal(proj.materialize(), np.eye(3))

    def test_partial_rank_diagonal(self):
        proj = init_projection(4, 2, np.random.default_rng(1))
        mat = proj.materialize()
        assert np.array_equal(mat, np.diag(np.diag(mat)))
        diag = np.diag(mat)
        assert set(diag.tolist()) <= {0.0, 1.0}
        assert diag.sum() == 2.0

    def test_paper_scale_configuration(self):
        # the best reported analogy setting: d=100, head rank 50, tail rank 90
        rng = np.random.default_rng(2)
        head = init_projection(100, 50, rng)
        tail = init_projection(100, 90, rng)
        assert np.trace(head.materialize()) == 50.0
        assert np.trace(tail.materialize()) == 90.0

    def test_rank_larger_than_dim_rejected(self):
        with pytest.raises(ValueError):
            init_projection(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            init_projection(3, 0, np.random.default_rng(0))

    def test_axes_are_chosen_uniformly(self):
        rng = np.random.default_rng(3)
        hits = np.zeros(4)
        n = 4000
        for _ in range(n):
            hits += np.diag(init_projection(4, 2, rng).materialize())
        p = 0.5  # each axis belongs to a random 2-subset of 4
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(hits - n * p) <= 4 * sigma)


class TestTransHConversion:
    def test_2d_hand_case(self):
        left, right = transh_as_lowrank(np.array([1.0, 0.0]))
        expected = np.diag([0.0, 1.0])
        for proj in (left, right):
            assert len(proj.weights) == 1
            assert np.abs(proj.materialize() - expected).max() <= 1e-10

    def test_apply_projects_out_normal(self):
        left, _ = transh_as_lowrank(np.array([1.0, 0.0]))
        assert np.allclose(left.apply(np.array([3.0, 4.0])), [0.0, 4.0])

    def test_materializes_to_hyperplane_projector(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = int(rng.integers(2, 30))
            w = rng.standard_normal(d)
            w /= np.linalg.norm(w)
            left, right = transh_as_lowrank(w)
            target = np.eye(d) - np.outer(w, w)
            assert np.abs(left.materialize() - target).max() <= 1e-10
            assert np.abs(right.materialize() - target).max() <= 1e-10

    def test_score_equivalence_with_transh(self):
        rng = np.random.default_rng(5)
        d = 10
        transh_cfg = ModelConfig(variant="transh", dim=d)
        lowrank_cfg = ModelConfig(variant="lowrank", dim=d, head_rank=d - 1, tail_rank=d - 1)
        for _ in range(20):
            w = rng.standard_normal(d)
            w /= np.linalg.norm(w)
            left, right = transh_as_lowrank(w)
            converted = LowRankRelation(left, right)
            hyper = TransHRelation(w)
            for _ in range(20):
                h, r, t = (rng.standard_normal(d) for _ in range(3))
                f_transh = score_triple(transh_cfg, hyper, h, r, t)
                f_lowrank = score_triple(lowrank_cfg, converted, h, r, t)
                assert abs(f_transh - f_lowrank) <= 1e-10 * max(1.0, f_transh)

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError):
            transh_as_lowrank(np.array([1.0, 1.0]))
