import tracemalloc

import numpy as np
import pytest

import kgvec.evaluation
from kgvec.corpus import Vocabulary
from kgvec.errors import ParseError, UndefinedCorrelationError
from kgvec.evaluation import (
    AnalogyQuestion,
    RelationalAnalogy,
    SimilarityPair,
    analogy_3cosadd,
    fractional_ranks,
    load_analogy_questions,
    load_similarity_pairs,
    make_analogy_predictor,
    rank_sweep,
    run_analogy_suite,
    run_similarity_suite,
    spearman_rho,
    sweep_to_tsv,
)
from kgvec.model import (
    EmbeddingStore,
    LowRankRelation,
    ModelConfig,
    SERelation,
    TransERelation,
    TransHRelation,
    TransRRelation,
    init_relation_params,
    score_triple,
)
from kgvec.projection import LowRankProjection
from kgvec.trainer import ModelState, TrainConfig
from oracles import (
    best_relation_loop,
    direct_maps,
    fractional_ranks_loop,
    identity_projection,
    relation_stacks,
)
from synthdata import relation_world


def make_vocab(words):
    return Vocabulary(list(words), np.ones(len(words), dtype=np.int64))


def make_state(vocab, vectors, relation_vectors, params, variant="lowrank"):
    d = vectors.shape[1]
    cfg = ModelConfig(variant=variant, dim=d, head_rank=min(2, d), tail_rank=min(2, d))
    store = EmbeddingStore(
        np.asarray(vectors, dtype=np.float64),
        np.zeros_like(vectors, dtype=np.float64),
        np.asarray(relation_vectors, dtype=np.float64),
    )
    names = [f"r{i}" for i in range(len(relation_vectors))]
    # Without relations, the state holds size-zero stacks of the variant.
    stacks = relation_stacks(params) if params else init_relation_params(cfg, 0, None)
    return ModelState(cfg, TrainConfig(), vocab, names, store, stacks)


class TestAnalogy3CosAdd:
    def test_exact_offset_construction(self):
        # d = b - a + c and every other vector orthogonal to it
        vocab = make_vocab(["a", "b", "c", "d", "e"])
        vectors = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [-1.0, 1.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        assert analogy_3cosadd("a", "b", "c", vocab, vectors) == "d"

    def test_degenerate_equal_a_b_returns_neighbor_of_c(self):
        vocab = make_vocab(["a", "c", "near", "far"])
        vectors = np.array(
            [
                [1.0, 0.0],
                [0.0, 1.0],
                [0.1, 0.9],
                [1.0, -1.0],
            ]
        )
        # offset b - a vanishes, so the target is c itself; a and c excluded
        assert analogy_3cosadd("a", "a", "c", vocab, vectors) == "near"

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(5)]
        vocab = make_vocab(words)
        for _ in range(30):
            vectors = rng.standard_normal((5, 3))
            a, b, c = rng.choice(5, size=3, replace=False)
            target = vectors[b] - vectors[a] + vectors[c]
            best, best_sim = None, -np.inf
            for w in range(5):
                if w in (a, b, c):
                    continue
                sim = target @ vectors[w] / (
                    np.linalg.norm(target) * np.linalg.norm(vectors[w])
                )
                if sim > best_sim:
                    best, best_sim = w, sim
            got = analogy_3cosadd(words[a], words[b], words[c], vocab, vectors)
            assert got == words[best]

    def test_invariant_under_uniform_scaling(self):
        rng = np.random.default_rng(1)
        words = [f"w{i}" for i in range(8)]
        vocab = make_vocab(words)
        vectors = rng.standard_normal((8, 4))
        for scale in (0.01, 3.0, 250.0):
            assert analogy_3cosadd("w0", "w1", "w2", vocab, vectors) == analogy_3cosadd(
                "w0", "w1", "w2", vocab, scale * vectors
            )


    def test_cached_predictor_matches_uncached_function(self):
        rng = np.random.default_rng(3)
        words = [f"w{i:02d}" for i in range(30)]
        vocab = make_vocab(words)
        for _ in range(10):
            vectors = rng.standard_normal((30, 6))
            vectors[7] = 0.0  # a zero row, whose norm is floored
            state = make_state(vocab, vectors, np.zeros((0, 6)), [])
            predict = make_analogy_predictor(state, "3cosadd")
            for _ in range(20):
                a, b, c = (words[i] for i in rng.choice(30, size=3, replace=False))
                assert predict(a, b, c) == analogy_3cosadd(a, b, c, vocab, vectors)

    def test_cached_predictor_breaks_ties_toward_lowest_index(self):
        # w3, w5 and w6 are the target itself; then w3 moves away, and the
        # tie between w5 and w6 remains
        vocab = make_vocab([f"w{i}" for i in range(7)])
        vectors = np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 1.0, 1.0],
             [0.0, -1.0, 0.0], [-1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]]
        )
        for winner, w3 in (("w3", [-1.0, 1.0, 1.0]), ("w5", [0.0, 0.0, -1.0])):
            vectors[3] = w3
            state = make_state(vocab, vectors.copy(), np.zeros((0, 3)), [])
            predict = make_analogy_predictor(state, "3cosadd")
            assert predict("w0", "w1", "w2") == winner
            assert analogy_3cosadd("w0", "w1", "w2", vocab, vectors) == winner


def direct_relational_scan(state, a, b, c):
    """The two-step answer by a plain difference scan over every candidate,
    and every candidate's score."""
    index, vectors = state.vocab.index, state.store.input_vectors
    ia, ib, ic = index[a], index[b], index[c]
    maps = direct_maps(state)
    fits = []
    for (head, tail), rel in zip(maps, state.store.relation_vectors):
        e = head @ vectors[ia] + rel - tail @ vectors[ib]
        fits.append(e @ e)
    r = int(np.argmin(fits))
    head, tail = maps[r]
    target = head @ vectors[ic] + state.store.relation_vectors[r]
    scores = np.array([np.sum((tail @ v - target) ** 2) for v in vectors])
    scores[[ia, ib, ic]] = np.inf
    return state.vocab.tokens[int(np.argmin(scores))], scores


def assert_matches_direct_scan(state, questions):
    """The cached predictor must give the direct scan's answer, or one whose
    direct score ties the best within rounding (1e-9 relative)."""
    predictor = RelationalAnalogy(state)
    index = state.vocab.index
    for a, b, c in questions:
        want, scores = direct_relational_scan(state, a, b, c)
        got = predictor(a, b, c)
        best = scores[index[want]]
        assert got == want or abs(scores[index[got]] - best) <= 1e-9 * max(1.0, best)


class TestRelationalAnalogy:
    def test_translation_construction(self):
        # identity projections, r = b - a, d placed at c + r
        vocab = make_vocab(["a", "b", "c", "d", "x"])
        vectors = np.array(
            [
                [0.0, 0.0],
                [1.0, 0.5],
                [2.0, -1.0],
                [3.0, -0.5],
                [-4.0, 4.0],
            ]
        )
        r = vectors[1] - vectors[0]
        params = [LowRankRelation(identity_projection(2), identity_projection(2))]
        state = make_state(vocab, vectors, r[None, :], params)
        predictor = RelationalAnalogy(state)
        assert predictor("a", "b", "c") == "d"

    def test_better_fitting_relation_wins(self):
        # relation 1 maps (a, b) exactly; relation 0 is wildly off
        vocab = make_vocab(["a", "b", "c", "d"])
        vectors = np.array(
            [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        )
        rel_vectors = np.array([[50.0, 50.0], [0.0, 1.0]])
        params = [
            LowRankRelation(identity_projection(2), identity_projection(2)),
            LowRankRelation(identity_projection(2), identity_projection(2)),
        ]
        state = make_state(vocab, vectors, rel_vectors, params)
        predictor = RelationalAnalogy(state)
        assert predictor.best_relation("a", "b") == 1
        assert predictor("a", "b", "c") == "d"

    @pytest.mark.parametrize("variant", ["lowrank", "transh"])
    def test_matches_exhaustive_grid_scan(self, variant):
        rng = np.random.default_rng(7)
        n_words, n_rel, d = 40, 6, 5
        words = [f"w{i:02d}" for i in range(n_words)]
        vocab = make_vocab(words)
        vectors = rng.standard_normal((n_words, d))
        rel_vectors = rng.standard_normal((n_rel, d))
        if variant == "lowrank":
            params = [
                LowRankRelation(
                    LowRankProjection(
                        rng.standard_normal(2),
                        rng.standard_normal((2, d)),
                        rng.standard_normal((2, d)),
                    ),
                    LowRankProjection(
                        rng.standard_normal(3),
                        rng.standard_normal((3, d)),
                        rng.standard_normal((3, d)),
                    ),
                )
                for _ in range(n_rel)
            ]
        else:
            params = []
            for _ in range(n_rel):
                w = rng.standard_normal(d)
                params.append(TransHRelation(w / np.linalg.norm(w)))
        state = make_state(vocab, vectors, rel_vectors, params, variant)
        cfg = ModelConfig(variant=variant, dim=d, head_rank=2, tail_rank=3)
        predictor = RelationalAnalogy(state)

        for _ in range(15):
            a, b, c = (int(i) for i in rng.choice(n_words, size=3, replace=False))
            fits = [
                score_triple(cfg, params[r], vectors[a], rel_vectors[r], vectors[b])
                for r in range(n_rel)
            ]
            r_star = int(np.argmin(fits))
            scores = [
                np.inf
                if w in (a, b, c)
                else score_triple(
                    cfg, params[r_star], vectors[c], rel_vectors[r_star], vectors[w]
                )
                for w in range(n_words)
            ]
            want = words[int(np.argmin(scores))]
            assert predictor(words[a], words[b], words[c]) == want

    @pytest.mark.parametrize("variant", ["lowrank", "transh"])
    def test_cached_scores_match_direct_scan_on_random_states(self, variant):
        rng = np.random.default_rng(21)
        n_words, n_rel, d = 60, 4, 6
        words = [f"w{i:02d}" for i in range(n_words)]
        for _ in range(4):
            vectors = 3.0 * rng.standard_normal((n_words, d))
            if variant == "lowrank":
                params = [
                    LowRankRelation(
                        LowRankProjection(rng.standard_normal(2), rng.standard_normal((2, d)),
                                          rng.standard_normal((2, d))),
                        LowRankProjection(rng.standard_normal(4), rng.standard_normal((4, d)),
                                          rng.standard_normal((4, d))),
                    )
                    for _ in range(n_rel)
                ]
            else:
                normals = rng.standard_normal((n_rel, d))
                params = [TransHRelation(w / np.linalg.norm(w)) for w in normals]
            state = make_state(make_vocab(words), vectors, rng.standard_normal((n_rel, d)),
                               params, variant)
            questions = [
                tuple(words[i] for i in rng.choice(n_words, size=3, replace=False))
                for _ in range(25)
            ]
            assert_matches_direct_scan(state, questions)

    def test_cached_scores_match_direct_scan_on_exact_fits(self):
        eye = identity_projection(2)  # only read, so the bundles may share it
        translation = make_state(
            make_vocab(["a", "b", "c", "d", "x"]),
            np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -1.0], [3.0, -0.5], [-4.0, 4.0]]),
            np.array([[1.0, 0.5]]),
            [LowRankRelation(eye, eye)],
        )
        two_relations = make_state(
            make_vocab(["a", "b", "c", "d"]),
            np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
            np.array([[50.0, 50.0], [0.0, 1.0]]),
            [LowRankRelation(eye, eye), LowRankRelation(eye, eye)],
        )
        for state in (translation, two_relations):
            tokens = state.vocab.tokens
            questions = [
                (a, b, c) for a in tokens for b in tokens for c in tokens
                if len({a, b, c}) == 3
            ]
            assert_matches_direct_scan(state, questions)
        assert RelationalAnalogy(translation)("a", "b", "c") == "d"
        assert RelationalAnalogy(two_relations)("a", "b", "c") == "d"

    def test_fallback_to_3cosadd_for_plain_variants(self):
        vocab = make_vocab(["a", "b", "c", "d"])
        vectors = np.eye(4)
        state = make_state(vocab, vectors, np.zeros((1, 4)), [TransERelation()], "transe")
        predictor = make_analogy_predictor(state, "relational")
        want = analogy_3cosadd("a", "b", "c", vocab, vectors)
        assert predictor("a", "b", "c") == want
        with pytest.raises(ValueError, match="'transe' has no relational mode"):
            RelationalAnalogy(state)

    @pytest.mark.parametrize(
        "variant, params",
        [
            ("se", [SERelation(np.eye(4), np.eye(4))]),
            ("transr", [TransRRelation(np.eye(4))]),
            ("lowrank", []),
        ],
        ids=["se", "transr", "lowrank-no-relations"],
    )
    def test_fallback_to_3cosadd_without_dense_maps(self, variant, params):
        vocab = make_vocab(["a", "b", "c", "d"])
        vectors = np.eye(4)
        state = make_state(vocab, vectors, np.zeros((len(params), 4)), params, variant)
        predictor = make_analogy_predictor(state, "relational")
        assert not isinstance(predictor, RelationalAnalogy)
        assert predictor("a", "b", "c") == analogy_3cosadd("a", "b", "c", vocab, vectors)
        with pytest.raises(ValueError, match=f"'{variant}' has no relational mode"):
            RelationalAnalogy(state)

    def test_unknown_mode_rejected(self):
        vocab = make_vocab(["a", "b"])
        state = make_state(vocab, np.eye(2), np.zeros((0, 2)), [])
        with pytest.raises(ValueError):
            make_analogy_predictor(state, "cosmul")


def random_relational_state(rng, variant, n_words=60, n_rel=32, d=16):
    """Random vectors and ``n_rel`` random relations of ``variant``: head and
    tail factor maps of rank 4 and 12 (at most d), or unit TransH normals."""
    words = [f"w{i:02d}" for i in range(n_words)]
    if variant == "lowrank":
        def projection(m):
            m = min(m, d)
            return LowRankProjection(rng.standard_normal(m), rng.standard_normal((m, d)),
                                     rng.standard_normal((m, d)))

        params = [LowRankRelation(projection(4), projection(12)) for _ in range(n_rel)]
    else:
        normals = rng.standard_normal((n_rel, d))
        params = [TransHRelation(w / np.linalg.norm(w)) for w in normals]
    return make_state(make_vocab(words), rng.standard_normal((n_words, d)),
                      rng.standard_normal((n_rel, d)), params, variant)


def random_pairs(rng, words, n):
    return [tuple(words[i] for i in rng.choice(len(words), size=2, replace=False))
            for _ in range(n)]


class TestBestRelation:
    """The stacked, memoised search against the relation-by-relation loop."""

    @pytest.mark.parametrize("variant", ["lowrank", "transh"])
    def test_matches_loop_oracle_up_to_ties(self, variant):
        rng = np.random.default_rng(31)
        for _ in range(3):
            state = random_relational_state(rng, variant)
            predictor = RelationalAnalogy(state)
            for a, b in random_pairs(rng, state.vocab.tokens, 60):
                want, fits = best_relation_loop(state, a, b)
                got = predictor.best_relation(a, b)
                # a different pick is allowed only where the two fits tie
                assert got == want or fits[got] - fits[want] <= 1e-12 * fits[got]

    def test_returns_python_int(self):
        state = random_relational_state(np.random.default_rng(32), "lowrank")
        assert type(RelationalAnalogy(state).best_relation("w00", "w01")) is int

    def test_repeated_pair_is_answered_from_the_memo(self):
        state = random_relational_state(np.random.default_rng(33), "lowrank")
        predictor = RelationalAnalogy(state)
        pairs = random_pairs(np.random.default_rng(34), state.vocab.tokens, 20)
        answers = [predictor.best_relation(a, b) for a, b in pairs]
        assert any(answers)  # not all relation 0, which NaN stacks would pick
        predictor.head_maps.fill(np.nan)
        predictor.tail_maps.fill(np.nan)
        assert [predictor.best_relation(a, b) for a, b in pairs] == answers
        # an unseen pair whose best relation is not 0 does search them
        unseen = [p for p in random_pairs(np.random.default_rng(35), state.vocab.tokens, 50)
                  if p not in pairs and best_relation_loop(state, *p)[0]]
        assert predictor.best_relation(*unseen[0]) == 0

    def test_predictor_built_after_vectors_change_reads_new_vectors(self):
        rng = np.random.default_rng(36)
        state = random_relational_state(rng, "lowrank")
        pairs = random_pairs(rng, state.vocab.tokens, 30)
        before = [RelationalAnalogy(state).best_relation(a, b) for a, b in pairs]
        state.store.input_vectors[:] = rng.standard_normal(state.store.input_vectors.shape)
        fresh = RelationalAnalogy(state)
        after = [fresh.best_relation(a, b) for a, b in pairs]
        assert after == [best_relation_loop(state, a, b)[0] for a, b in pairs]
        assert after != before


class TestRelationTiles:
    """Maps built and relations searched by tiles of relations.  At
    ``_BLOCK_BYTES`` 1024 and d=6, maps are built 3 relations at a time, and
    pairs are searched in chunks of 9, 2 relations at a time; 14 relations
    span 5 map tiles and 7 search tiles."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(kgvec.evaluation, "_BLOCK_BYTES", 1024)

    @pytest.mark.parametrize("n_rel", [1, 14])
    @pytest.mark.parametrize("variant", ["lowrank", "transh"])
    def test_map_stacks_equal_each_relations_own_maps_bitwise(self, variant, n_rel):
        assert -(-14 // kgvec.evaluation._span(6 * 6)) >= 3
        state = random_relational_state(np.random.default_rng(61), variant, n_rel=n_rel, d=6)
        predictor = RelationalAnalogy(state)
        assert predictor.head_maps.shape == predictor.tail_maps.shape == (n_rel, 6, 6)
        for r, (head, tail) in enumerate(direct_maps(state)):
            assert np.array_equal(predictor.head_maps[r], head)
            assert np.array_equal(predictor.tail_maps[r], tail)

    @pytest.mark.parametrize("variant", ["lowrank", "transh"])
    def test_picks_match_loop_oracle_up_to_ties(self, variant):
        rng = np.random.default_rng(62)
        state = random_relational_state(rng, variant, n_rel=14, d=6)
        pairs = list(dict.fromkeys(random_pairs(rng, state.vocab.tokens, 60)))
        assert len(pairs) > 2 * 9
        predictor = RelationalAnalogy(state)
        predictor._search(pairs)
        for a, b in pairs:
            want, fits = best_relation_loop(state, a, b)
            got = predictor.best_relation(a, b)
            assert got == want or fits[got] - fits[want] <= 1e-12 * fits[got]

    def test_tie_across_relation_tiles_goes_to_the_lower_index(self):
        """Relations 1 and 12 have the same maps and vector, which fit the
        pair exactly; they sit in different map and search tiles."""
        rng = np.random.default_rng(63)
        d, n_rel = 6, 14
        words = [f"w{i:02d}" for i in range(30)]
        vectors = rng.integers(-3, 4, size=(30, d)).astype(np.float64)

        def projection():
            return LowRankProjection(rng.standard_normal(d), rng.standard_normal((d, d)),
                                     rng.standard_normal((d, d)))

        params = [LowRankRelation(projection(), projection()) for _ in range(n_rel)]
        params[1] = params[12] = LowRankRelation(identity_projection(d), identity_projection(d))
        relation_vectors = rng.standard_normal((n_rel, d))
        relation_vectors[1] = relation_vectors[12] = vectors[1] - vectors[0]
        state = make_state(make_vocab(words), vectors, relation_vectors, params)
        pairs = [("w00", "w01")] + random_pairs(rng, words[2:], 20)
        predictor = RelationalAnalogy(state)
        predictor._search(pairs)
        want, fits = best_relation_loop(state, "w00", "w01")
        assert fits[1] == fits[12] == 0.0 and want == 1
        assert predictor.best_relation("w00", "w01") == 1

    def test_float32_state(self):
        rng = np.random.default_rng(64)
        state = random_relational_state(rng, "lowrank", n_rel=14, d=6)
        store = state.store
        state.store = EmbeddingStore(*(a.astype(np.float32) for a in (
            store.input_vectors, store.output_vectors, store.relation_vectors)))
        predictor = RelationalAnalogy(state)
        assert predictor.head_maps.dtype == np.float64
        questions = random_questions(rng, state.vocab.tokens, 40)
        answers = predictor(*zip(*questions))
        index = state.vocab.index
        for (a, b, c), got in zip(questions, answers):
            want, fits = best_relation_loop(state, a, b)
            picked = predictor.best_relation(a, b)
            assert picked == want or fits[picked] - fits[want] <= 1e-12 * fits[picked]
            want, scores = direct_relational_scan(state, a, b, c)
            best = scores[index[want]]
            assert abs(scores[index[got]] - best) <= 1e-9 * max(1.0, best)


class TestAnalogySuite:
    def _perfect_state(self):
        vocab = make_vocab(["a", "b", "c", "d"])
        vectors = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        params = [LowRankRelation(identity_projection(2), identity_projection(2))]
        return make_state(vocab, vectors, np.array([[0.0, 1.0]]), params)

    def test_all_correct_means_full_accuracy(self):
        state = self._perfect_state()
        questions = [
            AnalogyQuestion("a", "b", "c", "d", "rel"),
            AnalogyQuestion("c", "d", "a", "b", "rel"),
        ]
        report = run_analogy_suite(questions, RelationalAnalogy(state), state.vocab)
        assert report.total_accuracy == 1.0
        assert report.relation_rows[0].answered == 2

    def test_empty_question_list(self):
        state = self._perfect_state()
        report = run_analogy_suite([], RelationalAnalogy(state), state.vocab)
        assert report.total_accuracy == 0.0
        assert report.total_answered == 0
        assert "TOTAL" in report.to_tsv()

    def test_oov_questions_skipped_and_counted(self):
        state = self._perfect_state()
        questions = [
            AnalogyQuestion("a", "b", "c", "d"),
            AnalogyQuestion("a", "b", "c", "zzz"),
        ]
        report = run_analogy_suite(questions, RelationalAnalogy(state), state.vocab)
        assert report.skipped == 1
        assert report.total_answered == 1

    def test_mixed_tally_matches_hand_count(self):
        vocab = make_vocab(["a", "b", "c", "d", "e"])
        answers = {("a", "b", "c"): "d", ("b", "c", "d"): "e", ("c", "d", "e"): "a"}
        questions = [
            AnalogyQuestion("a", "b", "c", "d", "r1"),  # right
            AnalogyQuestion("b", "c", "d", "a", "r1"),  # wrong (predicts e)
            AnalogyQuestion("c", "d", "e", "a", "r2"),  # right
        ]
        report = run_analogy_suite(
            questions, lambda a, b, c: [answers[q] for q in zip(a, b, c)], vocab
        )
        by_rel = {r.relation: r for r in report.relation_rows}
        assert by_rel["r1"].correct == 1 and by_rel["r1"].answered == 2
        assert by_rel["r2"].correct == 1
        assert report.total_accuracy == pytest.approx(2 / 3)


def direct_cosines(vocab, vectors, a, b, c):
    """Every candidate's 3CosAdd cosine by a plain per-row scan."""
    ia, ib, ic = vocab.index[a], vocab.index[b], vocab.index[c]
    target = vectors[ib] - vectors[ia] + vectors[ic]
    sims = np.array([v @ target / (np.linalg.norm(v) * np.linalg.norm(target)) for v in vectors])
    sims[[ia, ib, ic]] = -np.inf
    return sims


def random_questions(rng, words, n):
    return [tuple(words[i] for i in rng.choice(len(words), size=3, replace=False))
            for _ in range(n)]


class TestSuiteBlocks:
    """Suites answered in blocks of questions and row tiles, against one
    question at a time and against direct scans.  A small ``_BLOCK_BYTES``
    makes every suite span several blocks on both axes."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(kgvec.evaluation, "_BLOCK_BYTES", 2048)

    def test_3cosadd_blocks_match_one_by_one(self, small_blocks):
        rng = np.random.default_rng(41)
        words = [f"w{i:03d}" for i in range(120)]
        vocab = make_vocab(words)
        vectors = rng.standard_normal((120, 8))  # blocks of 32 questions, tiles of 8 rows
        questions = random_questions(rng, words, 150)
        single = [analogy_3cosadd(a, b, c, vocab, vectors) for a, b, c in questions]
        block = analogy_3cosadd(*zip(*questions), vocab, vectors)
        assert len(block) == len(questions)
        for (a, b, c), got, one in zip(questions, block, single):
            sims = direct_cosines(vocab, vectors, a, b, c)
            best = sims.max()
            assert got == one or abs(sims[vocab.index[got]] - sims[vocab.index[one]]) <= 1e-12
            assert abs(sims[vocab.index[got]] - best) <= 1e-12

    @pytest.mark.parametrize("variant", ["lowrank", "transh"])
    def test_relational_blocks_match_one_by_one(self, small_blocks, variant):
        rng = np.random.default_rng(42)
        # 4 relations at d=16: search chunks of 16 pairs, one relation at a
        # time; blocks of 16 questions; row tiles of 16 rows or more over 90
        # candidates
        state = random_relational_state(rng, variant, n_words=90, n_rel=4)
        questions = random_questions(rng, state.vocab.tokens, 150)
        questions += questions[:20]  # repeated pairs come from the memo
        one_by_one = RelationalAnalogy(state)
        single = [one_by_one(a, b, c) for a, b, c in questions]
        block = RelationalAnalogy(state)(*zip(*questions))
        index = state.vocab.index
        for (a, b, c), got, one in zip(questions, block, single):
            want, scores = direct_relational_scan(state, a, b, c)
            best = scores[index[want]]
            for answer in (got, one):
                assert abs(scores[index[answer]] - best) <= 1e-9 * max(1.0, best)

    def test_3cosadd_tie_across_row_tiles_breaks_toward_lowest_index(self, small_blocks):
        rng = np.random.default_rng(43)
        words = [f"w{i:03d}" for i in range(120)]
        vocab = make_vocab(words)
        vectors = rng.standard_normal((120, 8))
        vectors[17] = vectors[119] = vectors[1] - vectors[0] + vectors[2]
        questions = [("w000", "w001", "w002")] + random_questions(rng, words[20:110], 40)
        assert analogy_3cosadd(*zip(*questions), vocab, vectors)[0] == "w017"
        assert analogy_3cosadd("w000", "w001", "w002", vocab, vectors) == "w017"

    def test_relational_tie_across_row_tiles_breaks_toward_lowest_index(self, small_blocks):
        rng = np.random.default_rng(44)
        words = [f"w{i:03d}" for i in range(120)]
        vectors = rng.standard_normal((120, 2))
        r = vectors[1] - vectors[0]
        vectors[17] = vectors[118] = vectors[2] + r
        params = [LowRankRelation(identity_projection(2), identity_projection(2))]
        state = make_state(make_vocab(words), vectors, r[None, :], params)
        questions = [("w000", "w001", "w002")] + random_questions(rng, words[20:110], 40)
        assert RelationalAnalogy(state)(*zip(*questions))[0] == "w017"
        assert RelationalAnalogy(state)("w000", "w001", "w002") == "w017"

    @pytest.mark.parametrize("mode", ["relational", "3cosadd"])
    def test_suite_sends_answerable_questions_in_one_call(self, mode):
        state = random_relational_state(np.random.default_rng(45), "lowrank")
        predict = make_analogy_predictor(state, mode)
        calls = []

        def record(a, b, c):
            calls.append((list(a), list(b), list(c)))
            return predict(a, b, c)

        questions = [
            AnalogyQuestion("w00", "w01", "w02", "w03", "r1"),
            AnalogyQuestion("w04", "oov", "w05", "w06", "r1"),
            AnalogyQuestion("w07", "w08", "w09", "w10", "r2"),
            AnalogyQuestion("w11", "w12", "w13", "missing", "r2"),
        ]
        report = run_analogy_suite(questions, record, state.vocab)
        assert calls == [(["w00", "w07"], ["w01", "w08"], ["w02", "w09"])]
        assert report.skipped == 2 and report.total_answered == 2
        assert run_analogy_suite(questions[1::2], record, state.vocab).skipped == 2
        assert run_analogy_suite([], record, state.vocab).total_answered == 0
        assert len(calls) == 1

    def test_empty_token_lists_answer_nothing(self):
        state = random_relational_state(np.random.default_rng(46), "lowrank")
        assert RelationalAnalogy(state)([], [], []) == []
        assert analogy_3cosadd([], [], [], state.vocab, state.store.input_vectors) == []


class TestTiledNorms:
    """Row norms and the relational predictor's norm vectors, computed by row
    tiles so that no whole-table temporary is built."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(kgvec.evaluation, "_BLOCK_BYTES", 2048)

    @pytest.mark.parametrize("shape", [(300, 8), (7, 3), (1, 300), (0, 4)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_norms_equal_whole_table_norms_bitwise(self, small_blocks, shape, dtype):
        # (300, 8) spans 10 tiles of 32 rows; a row of 300 outgrows the block,
        # so its tiles are single rows
        vectors = np.random.default_rng(51).standard_normal(shape).astype(dtype)
        got, want = kgvec.evaluation._row_norms(vectors), np.linalg.norm(vectors, axis=1)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("variant", ["lowrank", "transh"])
    def test_cached_tail_norms_match_direct_products(self, small_blocks, variant):
        rng = np.random.default_rng(52)
        # d=16: tiles of 16 rows over 90 candidates
        state = random_relational_state(rng, variant, n_words=90, n_rel=4)
        predictor = RelationalAnalogy(state)
        predictor(*zip(*random_questions(rng, state.vocab.tokens, 60)))
        assert len(predictor._tail_norms) > 1
        maps = direct_maps(state)
        for r, norms in predictor._tail_norms.items():
            want = np.array([np.sum((maps[r][1] @ w) ** 2) for w in state.store.input_vectors])
            np.testing.assert_allclose(norms, want, rtol=1e-12, atol=0)

    def test_relational_suite_memory_is_bounded(self, monkeypatch):
        block = 1 << 16
        monkeypatch.setattr(kgvec.evaluation, "_BLOCK_BYTES", block)
        rng = np.random.default_rng(53)
        # a 3000 x 32 table is 11.7 blocks; caching it projected once per
        # picked relation would pass the bound at the first relation
        state = random_relational_state(rng, "lowrank", n_words=3000, n_rel=8, d=32)
        words = state.vocab.tokens
        questions = [AnalogyQuestion(*(words[i] for i in rng.choice(len(words), 4, replace=False)))
                     for _ in range(200)]
        tracemalloc.start()
        try:
            predictor = RelationalAnalogy(state)
            run_analogy_suite(questions, predictor, state.vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_words, d = state.store.input_vectors.shape
        picked = len(predictor._tail_norms)
        assert picked > 1
        stacks = predictor.head_maps.nbytes + predictor.tail_maps.nbytes
        # 4 blocks of temporaries, and one more norm vector while one is joined
        assert peak < 4 * block + (picked + 1) * 8 * n_words + stacks
        assert predictor.vectors is state.store.input_vectors
        held = [v for k, v in vars(predictor).items() if k != "vectors"]
        held += [x for v in held if isinstance(v, dict) for x in v.values()]
        assert all(np.size(v) < n_words * d for v in held if isinstance(v, np.ndarray))


def oracle_ranks(values):
    """O(n^2) comparison-counting ranks, ties averaged."""
    n = len(values)
    ranks = []
    for i in range(n):
        less = sum(1 for j in range(n) if values[j] < values[i])
        equal = sum(1 for j in range(n) if values[j] == values[i])
        ranks.append(less + (equal + 1) / 2.0)
    return np.array(ranks)


def oracle_spearman(x, y):
    rx, ry = oracle_ranks(x), oracle_ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


class TestSpearman:
    def test_identical_orderings(self):
        assert spearman_rho([1, 5, 9], [10, 20, 30]) == 1.0

    def test_reversed_orderings(self):
        assert spearman_rho([1, 2, 3, 4], [9, 7, 5, 3]) == -1.0

    def test_hand_computed_point_nine(self):
        rho = spearman_rho([1, 2, 3, 4, 5], [1, 3, 2, 4, 5])
        assert rho == pytest.approx(0.9, abs=1e-12)

    def test_matches_quadratic_oracle_with_ties(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.integers(0, 6, size=n).astype(float)  # many ties
            y = rng.standard_normal(n).round(1)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert spearman_rho(x, y) == pytest.approx(
                oracle_spearman(x, y), abs=1e-12
            )

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(25)
        y = rng.standard_normal(25)
        base = spearman_rho(x, y)
        assert spearman_rho(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman_rho(x, 3 * y + 7) == pytest.approx(base, abs=1e-12)
        assert spearman_rho(x ** 3, np.exp(y)) == pytest.approx(base, abs=1e-12)

    def test_fractional_ranks_average_ties(self):
        assert fractional_ranks([10, 20, 20, 30]).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_fractional_ranks_equal_the_loop_oracle_bitwise(self):
        rng = np.random.default_rng(23)
        cases = [
            rng.integers(0, 6, size=int(rng.integers(1, 60))).astype(np.float64)
            for _ in range(40)
        ] + [
            np.round(rng.standard_normal(int(rng.integers(1, 60))), 1) for _ in range(40)
        ]
        cases += [np.full(9, 2.5), np.array([7.0]), np.array([0.0, -0.0, 1.0, -0.0])]
        for values in cases:
            got, want = fractional_ranks(values), fractional_ranks_loop(values)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes(), values

    def test_undefined_cases(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman_rho([1.0], [2.0])
        with pytest.raises(UndefinedCorrelationError):
            spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="equally long"):
            spearman_rho([1.0, 2.0, 3.0], [1.0, 2.0])


class TestSimilaritySuite:
    def test_replicating_cosine_order_gives_rho_one(self):
        vocab = make_vocab(["a", "b", "c", "d"])
        vectors = np.array(
            [[1.0, 0.0], [1.0, 0.1], [1.0, 1.0], [0.0, 1.0]]
        )
        pairs = [
            SimilarityPair("a", "b", 0.99),
            SimilarityPair("a", "c", 0.5),
            SimilarityPair("a", "d", 0.01),
        ]
        report = run_similarity_suite(pairs, vocab, vectors)
        assert report.rho == 1.0

    def test_oov_pairs_skipped(self):
        vocab = make_vocab(["a", "b", "c"])
        vectors = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        pairs = [
            SimilarityPair("a", "b", 0.9),
            SimilarityPair("a", "c", 0.1),
            SimilarityPair("a", "zzz", 0.5),
        ]
        report = run_similarity_suite(pairs, vocab, vectors)
        assert report.n_used == 2
        assert report.skipped == 1

    def test_too_few_scorable_pairs(self):
        vocab = make_vocab(["a", "b"])
        pairs = [SimilarityPair("a", "zzz", 0.5)]
        with pytest.raises(UndefinedCorrelationError):
            run_similarity_suite(pairs, vocab, np.eye(2))


class TestFileFormats:
    def test_question_file_round_trip(self, tmp_path):
        path = tmp_path / "questions.txt"
        path.write_text(
            ": capital\nparis france london england\n"
            ": gender\nKing Queen man woman\n"
        )
        qs = load_analogy_questions(path)
        assert qs[0] == AnalogyQuestion(
            "paris", "france", "london", "england", "capital"
        )
        assert qs[1].relation == "gender"
        assert qs[1].a == "king"  # normalized

    def test_question_bad_line(self, tmp_path):
        path = tmp_path / "questions.txt"
        path.write_text("a b c\n")
        with pytest.raises(ParseError, match="line 1"):
            load_analogy_questions(path)

    def test_question_duplicate_tokens_rejected(self, tmp_path):
        path = tmp_path / "questions.txt"
        path.write_text("a a c d\n")
        with pytest.raises(ParseError):
            load_analogy_questions(path)

    def test_similarity_file(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("cat\tdog\t7.5\nhouse\tcar\t2.0\n")
        pairs = load_similarity_pairs(path)
        assert pairs[0] == SimilarityPair("cat", "dog", 7.5)

    def test_similarity_bad_score(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("cat\tdog\tseven\n")
        with pytest.raises(ParseError, match="line 1"):
            load_similarity_pairs(path)

    @pytest.mark.parametrize("score", ["nan", "1e999", "-inf"])
    def test_similarity_non_finite_score(self, tmp_path, score):
        path = tmp_path / "sim.tsv"
        path.write_text(f"cat\tdog\t7.5\na\tb\t{score}\n")
        with pytest.raises(ParseError, match=f"line 2: bad score '{score}'"):
            load_similarity_pairs(path)


@pytest.fixture(scope="module")
def tiny_world():
    return relation_world(seed=3, n_groups=8, n_filler=30, corpus_len=1200, n_questions=6)


class TestRankSweep:
    def test_grid_produces_one_row_per_combination(self, tiny_world):
        tokens, vocab, triples, questions = tiny_world
        rows = rank_sweep(
            tokens,
            vocab,
            triples,
            questions,
            ModelConfig(variant="lowrank", dim=8, head_rank=4, tail_rank=4),
            TrainConfig(alpha=0.3, epochs=1, seed=2, window=2),
            head_ranks=[2, 8],
            tail_ranks=[4, 8],
        )
        assert [(r.head_rank, r.tail_rank) for r in rows] == [
            (2, 4),
            (2, 8),
            (8, 4),
            (8, 8),
        ]
        assert all(0.0 <= r.accuracy <= 1.0 for r in rows)
        tsv = sweep_to_tsv(rows)
        assert tsv.splitlines()[0] == "head_rank\ttail_rank\taccuracy\tanswered"
        assert len(tsv.strip().splitlines()) == 5

    def test_degenerate_full_rank_sweep_is_single_run(self, tiny_world):
        tokens, vocab, triples, questions = tiny_world
        d = 8
        rows = rank_sweep(
            tokens,
            vocab,
            triples,
            questions,
            ModelConfig(variant="lowrank", dim=d, head_rank=4, tail_rank=4),
            TrainConfig(alpha=0.3, epochs=1, seed=2, window=2),
            head_ranks=[d],
            tail_ranks=[d],
        )
        assert len(rows) == 1
        assert rows[0].head_rank == d and rows[0].tail_rank == d
