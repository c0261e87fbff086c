import numpy as np
import pytest

from kgvec.corpus import Vocabulary
from kgvec.errors import CorruptionExhaustedError, EmptyKGError, ParseError
from kgvec.kg import (
    TripleSet,
    compute_mapping_stats,
    corrupt_triple,
    load_triples,
)


def write_triples(tmp_path, lines, name="kg.tsv"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines))
    return path


def make_triple_set(rows, n_entities, n_relations):
    return TripleSet(
        np.asarray(rows, dtype=np.int64),
        [f"e{i}" for i in range(n_entities)],
        [f"r{i}" for i in range(n_relations)],
    )


class TestLoadTriples:
    def test_duplicates_collapse(self, tmp_path):
        path = write_triples(tmp_path, ["a\tr\tb", "a\tr\tb"])
        ts = load_triples(path)
        assert len(ts) == 1

    def test_duplicate_keeps_its_first_position(self, tmp_path):
        path = write_triples(
            tmp_path, ["a\tr\tb", "b\ts\tc", "a\tr\tb", "c\tr\ta"]
        )
        ts = load_triples(path)
        assert ts.entity_names == ["a", "b", "c"]
        assert ts.relation_names == ["r", "s"]
        assert ts.triples.tolist() == [[0, 0, 1], [1, 1, 2], [2, 0, 0]]

    def test_names_only_on_filtered_lines_get_no_index(self, tmp_path):
        path = write_triples(
            tmp_path,
            ["x\tdropped\ta", "a\tr\tb", "b\tdropped\ty", "b\ts\ta"],
        )
        vocab = Vocabulary(["a", "b"], np.array([1, 1]))
        ts = load_triples(path, entity_filter=vocab)
        assert ts.entity_names == ["a", "b"]
        assert ts.relation_names == ["r", "s"]
        assert ts.triples.tolist() == [[0, 0, 1], [1, 1, 0]]

    def test_entity_filter(self, tmp_path):
        path = write_triples(tmp_path, ["a\tr\tb", "a\tr\ta", "b\tr\tb"])
        vocab = Vocabulary(["a"], np.array([1]))
        ts = load_triples(path, entity_filter=vocab)
        assert len(ts) == 1
        assert ts.entity_names == ["a"]

    def test_indices_assigned_in_encounter_order(self, tmp_path):
        path = write_triples(
            tmp_path, ["h1\tborn_in\tc1", "h2\tworks_at\tc2", "h1\tworks_at\tc1"]
        )
        ts = load_triples(path)
        assert len(ts) == 3
        assert ts.relation_names == ["born_in", "works_at"]
        assert ts.entity_names == ["h1", "c1", "h2", "c2"]

    def test_malformed_line_reports_number(self, tmp_path):
        path = write_triples(tmp_path, ["a\tr\tb", "broken line"])
        with pytest.raises(ParseError, match="line 2"):
            load_triples(path)

    def test_empty_result_raises(self, tmp_path):
        path = write_triples(tmp_path, [])
        with pytest.raises(EmptyKGError):
            load_triples(path)

    def test_filter_removing_everything_raises(self, tmp_path):
        path = write_triples(tmp_path, ["a\tr\tb"])
        vocab = Vocabulary(["zzz"], np.array([1]))
        with pytest.raises(EmptyKGError):
            load_triples(path, entity_filter=vocab)

    def test_save_load_identity(self, tmp_path):
        path = write_triples(
            tmp_path, ["x\tr1\ty", "y\tr2\tz", "x\tr2\tz", "z\tr1\tx"]
        )
        ts = load_triples(path)
        out = tmp_path / "resaved.tsv"
        ts.save(out)
        ts2 = load_triples(out)
        assert ts2.entity_names == ts.entity_names
        assert ts2.relation_names == ts.relation_names
        assert np.array_equal(ts2.triples, ts.triples)


def brute_force_stats(ts):
    """Nested-loop oracle for the mapping statistics."""
    tph, hpt = [], []
    for r in range(ts.n_relations):
        heads = {int(h) for h, rr, t in ts.triples if rr == r}
        tails = {int(t) for h, rr, t in ts.triples if rr == r}
        per_head = []
        for h in heads:
            per_head.append(
                len({int(t) for hh, rr, t in ts.triples if rr == r and hh == h})
            )
        per_tail = []
        for t in tails:
            per_tail.append(
                len({int(h) for h, rr, tt in ts.triples if rr == r and tt == t})
            )
        tph.append(sum(per_head) / len(per_head))
        hpt.append(sum(per_tail) / len(per_tail))
    return tph, hpt


class TestTripleSet:
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(0, 0, 1), (0, 0, 1)], "duplicate triples"),
            ([(0, 0, 2)], "out of range"),
            ([(0, 1, 1)], "out of range"),
            ([(-1, 0, 1)], "out of range"),
        ],
        ids=["duplicate", "entity-past-end", "relation-past-end", "negative"],
    )
    def test_bad_rows_rejected(self, rows, message):
        with pytest.raises(ValueError, match=message):
            make_triple_set(rows, 2, 1)


class TestMappingStats:
    def test_two_heads_one_tail(self):
        ts = make_triple_set([(0, 0, 2), (1, 0, 2)], 3, 1)
        stats = compute_mapping_stats(ts)
        assert stats.heads_per_tail[0] == 2.0
        assert stats.tails_per_head[0] == 1.0
        assert stats.hpt_mean == 2.0
        assert stats.hpt_std == 0.0

    def test_singleton(self):
        ts = make_triple_set([(0, 0, 1)], 2, 1)
        stats = compute_mapping_stats(ts)
        assert stats.tails_per_head[0] == 1.0
        assert stats.heads_per_tail[0] == 1.0
        assert stats.tph_std == 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="triple set is empty"):
            compute_mapping_stats(make_triple_set([], 2, 1))

    def test_matches_brute_force_on_random_kgs(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n_ent = int(rng.integers(2, 20))
            n_rel = int(rng.integers(1, 10))
            n = int(rng.integers(1, 200))
            rows = {
                (int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
                for _ in range(n)
            }
            relations_used = sorted({r for _, r, _ in rows})
            remap = {r: i for i, r in enumerate(relations_used)}
            rows = [(h, remap[r], t) for h, r, t in rows]
            ts = make_triple_set(rows, n_ent, len(relations_used))
            stats = compute_mapping_stats(ts)
            tph, hpt = brute_force_stats(ts)
            assert stats.tails_per_head.tolist() == tph
            assert stats.heads_per_tail.tolist() == hpt

    def test_tsv_layout(self):
        ts = make_triple_set([(0, 0, 2), (1, 0, 2)], 3, 1)
        text = compute_mapping_stats(ts).to_tsv()
        lines = text.strip().split("\n")
        assert lines[0] == "relation\ttails_per_head\theads_per_tail"
        assert lines[-2].startswith("MEAN\t")
        assert lines[-1].startswith("STD\t")


class TestCorruptTriple:
    def test_differs_in_exactly_one_slot(self):
        rng = np.random.default_rng(1)
        ts = make_triple_set([(0, 0, 1), (2, 1, 3), (4, 0, 0)], 5, 2)
        for triple in [(0, 0, 1), (2, 1, 3), (4, 0, 0)]:
            for _ in range(50):
                out = corrupt_triple(triple, ts, rng)
                diffs = sum(a != b for a, b in zip(out, triple))
                assert diffs == 1
                assert out not in ts.triple_index

    def test_exhausted_when_all_combinations_are_golden(self):
        rows = [(h, 0, t) for h in range(2) for t in range(2)]
        ts = make_triple_set(rows, 2, 1)
        rng = np.random.default_rng(2)
        with pytest.raises(CorruptionExhaustedError):
            corrupt_triple((0, 0, 0), ts, rng)

    def test_every_legal_corruption_appears_and_sides_balance(self):
        # 4 entities, one golden triple: legal = 3 head swaps + 3 tail swaps
        ts = make_triple_set([(0, 0, 1)], 4, 1)
        rng = np.random.default_rng(3)
        n = 100_000
        seen = {}
        heads = 0
        for _ in range(n):
            out = corrupt_triple((0, 0, 1), ts, rng)
            seen[out] = seen.get(out, 0) + 1
            if out[0] != 0:
                heads += 1
        legal = {(h, 0, 1) for h in (1, 2, 3)} | {(0, 0, t) for t in (0, 2, 3)}
        assert set(seen) == legal
        sigma = np.sqrt(0.25 * n)
        assert abs(heads - n / 2) <= 3 * sigma

    def test_needs_two_entities(self):
        ts = make_triple_set([(0, 0, 0)], 1, 1)
        with pytest.raises(CorruptionExhaustedError, match="at least 2 entities"):
            corrupt_triple((0, 0, 0), ts, np.random.default_rng(0))
