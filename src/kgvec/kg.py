"""Knowledge-graph triples: loading, mapping statistics, corruption."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Vocabulary, read_lines
from .errors import CorruptionExhaustedError, EmptyKGError, ParseError

# Draws corrupt_triple makes before it gives up.
CORRUPT_ATTEMPTS = 100


@dataclass
class TripleSet:
    """Deduplicated (head, relation, tail) triples over integer indices.

    Entity and relation indices are assigned in order of first appearance in
    the source file, after any vocabulary filtering.
    """

    triples: np.ndarray  # (n, 3) int64 rows (head, relation, tail)
    entity_names: list[str]
    relation_names: list[str]
    triple_index: frozenset = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.triples = np.asarray(self.triples, dtype=np.int64).reshape(-1, 3)
        self.triple_index = frozenset(map(tuple, self.triples.tolist()))
        if len(self.triple_index) != len(self.triples):
            raise ValueError("duplicate triples")
        if len(self.triples) and (
            self.triples[:, [0, 2]].max() >= len(self.entity_names)
            or self.triples[:, 1].max() >= len(self.relation_names)
            or self.triples.min() < 0
        ):
            raise ValueError("triple index out of range")

    def __len__(self) -> int:
        return len(self.triples)

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for h, r, t in self.triples:
                fh.write(
                    f"{self.entity_names[h]}\t{self.relation_names[r]}"
                    f"\t{self.entity_names[t]}\n"
                )


def load_triples(
    path: str | Path, entity_filter: Vocabulary | None = None
) -> TripleSet:
    """Parse a ``head<TAB>relation<TAB>tail`` TSV file into a TripleSet.

    Duplicate lines collapse to one triple.  With ``entity_filter`` given,
    only triples whose head and tail are both vocabulary tokens survive.
    Blank lines are skipped; anything else malformed raises ParseError with
    its line number.
    """
    entities: dict[str, int] = {}
    relations: dict[str, int] = {}
    rows: dict[tuple[int, int, int], None] = {}

    for lineno, line in read_lines(path):
        cols = line.split("\t")
        if len(cols) != 3 or not all(c.strip() for c in cols):
            raise ParseError(
                f"{path}: line {lineno}: expected 'head<TAB>relation<TAB>tail'"
            )
        head, rel, tail = (c.strip() for c in cols)
        if entity_filter is not None and (
            head not in entity_filter or tail not in entity_filter
        ):
            continue
        h = entities.setdefault(head, len(entities))
        t = entities.setdefault(tail, len(entities))
        r = relations.setdefault(rel, len(relations))
        rows.setdefault((h, r, t))

    if not rows:
        raise EmptyKGError(f"{path}: no triples survived loading")
    return TripleSet(np.asarray(list(rows), dtype=np.int64), list(entities), list(relations))


@dataclass
class MappingStats:
    """Per-relation mapping cardinalities plus their aggregates.

    ``tails_per_head[r]`` is the mean, over distinct heads appearing with
    relation r, of the number of distinct tails each head links to;
    ``heads_per_tail`` is the symmetric quantity.  Aggregates are unweighted
    population mean/stddev across relations.
    """

    relation_names: list[str]
    tails_per_head: np.ndarray
    heads_per_tail: np.ndarray

    @property
    def tph_mean(self) -> float:
        return float(np.mean(self.tails_per_head))

    @property
    def tph_std(self) -> float:
        return float(np.std(self.tails_per_head))

    @property
    def hpt_mean(self) -> float:
        return float(np.mean(self.heads_per_tail))

    @property
    def hpt_std(self) -> float:
        return float(np.std(self.heads_per_tail))

    def to_tsv(self) -> str:
        lines = ["relation\ttails_per_head\theads_per_tail"]
        for name, tph, hpt in zip(
            self.relation_names, self.tails_per_head, self.heads_per_tail
        ):
            lines.append(f"{name}\t{tph:.6g}\t{hpt:.6g}")
        lines.append(f"MEAN\t{self.tph_mean:.6g}\t{self.hpt_mean:.6g}")
        lines.append(f"STD\t{self.tph_std:.6g}\t{self.hpt_std:.6g}")
        return "\n".join(lines) + "\n"


def compute_mapping_stats(triple_set: TripleSet) -> MappingStats:
    """Compute mean tails-per-head and heads-per-tail for every relation.

    Triples are distinct, so relation r's mean tails per head is its triple
    count over its number of distinct heads, and likewise for tails.  A
    relation without triples gets NaN.
    """
    if len(triple_set) == 0:
        raise ValueError("triple set is empty")
    n_rel, n_ent = triple_set.n_relations, triple_set.n_entities
    heads, rels, tails = triple_set.triples.T
    per_relation = np.bincount(rels, minlength=n_rel)

    def distinct(entities: np.ndarray) -> np.ndarray:
        """Number of distinct entities per relation."""
        keys = np.unique(rels * n_ent + entities)
        return np.bincount(keys // n_ent, minlength=n_rel)

    return MappingStats(
        list(triple_set.relation_names),
        per_relation / distinct(heads),
        per_relation / distinct(tails),
    )


def corrupt_triple(
    triple: tuple[int, int, int], triple_set: TripleSet, rng: np.random.Generator
) -> tuple[int, int, int]:
    """Produce a negative triple by replacing its head or its tail.

    A fair coin picks the side and the replacement is drawn uniformly over
    all entities (Bordes et al., 2013).  Draws that reproduce the input or
    hit a known-true triple are rejected and retried, up to
    ``CORRUPT_ATTEMPTS`` draws in all.
    """
    n_ent = triple_set.n_entities
    if n_ent < 2:
        raise CorruptionExhaustedError("need at least 2 entities to corrupt")

    h, r, t = (int(x) for x in triple)
    for _ in range(CORRUPT_ATTEMPTS):
        head_side = rng.integers(2) == 0
        cand = int(rng.integers(n_ent))
        if head_side:
            corrupted, changed = (cand, r, t), cand != h
        else:
            corrupted, changed = (h, r, cand), cand != t
        if changed and corrupted not in triple_set.triple_index:
            return corrupted
    raise CorruptionExhaustedError(
        f"no valid corruption of {triple} found in {CORRUPT_ATTEMPTS} attempts"
    )
