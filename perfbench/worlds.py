"""Seeded input worlds for the three workloads.

Every generator draws only from ``numpy.random.default_rng(seed)`` and
writes plain text files (corpus, triples, questions, lexicon, vocabulary),
so one seed always yields the same bytes.  Nothing here imports kgvec:
building the inputs is the benchmark's own work and is never timed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LETTERS = "bcdfghjklmnprstvz"
VOWELS = "aeiou"


def _syllable_words(count: int, syllables: int, prefix: str) -> list[str]:
    """``count`` distinct letter-only words: a fixed prefix then CV syllables,
    enumerated in order so no two collide and no word is digit-only."""
    words = []
    n_syl = len(LETTERS) * len(VOWELS)
    for k in range(count):
        parts = []
        x = k
        for _ in range(syllables):
            x, s = divmod(x, n_syl)
            parts.append(LETTERS[s // len(VOWELS)] + VOWELS[s % len(VOWELS)])
        if x:
            raise ValueError("too many words for the syllable budget")
        words.append(prefix + "".join(parts))
    return words


@dataclass
class World:
    """Paths to a world's files plus the parameters that shaped it."""

    directory: Path
    files: dict[str, Path] = field(default_factory=dict)
    params: dict[str, int | float | str] = field(default_factory=dict)

    def write(self, key: str, name: str, lines: list[str]) -> Path:
        path = self.directory / name
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        self.files[key] = path
        return path


def _questions_from_one_to_one(
    rng: np.random.Generator, pairs_by_relation: dict[str, list[tuple[str, str]]], n: int
) -> list[str]:
    """word2vec question lines ``a b c d`` with (a, r, b) and (c, r, d) both
    true under one one-to-one relation; every question is distinct."""
    lines: list[str] = []
    seen: set[tuple[str, str, str, str]] = set()
    names = sorted(pairs_by_relation)
    by_rel: dict[str, list[str]] = {r: [] for r in names}
    while sum(len(v) for v in by_rel.values()) < n:
        r = names[int(rng.integers(len(names)))]
        pairs = pairs_by_relation[r]
        i, j = (int(x) for x in rng.choice(len(pairs), size=2, replace=False))
        q = (*pairs[i], *pairs[j])
        if len(set(q)) == 4 and q not in seen:
            seen.add(q)
            by_rel[r].append(" ".join(q))
    for r in names:
        if by_rel[r]:
            lines.append(f": {r}")
            lines.extend(by_rel[r])
    return lines


# ---------------------------------------------------------------------------
# joint-relworld
# ---------------------------------------------------------------------------


def relworld(
    directory: Path,
    seed: int,
    n_groups: int = 67,
    n_filler: int = 300,
    corpus_tokens: int = 8000,
    cli_lines: int = 240,
    n_questions: int = 600,
) -> World:
    """The acceptance-criterion-8 world, with more questions.

    Group i has entities x_i, y_i, z_i linked by rel_a (x->y), rel_b (x->z)
    and rel_c (y->z); a third of the sentences mention one group among
    filler words.  Questions ask rel_a analogies x_i : y_i :: x_j : y_j.
    ``cli.txt`` is the first ``cli_lines`` sentences plus one line naming
    every entity, so the CLI vocabulary covers the whole KG.
    """
    rng = np.random.default_rng(seed)
    xs = [f"xent{i:02d}" for i in range(n_groups)]
    ys = [f"yent{i:02d}" for i in range(n_groups)]
    zs = [f"zent{i:02d}" for i in range(n_groups)]
    filler = [f"w{i:03d}" for i in range(n_filler)]

    lines: list[str] = []
    total = 0
    while total < corpus_tokens:
        if rng.random() < 0.35:
            i = int(rng.integers(n_groups))
            sentence = [filler[int(rng.integers(n_filler))] for _ in range(4)]
            for ent in (xs[i], ys[i], zs[i]):
                sentence.insert(int(rng.integers(len(sentence) + 1)), ent)
        else:
            sentence = [filler[int(rng.integers(n_filler))] for _ in range(7)]
        sentence = sentence[: corpus_tokens - total]
        total += len(sentence)
        lines.append(" ".join(sentence))
    entity_line = " ".join(xs + ys + zs)

    triples = []
    for i in range(n_groups):
        triples += [f"{xs[i]}\trel_a\t{ys[i]}", f"{xs[i]}\trel_b\t{zs[i]}"]
        triples.append(f"{ys[i]}\trel_c\t{zs[i]}")
    triples = triples[:200]

    pairs = {"rel_a": list(zip(xs, ys))}
    questions = _questions_from_one_to_one(rng, pairs, n_questions)

    world = World(Path(directory))
    world.write("corpus", "corpus.txt", lines)
    world.write("vocab_text", "vocab_text.txt", lines + [entity_line])
    world.write("cli_corpus", "cli.txt", lines[:cli_lines] + [entity_line])
    world.write("triples", "triples.tsv", triples)
    world.write("questions", "questions.txt", questions)
    world.params.update(
        seed=seed,
        groups=n_groups,
        filler_words=n_filler,
        corpus_tokens=total,
        corpus_lines=len(lines),
        cli_corpus_lines=cli_lines + 1,
        triples=len(triples),
        questions=n_questions,
    )
    return world


# ---------------------------------------------------------------------------
# kg-variants-d100
# ---------------------------------------------------------------------------


def kgworld(
    directory: Path,
    seed: int,
    n_entities: int = 1200,
    relations_per_kind: int = 14,
    links: int = 40,
    fan: int = 5,
    n_questions: int = 200,
) -> World:
    """A corpus-free KG mixing 1-1, N-1, 1-N and N-N relations.

    Each relation holds about ``links`` triples over entities drawn from one
    shared pool; N-1 and 1-N relations have ``fan`` heads per tail or tails
    per head.  Questions come from the one-to-one relations.  The
    vocabulary file lists every entity with count 0 (no corpus).
    """
    rng = np.random.default_rng(seed)
    ents = _syllable_words(n_entities, 3, "k")
    rows: list[tuple[str, str, str]] = []
    one_to_one: dict[str, list[tuple[str, str]]] = {}

    def pick(k: int) -> list[str]:
        return [ents[i] for i in rng.choice(n_entities, size=k, replace=False)]

    for r in range(relations_per_kind):
        name = f"one_one_{r:02d}"
        chosen = pick(2 * links)
        pairs = list(zip(chosen[:links], chosen[links:]))
        one_to_one[name] = pairs
        rows += [(h, name, t) for h, t in pairs]

        name = f"many_one_{r:02d}"
        chosen = pick(links + links // fan)
        heads, tails = chosen[:links], chosen[links:]
        rows += [(h, name, tails[k // fan]) for k, h in enumerate(heads)]

        name = f"one_many_{r:02d}"
        chosen = pick(links + links // fan)
        tails, heads = chosen[:links], chosen[links:]
        rows += [(heads[k // fan], name, t) for k, t in enumerate(tails)]

        name = f"many_many_{r:02d}"
        chosen = pick(2 * links // 3)
        heads, tails = chosen[: links // 3], chosen[links // 3 :]
        for h in heads:
            for t in rng.choice(len(tails), size=3, replace=False):
                rows.append((h, name, tails[int(t)]))

    order = rng.permutation(len(rows))
    triples = [("\t".join(rows[int(i)])) for i in order]
    questions = _questions_from_one_to_one(rng, one_to_one, n_questions)

    world = World(Path(directory))
    world.write("vocab", "vocab.txt", [f"#vocab {n_entities}"] + [f"{e}\t0" for e in ents])
    world.write("triples", "triples.tsv", triples)
    world.write("warmup_triples", "warmup.tsv", triples[:120])
    world.write("questions", "questions.txt", questions)
    world.params.update(
        seed=seed,
        entities=n_entities,
        relations=4 * relations_per_kind,
        triples=len(triples),
        questions=n_questions,
    )
    return world


# ---------------------------------------------------------------------------
# cli-bigvocab
# ---------------------------------------------------------------------------


def bigworld(
    directory: Path,
    seed: int,
    n_lexicon: int = 20_000,
    n_mentioned: int = 400,
    n_filler: int = 400,
    n_lines: int = 30,
    tokens_per_line: int = 40,
    n_questions: int = 100,
) -> World:
    """A short corpus over a large phrase lexicon.

    The lexicon holds ``n_lexicon`` two- and three-word entity names; only
    ``n_mentioned`` of them occur in the corpus, so the rest become count-0
    vocabulary rows.  The KG links mentioned entities through one-to-one,
    many-to-one and many-to-many relations, plus a few unmentioned ones.
    """
    rng = np.random.default_rng(seed)
    first = _syllable_words(160, 2, "q")
    second = _syllable_words(160, 2, "x")
    third = _syllable_words(40, 1, "y")
    names: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    while len(names) < n_lexicon:
        words = (first[int(rng.integers(160))], second[int(rng.integers(160))])
        if rng.random() < 0.25:
            words += (third[int(rng.integers(40))],)
        if words not in seen:
            seen.add(words)
            names.append(words)
    merged = ["_".join(w) for w in names]
    filler = _syllable_words(n_filler, 2, "f")
    mentioned = [int(i) for i in rng.choice(n_lexicon, size=n_mentioned, replace=False)]

    lines: list[str] = []
    for _ in range(n_lines):
        words: list[str] = []
        while len(words) < tokens_per_line:
            if rng.random() < 0.3:
                words.extend(names[mentioned[int(rng.integers(n_mentioned))]])
            else:
                words.append(filler[int(rng.integers(n_filler))])
        lines.append(" ".join(words))

    rows: list[str] = []
    one_to_one: dict[str, list[tuple[str, str]]] = {}
    m = [merged[i] for i in mentioned]
    for r in range(2):
        perm = rng.permutation(n_mentioned)
        pairs = [(m[int(perm[2 * k])], m[int(perm[2 * k + 1])]) for k in range(n_mentioned // 4)]
        one_to_one[f"pair_{r}"] = pairs
        rows += [f"{h}\tpair_{r}\t{t}" for h, t in pairs]
    perm = rng.permutation(n_mentioned)
    hubs = [m[int(i)] for i in perm[:20]]
    rows += [f"{m[int(i)]}\tbelongs_to\t{hubs[k % 20]}" for k, i in enumerate(perm[20:200])]
    mentioned_set = set(mentioned)
    unmentioned = [merged[int(i)] for i in rng.choice(n_lexicon, size=60, replace=False)
                   if int(i) not in mentioned_set]
    rows += [f"{m[k]}\tlinks\t{u}" for k, u in enumerate(unmentioned)]
    questions = _questions_from_one_to_one(rng, one_to_one, n_questions)

    world = World(Path(directory))
    world.write("lexicon", "lexicon.txt", [" ".join(w) for w in names])
    world.write("corpus", "corpus.txt", lines)
    world.write("triples", "triples.tsv", rows)
    world.write("questions", "questions.txt", questions)
    world.write("warmup_lexicon", "warmup_lexicon.txt", [" ".join(names[i]) for i in mentioned[:20]])
    world.write("warmup_corpus", "warmup_corpus.txt", lines[:2])
    world.params.update(
        seed=seed,
        lexicon_entries=n_lexicon,
        mentioned_entities=n_mentioned,
        filler_words=n_filler,
        corpus_lines=n_lines,
        corpus_tokens=sum(len(line.split()) for line in lines),
        triples=len(rows),
        questions=n_questions,
    )
    return world
