#!/usr/bin/env python3
"""Walkthrough of the text side: tokenization, phrase merging, vocabulary,
negative sampling, and (center, context) pair streaming."""

import numpy as np

from kgvec import (
    PhraseIndex,
    build_negative_table,
    build_vocabulary,
    merge_phrases,
    tokenize,
)
from kgvec.corpus import context_pair_arrays

text = (
    "John F Kennedy was born in 1917. "
    "New York is big, and New York never sleeps; "
    "John F Kennedy visited New York twice."
)

print("raw text:")
print(" ", text)

tokens = tokenize(text)
print("\nbase tokens (lowercased, edge punctuation stripped, digits kept for now):")
print(" ", tokens)

# Multi-word entity names become single tokens joined with "_".  Matching is
# greedy longest-first, so "john f kennedy" beats "john f".  The lexicon is
# indexed by first word once and reused for every line.
lexicon = PhraseIndex([("john", "f", "kennedy"), ("john", "f"), ("new", "york")])
merged = merge_phrases(tokens, lexicon)
print("\nafter phrase merging:")
print(" ", merged)

# Vocabulary counting happens after merging; digit-only tokens are dropped,
# and every lexicon entry is guaranteed a slot (count 0 if unseen/rare).
vocab = build_vocabulary(text, min_count=1, phrase_lexicon=lexicon)
print("\nvocabulary (token, count):")
for tok, cnt in zip(vocab.tokens, vocab.counts):
    print(f"  {tok:16s} {cnt}")
print("note: 'john_f' is present with count 0 — it lost every match to the"
      " longer name but keeps an embedding slot.")

# The trainer draws negatives from a flat table of 1,000,000 token indices,
# each token filling a share of cells proportional to count^0.75.
table = build_negative_table(vocab)
shares = np.bincount(table, minlength=len(vocab)) / len(table)
print("\nnegative-table cell shares (count^0.75, zero-count tokens get no cell):")
for tok, share in zip(vocab.tokens, shares):
    print(f"  {tok:16s} {share:.4f}")

rng = np.random.default_rng(0)
draws = table[rng.integers(0, len(table), 10)]
print("\n10 negative draws:", [vocab.tokens[i] for i in draws])

print("\nfirst 8 skip-gram pairs (window 2, out-of-vocab removed first):")
centers, contexts = context_pair_arrays(vocab.encode(merged), window=2)
for center, context in zip(centers[:8], contexts[:8]):
    print(f"  center={vocab.tokens[center]:16s} context={vocab.tokens[context]}")
