#!/usr/bin/env python3
"""Tour of the knowledge-model zoo: rank-bounded projections, the five
scoring variants, and the TransH-as-special-case conversion."""

import numpy as np

from kgvec import (
    LowRankProjection,
    ModelConfig,
    init_projection,
    score_triple,
    transh_as_lowrank,
)
from kgvec.model import (
    LowRankRelation,
    SERelation,
    TransERelation,
    TransHRelation,
    TransRRelation,
)

rng = np.random.default_rng(0)
d = 6

# A projection is stored as m weighted rank-1 factors, so its rank can never
# exceed m no matter how the factors move during training.
proj = init_projection(d, m=3, rng=rng)
print("initial projection (random 0/1 diagonal, trace = rank bound):")
print(proj.materialize())

proj.out_factors += 0.2 * rng.standard_normal(proj.out_factors.shape)
proj.in_factors += 0.2 * rng.standard_normal(proj.in_factors.shape)
print("\nafter simulated training noise, numerical rank is still <=",
      np.linalg.matrix_rank(proj.materialize()))

v = rng.standard_normal(d)
print("apply() vs dense multiply agree to",
      np.abs(proj.apply(v) - proj.materialize() @ v).max())

# Score the same triple under every variant.  Lower = more plausible.
h, r, t = rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal(d)
w = rng.standard_normal(d)
w /= np.linalg.norm(w)
M = rng.standard_normal((d, d))

variants = {
    "lowrank": LowRankRelation(
        init_projection(d, 3, rng), init_projection(d, 5, rng)
    ),
    "transe": TransERelation(),
    "transh": TransHRelation(w),
    "se": SERelation(M, M.T.copy()),
    "transr": TransRRelation(M),
}
print("\nscores for one random triple:")
for variant, params in variants.items():
    cfg = ModelConfig(variant=variant, dim=d, head_rank=3, tail_rank=5)
    print(f"  {variant:8s} {score_triple(cfg, params, h, r, t):10.4f}")

# TransH is the special case with both projections equal to I - w w^T,
# expressed as d-1 unit factors.
left, right = transh_as_lowrank(w)
converted = LowRankRelation(left, right)
cfg_h = ModelConfig(variant="transh", dim=d)
cfg_l = ModelConfig(variant="lowrank", dim=d, head_rank=d - 1, tail_rank=d - 1)
f_h = score_triple(cfg_h, TransHRelation(w), h, r, t)
f_l = score_triple(cfg_l, converted, h, r, t)
print("\nTransH score:", f_h)
print("same triple under the converted rank-(d-1) projections:", f_l)
print("difference:", abs(f_h - f_l))

# And identity projections recover the plain translation model exactly.
eye = LowRankProjection(np.ones(d), np.eye(d), np.eye(d))
eye_params = LowRankRelation(eye, eye)
cfg_full = ModelConfig(variant="lowrank", dim=d, head_rank=d, tail_rank=d)
cfg_plain = ModelConfig(variant="transe", dim=d)
print("\nidentity projections vs plain translation:",
      score_triple(cfg_full, eye_params, h, r, t),
      "==",
      score_triple(cfg_plain, TransERelation(), h, r, t))
