"""Rank-bounded linear maps stored as weighted sums of rank-1 factors.

A projection with factors (w_i, p_i, q_i), i < m, represents the matrix
sum_i w_i * outer(p_i, q_i), whose rank can never exceed m.  Training
updates the factors directly, so the bound survives any number of SGD
steps by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LowRankProjection:
    """``m`` weighted rank-1 factors of a d x d linear map.

    ``out_factors[i]`` is the output-side vector p_i, ``in_factors[i]`` the
    input-side vector q_i: applying to v gives sum_i weights[i] * (q_i . v) * p_i.
    """

    weights: np.ndarray  # (m,)
    out_factors: np.ndarray  # (m, d)
    in_factors: np.ndarray  # (m, d)

    def __post_init__(self) -> None:
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        self.out_factors = np.asarray(self.out_factors, dtype=np.float64)
        self.in_factors = np.asarray(self.in_factors, dtype=np.float64)
        m = len(self.weights)
        if self.out_factors.shape != (m, self.dim) or self.in_factors.shape != (
            m,
            self.dim,
        ):
            raise ValueError("factor shapes do not match weight count")

    @property
    def dim(self) -> int:
        return self.out_factors.shape[1]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product in O(m*d) without forming the d x d matrix."""
        if v.shape != (self.dim,):
            raise ValueError(f"expected vector of dim {self.dim}, got {v.shape}")
        return (self.weights * (self.in_factors @ v)) @ self.out_factors

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        """Product with the transposed map, same O(m*d) cost."""
        if v.shape != (self.dim,):
            raise ValueError(f"expected vector of dim {self.dim}, got {v.shape}")
        return (self.weights * (self.out_factors @ v)) @ self.in_factors

    def materialize(self) -> np.ndarray:
        """Dense d x d matrix sum_i w_i p_i q_i^T; ``LowRankRelation.dense_maps``
        takes the same product over stacks of factors."""
        return (self.out_factors * self.weights[:, None]).T @ self.in_factors


def init_projection(d: int, m: int, rng: np.random.Generator) -> LowRankProjection:
    """Random 0/1 diagonal start: m distinct axes get weight-1 identity factors.

    The materialized matrix is diagonal with exactly m ones.
    """
    if not 1 <= m <= d:
        raise ValueError(f"rank bound must satisfy 1 <= m <= d, got m={m}, d={d}")
    axes = rng.choice(d, size=m, replace=False)
    eye = np.eye(d)[np.sort(axes)]
    return LowRankProjection(np.ones(m), eye.copy(), eye.copy())

