"""Computed (not measured) operation and byte counts per kernel call.

Counts follow the arithmetic the kernels in kgvec.model spell out: a
length-d dot product is 2d FLOPs, a d x d matrix-vector product 2d^2, an
element-wise vector operation d.  Bytes are the float64 operands a call
must read plus the gradients it writes, each touched once.  Low-order terms
(logistics, clips, scalars) are left out.
"""

from __future__ import annotations

F64 = 8


def skipgram(d: int, k: int) -> tuple[float, float]:
    """FLOPs and bytes of one ``skipgram_ns_loss_grad`` with k negatives.

    Logits 2d + 2kd, context and negative gradients d + kd, center gradient
    d + 2kd + d.
    """
    flops = 5 * d + 5 * k * d
    bytes_ = 2 * (k + 2) * d * F64
    return float(flops), float(bytes_)


def _apply(m: int, d: int) -> int:
    # in_factors @ v, weights *, @ out_factors
    return 4 * m * d + m


def _score(variant: str, d: int, mh: int, mt: int) -> int:
    if variant == "lowrank":
        return _apply(mh, d) + _apply(mt, d) + 4 * d
    if variant == "transe":
        return 4 * d
    if variant == "transh":
        return 12 * d
    if variant == "se":
        return 4 * d * d + 3 * d
    if variant == "transr":
        return 2 * d * d + 4 * d
    raise ValueError(variant)


def _gradient(variant: str, d: int, mh: int, mt: int) -> int:
    """FLOPs an active hinge adds after the two scores."""
    if variant == "lowrank":
        residuals = 2 * (_apply(mh, d) + _apply(mt, d) + 2 * d)
        # in/out projections of both sides (4 m d each), outer-product factor
        # gradients (10 m d per side), four transposed applies.
        factors = (8 + 10) * (mh + mt) * d
        transposed = 2 * _apply(mh, d) + 2 * _apply(mt, d)
        return residuals + factors + transposed + 6 * d
    if variant == "transe":
        return 10 * d
    if variant == "transh":
        return 50 * d
    if variant == "se":
        return 22 * d * d
    if variant == "transr":
        return 16 * d * d
    raise ValueError(variant)


def _param_elements(variant: str, d: int, mh: int, mt: int) -> int:
    return {
        "lowrank": (mh + mt) * (2 * d + 1),
        "transe": 0,
        "transh": d,
        "se": 2 * d * d,
        "transr": d * d,
    }[variant]


def knowledge(variant: str, d: int, mh: int, mt: int, active_ratio: float) -> tuple[float, float]:
    """Expected FLOPs and bytes of one ``knowledge_loss_grad`` call.

    Every call scores the golden and the corrupted triple; an active hinge
    then computes the gradients, and an inactive one still writes a zero
    gradient tree of the parameter's size.
    """
    flops = 2 * _score(variant, d, mh, mt) + active_ratio * _gradient(variant, d, mh, mt)
    params = _param_elements(variant, d, mh, mt)
    # read 5 vectors and the parameters; write 5 vector gradients and a
    # parameter-shaped gradient tree.
    bytes_ = (10 * d + 2 * params) * F64
    return float(flops), float(bytes_)


def cosadd_bytes(rows: int, d: int) -> float:
    """Bytes of the embedding table one 3CosAdd question scans: |V| d 8."""
    return float(rows * d * F64)
