"""Central finite-difference oracle shared by the gradient tests."""

import numpy as np

from kgvec.model import RELATION_TYPES, ModelConfig

FD_STEP = 1e-5
REL_TOL = 1e-4


def central_difference(loss_fn, array, i, step=FD_STEP):
    flat = array.reshape(-1)
    old = flat[i]
    flat[i] = old + step
    up = loss_fn()
    flat[i] = old - step
    down = loss_fn()
    flat[i] = old
    return (up - down) / (2 * step)


def assert_grad_matches(loss_fn, array, grad, tol=REL_TOL, step=FD_STEP):
    """Every coordinate of ``grad`` must match the central difference of
    ``loss_fn`` w.r.t. ``array`` within relative tolerance (floored at 1)."""
    grad = np.asarray(grad).reshape(-1)
    for i in range(grad.size):
        numeric = central_difference(loss_fn, array, i, step)
        denom = max(1.0, abs(numeric), abs(grad[i]))
        assert abs(numeric - grad[i]) <= tol * denom, (
            f"coordinate {i}: analytic {grad[i]!r} vs numeric {numeric!r}"
        )


def param_grad_pairs(params, grads):
    """(parameter array, gradient array) pairs over the relation's view."""
    return list(zip(params.arrays().values(), grads))


def random_relation_params(variant, d, rng):
    """Generic-position parameters (denser than the training init) so the
    finite-difference probe sits away from kinks.  Every array of the view
    is redrawn; a TransH normal is then renormalised to unit length."""
    cfg = ModelConfig(
        variant=variant,
        dim=d,
        head_rank=max(1, d // 2),
        tail_rank=max(1, d - 1),
    )
    params = RELATION_TYPES[variant].init(cfg, rng)
    for array in params.arrays().values():
        array[:] = rng.standard_normal(array.shape)
    params.renormalize()
    return cfg, params
