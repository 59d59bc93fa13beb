"""Batch normalization with statistics shared across a group of replicas.

Mean and variance are computed per channel over every sample and spatial
position of every replica in the group (population variance, divisor
G*b*H*W), so a group spanning all replicas is numerically equivalent to
single-device BN over the concatenated batch. Cross-replica sums go through
the deterministic all-reduce in :mod:`minipod.collectives`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collectives import all_reduce

DEFAULT_MOMENTUM = 0.99
DEFAULT_EPS = 1e-3


@dataclass
class BnState:
    """Per-channel affine parameters and moving statistics."""

    gamma: np.ndarray
    beta: np.ndarray
    moving_mean: np.ndarray
    moving_var: np.ndarray
    momentum: float = DEFAULT_MOMENTUM
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        c = self.gamma.shape
        for name in ("beta", "moving_mean", "moving_var"):
            if getattr(self, name).shape != c:
                raise ValueError(f"BnState.{name} shape differs from gamma {c}")
        if (self.moving_var < 0).any():
            raise ValueError("moving_var must be elementwise >= 0")
        if not 0.0 < self.momentum < 1.0 and self.momentum not in (0.0, 1.0):
            raise ValueError(f"momentum must lie in [0, 1], got {self.momentum}")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")


def init_bn_state(
    channels: int,
    momentum: float = DEFAULT_MOMENTUM,
    eps: float = DEFAULT_EPS,
    dtype=np.float32,
) -> BnState:
    return BnState(
        gamma=np.ones(channels, dtype=dtype),
        beta=np.zeros(channels, dtype=dtype),
        moving_mean=np.zeros(channels, dtype=dtype),
        moving_var=np.ones(channels, dtype=dtype),
        momentum=momentum,
        eps=eps,
    )


def bn_batch_size(group_size: int, per_core_batch: int) -> int:
    """Number of samples feeding one set of BN statistics."""
    return group_size * per_core_batch


def _check_group(x_per_replica):
    if not x_per_replica:
        raise ValueError("BN group must contain at least one replica")
    shape = x_per_replica[0].shape
    for i, x in enumerate(x_per_replica):
        if x.ndim != 4:
            raise ValueError(f"BN input must be [b,H,W,C], got {x.shape}")
        if x.shape != shape:
            raise ValueError(
                f"BN shape mismatch within group: replica 0 has {shape}, "
                f"replica {i} has {x.shape}"
            )
    if shape[0] < 1:
        raise ValueError("BN batch must be non-empty")
    return shape


def group_bn_forward(x_per_replica: list[np.ndarray], state: BnState):
    """Normalize each replica's activations with group-shared statistics.

    Returns (y_per_replica, saved_mean, saved_var); the saved statistics are
    what the backward pass and the moving-statistics update consume.
    """
    b, h, w, c = _check_group(x_per_replica)
    sums = [x.sum(axis=(0, 1, 2)) for x in x_per_replica]
    sqsums = [(x * x).sum(axis=(0, 1, 2)) for x in x_per_replica]
    total = all_reduce(sums, "sum")
    sqtotal = all_reduce(sqsums, "sum")
    count = total.dtype.type(len(x_per_replica) * b * h * w)
    mean = total / count
    var = np.maximum(sqtotal / count - mean * mean, 0)
    inv = 1.0 / np.sqrt(var + state.eps)
    scale = (state.gamma * inv).astype(mean.dtype)
    ys = [(x - mean) * scale + state.beta for x in x_per_replica]
    return ys, mean, var


def group_bn_backward(
    x_per_replica: list[np.ndarray],
    grad_y_per_replica: list[np.ndarray],
    saved_mean: np.ndarray,
    saved_var: np.ndarray,
    state: BnState,
):
    """Gradients of group_bn_forward, treating the shared statistics as
    functions of all group inputs.

    grad_gamma/grad_beta are reduced over the whole group; callers that need
    per-replica contributions divide by the group size.
    """
    b, h, w, c = _check_group(x_per_replica)
    if len(grad_y_per_replica) != len(x_per_replica):
        raise ValueError("grad_y list length differs from input list")
    for x, g in zip(x_per_replica, grad_y_per_replica):
        if g.shape != x.shape:
            raise ValueError(f"grad_y shape {g.shape} != input shape {x.shape}")
    count = saved_mean.dtype.type(len(x_per_replica) * b * h * w)
    inv = 1.0 / np.sqrt(saved_var + state.eps)
    xhats = [(x - saved_mean) * inv for x in x_per_replica]
    dbeta_parts = [g.sum(axis=(0, 1, 2)) for g in grad_y_per_replica]
    dgamma_parts = [
        (g * xh).sum(axis=(0, 1, 2)) for g, xh in zip(grad_y_per_replica, xhats)
    ]
    dbeta = all_reduce(dbeta_parts, "sum")
    dgamma = all_reduce(dgamma_parts, "sum")
    coef = (state.gamma * inv).astype(saved_mean.dtype)
    grad_x = [
        coef * (g - dbeta / count - xh * (dgamma / count))
        for g, xh in zip(grad_y_per_replica, xhats)
    ]
    return grad_x, dgamma, dbeta


def update_moving_stats(
    state: BnState, saved_mean: np.ndarray, saved_var: np.ndarray
) -> BnState:
    """moving <- momentum * moving + (1 - momentum) * saved, as a new state."""
    if saved_mean.shape != state.moving_mean.shape:
        raise ValueError(
            f"saved stats shape {saved_mean.shape} != state {state.moving_mean.shape}"
        )
    m = state.momentum
    return BnState(
        gamma=state.gamma,
        beta=state.beta,
        moving_mean=(m * state.moving_mean + (1.0 - m) * saved_mean).astype(
            state.moving_mean.dtype
        ),
        moving_var=(m * state.moving_var + (1.0 - m) * saved_var).astype(
            state.moving_var.dtype
        ),
        momentum=state.momentum,
        eps=state.eps,
    )


def bn_inference(x: np.ndarray, state: BnState) -> np.ndarray:
    """Normalize with the moving statistics (evaluation path)."""
    inv = 1.0 / np.sqrt(state.moving_var + state.eps)
    return (x - state.moving_mean) * (state.gamma * inv) + state.beta
