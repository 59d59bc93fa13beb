"""Batch normalization with statistics shared across a group of replicas.

Activations arrive stacked, [N, b, H, W, C], together with the replica
groups. Mean and variance are computed per channel over every sample and
spatial position of every replica in the group (population variance, divisor
group size * b*H*W), so a group spanning all replicas is numerically
equivalent to single-device BN over the concatenated batch. Each replica sums
its own batch ([N, C]); one deterministic all-reduce from
:mod:`minipod.collectives` then reduces every group at once over the member
axis, in ascending replica order. The forward pass reduces twice: the sums
that give the mean, then the sums of squares around that mean, which stay
accurate when the mean is large next to the spread.
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


def _groups(x, members):
    """Checks a stacked BN input; returns the groups as a [G, group size]
    replica-index array and each replica's group id."""
    if x.ndim != 5:
        raise ValueError(f"BN input must be [N, b, H, W, C], got {x.shape}")
    if x.shape[1] < 1:
        raise ValueError("BN batch must be non-empty")
    n = x.shape[0]
    if len({len(m) for m in members}) != 1 or not np.array_equal(
            np.sort(members, axis=None), np.arange(n)):
        raise ValueError(
            f"BN groups {members} must split replicas 0..{n - 1} into equal groups")
    idx = np.array(members, dtype=np.intp)
    group_of = np.empty(n, dtype=np.intp)
    group_of[idx] = np.arange(len(idx))[:, None]
    return idx, group_of


def _per_replica(t, group_of):
    # [G, C] group values -> [N, 1, 1, 1, C], broadcastable over each replica
    return t[group_of][:, None, None, None, :]


def _group_sum(per_replica, idx):
    # [N, C] -> [G, C]: one all-reduce over the member axis ([group size, G, C])
    return all_reduce(per_replica[idx.T], "sum")


def group_bn_forward(x: np.ndarray, members, state: BnState):
    """Normalize [N, b, H, W, C] activations with the statistics of each
    replica's group; `members` lists each group's replicas.

    Returns (y, saved_mean, saved_var), the statistics [G, C] in group order;
    they are what the backward pass and the moving-statistics update consume.
    """
    idx, group_of = _groups(x, members)
    _, b, h, w, _ = x.shape
    count = idx.shape[1] * b * h * w
    # Two passes: the mean, then the sum of squares around it. The mean's
    # sums accumulate in float64 so that a large mean keeps its low digits.
    total = _group_sum(x.sum(axis=(1, 2, 3), dtype=np.float64), idx)
    mean = (total / count).astype(x.dtype)
    xc = x - _per_replica(mean, group_of)
    var = _group_sum((xc * xc).sum(axis=(1, 2, 3)), idx) / mean.dtype.type(count)
    inv = 1.0 / np.sqrt(var + state.eps)
    scale = (state.gamma * inv).astype(mean.dtype)
    y = xc * _per_replica(scale, group_of) + state.beta
    return y, mean, var


def group_bn_backward(
    x: np.ndarray,
    grad_y: np.ndarray,
    members,
    saved_mean: np.ndarray,
    saved_var: np.ndarray,
    state: BnState,
):
    """Gradients of group_bn_forward, treating the shared statistics as
    functions of all group inputs.

    grad_gamma/grad_beta are [G, C], each reduced over its whole group;
    callers that need per-replica contributions divide by the group size.
    """
    idx, group_of = _groups(x, members)
    if grad_y.shape != x.shape:
        raise ValueError(f"grad_y shape {grad_y.shape} != input shape {x.shape}")
    _, b, h, w, _ = x.shape
    count = saved_mean.dtype.type(idx.shape[1] * b * h * w)
    inv = 1.0 / np.sqrt(saved_var + state.eps)
    xhat = (x - _per_replica(saved_mean, group_of)) * _per_replica(inv, group_of)
    dbeta = _group_sum(grad_y.sum(axis=(1, 2, 3)), idx)
    dgamma = _group_sum((grad_y * xhat).sum(axis=(1, 2, 3)), idx)
    coef = (state.gamma * inv).astype(saved_mean.dtype)
    grad_x = _per_replica(coef, group_of) * (
        grad_y - _per_replica(dbeta / count, group_of)
        - xhat * _per_replica(dgamma / count, group_of))
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
