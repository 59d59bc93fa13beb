"""Batch normalization with statistics shared across a group of replicas.

Replicas are simulated workers indexed 0..N-1, laid out row-major on the
most-square 2D grid. BN groups are one [G, S] int array: row g lists the S
replicas of group g, and the rows partition 0..N-1. assign_groups_1d builds
contiguous blocks of replica ids and assign_groups_2d rectangular tiles of
the grid, each row in ascending order.

Activations arrive stacked, [N, b, H, W, C], together with the groups. Mean
and variance are computed per channel over every sample and spatial
position of every replica in the group (population variance, divisor
S*b*H*W), so a group spanning all replicas is numerically equivalent to
single-device BN over the concatenated batch.

Each pass makes one deterministic all-reduce from :mod:`minipod.collectives`,
which reduces every group at once over the member axis, in ascending replica
order. In forward, replica r sums its M = b*H*W rows around a shift K_r taken
from its own data (its first row), S1 = sum(x - K_r) and S2 = sum((x - K_r)^2),
each as one [1, M] @ [M, C] product. Its count, mean and sum of squared
deviations are then n_r = M, mean_r = K_r + S1/M and M2_r = S2 - S1*S1/M, in
float64. The group adds n_r*mean_r and M2_r + n_r*mean_r^2 and takes

    mean = sum(n_r*mean_r) / n,   var = sum(M2_r + n_r*mean_r^2) / n - mean^2,

the one-reduction form of the pairwise update of Chan, Golub & LeVeque
(1979). Only the spread of the replica means cancels, and in float64: at a
mean m and spread s the loss is about (m/s)^2 * 1e-16 of the variance, below
what rounding the inputs to float32 already costs it. Forward keeps the
normalized activations xhat = (x - mean) * inv and inv = 1/sqrt(var + eps)
for backward, which sums grad_y and grad_y * xhat per replica in one [N, 2, C]
array and all-reduces it once. The gamma/beta gradients come back per
replica, [N, C], like every parameter gradient in :mod:`minipod.nn`: each
replica holds its group's sum divided by S, so the all-replica sum of those
shares is the sum over groups. Per-channel values are applied over wide rows,
[N, b*H, W*C], with the [C] values tiled across W.

Because only distbn maps replicas to groups, it also plans how the engine
splits a step, and an eval pass its rows as groups of one row: plan_chunks
cuts the [G, S] array into runs of consecutive whole groups that fit a byte
budget, and gives each chunk its replicas as an ascending index array and
its groups renumbered from 0 within the chunk.
A kernel call on a chunk then sees an N of the chunk's replicas and a G of
its groups, so the engine makes one all-reduce per pass and chunk; each
group still adds its members in ascending replica order, so its statistics
keep their bytes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .collectives import all_reduce

# The paper's fixed BN momentum and epsilon, which the engine and trainer
# use; the kernels take them as arguments.
DEFAULT_MOMENTUM = 0.99
DEFAULT_EPS = 1e-3


def most_square_grid(n: int) -> tuple[int, int]:
    """Most-square factorization r*c == n with r <= c."""
    r = int(math.isqrt(n))
    while n % r != 0:
        r -= 1
    return (r, n // r)


def assign_groups_1d(num_replicas: int, group_size: int) -> np.ndarray:
    """Contiguous blocks: group g holds replicas g*group_size .. (g+1)*group_size - 1."""
    if group_size < 1 or num_replicas % group_size != 0:
        raise ValueError(
            f"group_size {group_size} must divide num_replicas {num_replicas}"
        )
    return np.arange(num_replicas).reshape(-1, group_size)


def assign_groups_2d(num_replicas: int, tile: tuple[int, int]) -> np.ndarray:
    """Group replicas by rectangular tiles of most_square_grid(num_replicas).

    Tiles are numbered row-major, and each row of the result lists its
    tile's replicas in ascending order. Intended for group sizes above 16,
    where contiguous 1D blocks would span too far across the grid.
    """
    if num_replicas < 1:
        raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
    rows, cols = most_square_grid(num_replicas)
    tr, tc = tile
    if tr < 1 or tc < 1 or rows % tr != 0 or cols % tc != 0:
        raise ValueError(f"tile {tr}x{tc} must evenly divide grid {rows}x{cols}")
    # [tile row, row in tile, tile column, column in tile] -> [tile, member]
    return (np.arange(num_replicas).reshape(rows // tr, tr, cols // tc, tc)
            .transpose(0, 2, 1, 3).reshape(-1, tr * tc))


def _partition(groups, n):
    """The [G, S] groups as an index array, checked to split 0..n-1."""
    try:
        idx = np.asarray(groups)
    except ValueError:  # rows of unequal length
        idx = np.empty(0)
    if idx.ndim != 2 or not np.array_equal(np.sort(idx, axis=None), np.arange(n)):
        raise ValueError(
            f"BN groups {groups} must split replicas 0..{n - 1} into equal groups")
    return idx.astype(np.intp, copy=False)


class Chunk(NamedTuple):
    """Consecutive whole groups that one engine walk computes together."""

    replicas: np.ndarray  # the chunk's replicas, ascending
    groups: np.ndarray  # [g, S] its groups, numbered within `replicas`
    rows: slice  # its rows of the [G, S] group array


def plan_chunks(groups, n: int, replica_bytes: int, budget: int) -> list[Chunk]:
    """Split the [G, S] groups of replicas 0..n-1 into chunks of consecutive
    rows: as many whole groups as keep the chunk's replicas * replica_bytes
    within budget, and at least one."""
    idx = _partition(groups, n)
    size = idx.shape[1] * max(replica_bytes, 1)
    per_chunk = max(1, budget // size)
    chunks = []
    for g0 in range(0, len(idx), per_chunk):
        rows = slice(g0, min(g0 + per_chunk, len(idx)))
        members = np.sort(idx[rows], axis=None)
        chunks.append(Chunk(members, np.searchsorted(members, idx[rows]), rows))
    return chunks


def _groups(x, groups):
    """Checks a stacked BN input and its [G, S] groups; returns the groups as
    an index array and each replica's group id."""
    if x.ndim != 5:
        raise ValueError(f"BN input must be [N, b, H, W, C], got {x.shape}")
    if x.shape[1] < 1:
        raise ValueError("BN batch must be non-empty")
    n = x.shape[0]
    idx = _partition(groups, n)
    group_of = np.empty(n, dtype=np.intp)
    group_of[idx] = np.arange(len(idx))[:, None]
    return idx, group_of


def _wide(x):
    # [N, b, H, W, C] -> [N, b*H, W*C]: per-channel values broadcast over rows
    # of W*C elements instead of C.
    return x.reshape(x.shape[0], -1, x.shape[3] * x.shape[4])


def _tiled(t, w):
    # [..., C] per-channel values -> [..., 1, W*C], matching a wide row
    return np.tile(t, w)[..., None, :]


def _channel_sums(a, c):
    # [N, ...] holding M rows of C channels per replica -> [N, C]: one
    # [1, M] @ [M, C] product per replica
    rows = a.reshape(len(a), -1, c)
    return (np.ones((1, rows.shape[1]), a.dtype) @ rows)[:, 0]


def group_bn_forward(x: np.ndarray, groups, gamma: np.ndarray,
                     beta: np.ndarray, eps: float):
    """Normalize [N, b, H, W, C] activations with the statistics of each
    replica's group; `groups` is the [G, S] replica array.

    Returns (y, mean, var, xhat, inv): the statistics [G, C] in group order,
    which the moving-statistics update consumes, then the normalized input
    [N, b, H, W, C] and 1/sqrt(var + eps) [G, C], which group_bn_backward
    consumes.
    """
    idx, group_of = _groups(x, groups)
    _, b, h, w, c = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(
            f"gamma {gamma.shape} and beta {beta.shape} must be [{c}]")
    m = b * h * w
    shift = x[:, 0, 0, 0, :]  # K_r: [N, C]
    xs = _wide(x) - _tiled(shift, w)
    s1 = _channel_sums(xs, c).astype(np.float64)
    s2 = _channel_sums(np.multiply(xs, xs, out=xs), c).astype(np.float64)
    d = s1 / m
    local_mean = shift + d
    m2 = s2 - s1 * d
    moments = np.stack([m * local_mean, m2 + m * local_mean * local_mean], axis=1)
    total = all_reduce(moments[idx.T], "sum") / (idx.shape[1] * m)  # [G, 2, C]
    mean64 = total[:, 0]
    mean = mean64.astype(x.dtype)
    # Rounding can leave a constant channel's variance a hair below zero.
    var = np.maximum(total[:, 1] - mean64 * mean64, 0.0).astype(x.dtype)
    inv = 1.0 / np.sqrt(var + eps)
    scale = (gamma * inv).astype(x.dtype)
    xhat = np.subtract(_wide(x), _tiled(mean[group_of], w), out=xs)
    y = xhat * _tiled(scale[group_of], w)
    y += _tiled(beta, w)
    xhat *= _tiled(inv[group_of], w)
    return y.reshape(x.shape), mean, var, xhat.reshape(x.shape), inv


def group_bn_backward(
    xhat: np.ndarray,
    inv: np.ndarray,
    grad_y: np.ndarray,
    groups,
    gamma: np.ndarray,
):
    """Gradients of group_bn_forward, treating the shared statistics as
    functions of all group inputs; xhat and inv are what forward returned.

    Returns (grad_x, grad_gamma, grad_beta). grad_gamma and grad_beta are per
    replica, [N, C]: each replica's group sum divided by the group size.
    """
    idx, group_of = _groups(xhat, groups)
    if grad_y.shape != xhat.shape:
        raise ValueError(f"grad_y shape {grad_y.shape} != input shape {xhat.shape}")
    _, b, h, w, c = xhat.shape
    count = inv.dtype.type(idx.shape[1] * b * h * w)
    prod = _wide(grad_y) * _wide(xhat)
    sums = np.stack([_channel_sums(grad_y, c), _channel_sums(prod, c)], axis=1)
    total = all_reduce(sums[idx.T], "sum")  # [G, 2, C]
    dbeta, dgamma = total[:, 0], total[:, 1]
    coef = (gamma * inv).astype(inv.dtype)
    grad_x = _wide(grad_y) - _tiled((dbeta / count)[group_of], w)
    grad_x -= np.multiply(_wide(xhat), _tiled((dgamma / count)[group_of], w), out=prod)
    grad_x *= _tiled(coef[group_of], w)
    gsize = total.dtype.type(idx.shape[1])
    return (grad_x.reshape(xhat.shape), (dgamma / gsize)[group_of],
            (dbeta / gsize)[group_of])


def update_moving_stats(
    moving_mean: np.ndarray,
    moving_var: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    momentum: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Blend one layer's [G, C] group statistics into its moving statistics.

    The groups are averaged in ascending group id, by one all-reduce mean;
    then moving <- momentum * moving + (1 - momentum) * average. Groups are of
    equal size, so the averaged mean is that of the whole replica set. The
    averaged variance is not: it is the mean of the within-group variances
    and leaves out the spread of the group means, so with more than one
    group it can fall short of the whole set's variance. Returns the new
    (moving_mean, moving_var).
    """
    if means.shape[1:] != moving_mean.shape or variances.shape != means.shape:
        raise ValueError(
            f"saved stats shapes {means.shape}, {variances.shape} do not match "
            f"[G, {moving_mean.shape[0]}]")
    mean, var = all_reduce(np.stack([means, variances], axis=1), "mean")
    return ((momentum * moving_mean + (1.0 - momentum) * mean).astype(moving_mean.dtype),
            (momentum * moving_var + (1.0 - momentum) * var).astype(moving_var.dtype))


def bn_inference(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                 moving_mean: np.ndarray, moving_var: np.ndarray,
                 eps: float) -> np.ndarray:
    """Normalize [N, b, H, W, C] with the moving statistics (evaluation
    path), as one per-channel affine: x * scale + shift."""
    scale = gamma * (1.0 / np.sqrt(moving_var + eps))
    shift = beta - moving_mean * scale
    w = x.shape[3]
    y = _wide(x) * _tiled(scale, w)
    y += _tiled(shift, w)
    return y.reshape(x.shape)
