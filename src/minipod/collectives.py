"""BN replica groups, deterministic all-reduce, and batch padding.

Replicas are simulated workers indexed 0..N-1, laid out row-major on a
logical 2D grid. BN groups are one [G, S] int array: row g lists the S
replicas of group g in ascending order, and the rows partition 0..N-1.
The all-reduce here is functional (exact values, no transport); its cost is
modeled separately in :mod:`minipod.perfmodel`.
"""

from __future__ import annotations

import math

import numpy as np

BATCH_PAD_MULTIPLE = 8


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


def assign_groups_2d(num_replicas: int, tile: tuple[int, int],
                     grid: tuple[int, int] | None = None) -> np.ndarray:
    """Group replicas by rectangular tiles of the row-major replica grid.

    The grid defaults to most_square_grid(num_replicas). Tiles are numbered
    row-major, and each row of the result lists its tile's replicas in
    ascending order. Intended for group sizes above 16, where contiguous 1D
    blocks would span too far across the grid.
    """
    if num_replicas < 1:
        raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
    rows, cols = most_square_grid(num_replicas) if grid is None else grid
    if rows * cols != num_replicas:
        raise ValueError(f"grid {rows}x{cols} does not hold {num_replicas} replicas")
    tr, tc = tile
    if tr < 1 or tc < 1 or rows % tr != 0 or cols % tc != 0:
        raise ValueError(f"tile {tr}x{tc} must evenly divide grid {rows}x{cols}")
    # [tile row, row in tile, tile column, column in tile] -> [tile, member]
    return (np.arange(num_replicas).reshape(rows // tr, tr, cols // tc, tc)
            .transpose(0, 2, 1, 3).reshape(-1, tr * tc))


def all_reduce(per_replica: np.ndarray, op: str = "sum") -> np.ndarray:
    """Reduce one scope's [members, *shape] array over its leading member axis.

    per_replica[i] is member i's tensor: a stacked [N, *shape] gradient, or
    [group size, G, C] sums that reduce every BN group at once. Every
    participant would receive the same tensor, so it is handed back a single
    time. The reduction adds one member at a time in ascending order, so the
    result is bit-deterministic; ndarray.sum over the axis would choose its
    own summation order.
    """
    if op not in ("sum", "mean"):
        raise ValueError(f"unsupported reduce op {op!r}")
    acc = per_replica[0].copy()
    for t in per_replica[1:]:
        acc += t
    if op == "mean":
        acc /= acc.dtype.type(len(per_replica))
    return acc


def padded_batch_utilization(per_core_batch: int) -> tuple[int, float]:
    """Padded batch (next multiple of eight) and the fraction of it that is real."""
    if per_core_batch < 1:
        raise ValueError(f"per-core batch must be >= 1, got {per_core_batch}")
    padded = BATCH_PAD_MULTIPLE * math.ceil(per_core_batch / BATCH_PAD_MULTIPLE)
    return padded, per_core_batch / padded
