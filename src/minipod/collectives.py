"""Deterministic all-reduce.

The all-reduce here is functional (exact values, no transport); its cost is
modeled separately in :mod:`minipod.perfmodel`, and the BN groups it reduces
over are laid out by :mod:`minipod.distbn`.
"""

from __future__ import annotations

import numpy as np


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
