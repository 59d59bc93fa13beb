"""Simulated replica topology, BN group assignment, and deterministic all-reduce.

Replicas are simulated workers indexed 0..N-1, laid out on a logical 2D grid.
The all-reduce here is functional (exact values, no transport); its cost is
modeled separately in :mod:`minipod.perfmodel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BATCH_PAD_MULTIPLE = 8


@dataclass(frozen=True)
class ReplicaTopology:
    """Logical replica grid: num_replicas workers arranged as rows x cols."""

    num_replicas: int
    grid: tuple[int, int] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {self.num_replicas}")
        if self.grid is None:
            object.__setattr__(self, "grid", most_square_grid(self.num_replicas))
        r, c = self.grid
        if r * c != self.num_replicas:
            raise ValueError(
                f"grid {r}x{c} does not hold {self.num_replicas} replicas"
            )

    @property
    def rows(self) -> int:
        return self.grid[0]

    @property
    def cols(self) -> int:
        return self.grid[1]


def most_square_grid(n: int) -> tuple[int, int]:
    """Most-square factorization r*c == n with r <= c."""
    r = int(math.isqrt(n))
    while n % r != 0:
        r -= 1
    return (r, n // r)


@dataclass(frozen=True)
class GroupAssignment:
    """Partition of replicas 0..N-1 into equally sized BN groups.

    group_of maps replica index -> group id; members maps group id -> sorted
    replica list. Every group has exactly group_size members.
    """

    num_replicas: int
    group_size: int
    group_of: tuple[int, ...]
    members: tuple[tuple[int, ...], ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.members is None:
            num_groups = self.num_replicas // self.group_size
            buckets: list[list[int]] = [[] for _ in range(num_groups)]
            for rep, g in enumerate(self.group_of):
                if not 0 <= g < num_groups:
                    raise ValueError(
                        f"group id {g} outside 0..{num_groups - 1}; groups must "
                        "partition the replica set")
                buckets[g].append(rep)
            object.__setattr__(
                self, "members", tuple(tuple(sorted(b)) for b in buckets)
            )
        self._validate()

    def _validate(self):
        n, g = self.num_replicas, self.group_size
        if len(self.group_of) != n:
            raise ValueError("group_of must cover every replica")
        seen: set[int] = set()
        for group in self.members:
            if len(group) != g:
                raise ValueError(
                    f"every group must have exactly {g} members, got {len(group)}"
                )
            seen.update(group)
        if seen != set(range(n)):
            raise ValueError("groups must partition the replica set")

    @property
    def num_groups(self) -> int:
        return len(self.members)


def assign_groups_1d(num_replicas: int, group_size: int) -> GroupAssignment:
    """Contiguous-block grouping: replica i joins group i // group_size."""
    if group_size < 1 or num_replicas % group_size != 0:
        raise ValueError(
            f"group_size {group_size} must divide num_replicas {num_replicas}"
        )
    group_of = tuple(i // group_size for i in range(num_replicas))
    return GroupAssignment(num_replicas, group_size, group_of)


def assign_groups_2d(
    topology: ReplicaTopology, tile: tuple[int, int]
) -> GroupAssignment:
    """Group replicas by rectangular tiles of the row-major replica grid.

    Intended for group sizes above 16, where contiguous 1D blocks would span
    too far across the grid.
    """
    rows, cols = topology.grid
    tr, tc = tile
    if tr < 1 or tc < 1 or rows % tr != 0 or cols % tc != 0:
        raise ValueError(f"tile {tr}x{tc} must evenly divide grid {rows}x{cols}")
    tiles_per_row = cols // tc
    group_of = []
    for rep in range(topology.num_replicas):
        r, c = divmod(rep, cols)
        group_of.append((r // tr) * tiles_per_row + (c // tc))
    return GroupAssignment(topology.num_replicas, tr * tc, tuple(group_of))


def all_reduce(per_replica, op: str = "sum") -> np.ndarray:
    """Reduce over the leading member axis of one scope; returns the result once.

    per_replica[i] is member i's tensor: pass one array whose first axis is
    the member axis (a stacked [N, *shape] gradient, or [group size, G, C]
    sums that reduce every BN group at once), or a list of equal-shape
    arrays. Every participant would receive the same tensor, so it is handed
    back a single time. The reduction adds one member at a time in ascending
    order, so the result is bit-deterministic; ndarray.sum over the axis
    would choose its own summation order.
    """
    if op not in ("sum", "mean"):
        raise ValueError(f"unsupported reduce op {op!r}")
    shape = per_replica[0].shape
    for i, t in enumerate(per_replica):
        if t.shape != shape:
            raise ValueError(
                f"all_reduce shape mismatch: replica 0 has {shape}, "
                f"replica {i} has {t.shape}"
            )
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
