#!/usr/bin/env python3
"""Replica grids, BN groups as [groups, group size] replica arrays (1D
blocks and 2D tiles), the deterministic all-reduce, and batch-padding
utilization.
"""

import numpy as np

from minipod.collectives import all_reduce
from minipod.distbn import (
    assign_groups_1d,
    assign_groups_2d,
    group_bn_forward,
    most_square_grid,
)
from minipod.perfmodel import padded_batch_utilization

print("1D contiguous groups, 8 replicas in groups of 4:")
print(" ", assign_groups_1d(8, 4).tolist())

rows, cols = most_square_grid(16)  # the default grid: 4x4
print(f"\n16 replicas on a {rows}x{cols} grid, 2x2 tiles:")
for gid, members in enumerate(assign_groups_2d(16, (2, 2))):
    print(f"  group {gid}: {members.tolist()}")

print("\nall-reduce is exact and order-fixed (ascending replica index):")
vals = np.arange(1.0, 5.0, dtype=np.float32)  # one value per replica
members = assign_groups_1d(4, 2)  # [groups, group size]
# one call reduces every group over the leading member axis: [2, groups]
out = all_reduce(vals[members.T], "mean")
print("  per-group mean of [1,2,3,4] in groups of 2:", out.tolist())

print("\ngroup BN: statistics span every sample of every group member")
rng = np.random.default_rng(0)
xs = rng.standard_normal((4, 4, 2, 2, 1)).astype(np.float32)  # [replicas, batch, H, W, C]
gamma, beta = np.ones(1, np.float32), np.zeros(1, np.float32)
_, mean, var, _, _ = group_bn_forward(xs, assign_groups_1d(4, 4), gamma, beta, eps=1e-3)
concat = xs.reshape(16, 2, 2, 1)
print(f"  group of 4 x batch 4 -> mean {float(mean[0, 0]):+.5f} "
      f"(concat oracle {float(concat.mean()):+.5f})")
print(f"  BN batch size = 4 replicas x 4 samples = 16")

print("\nbatch padding to a multiple of eight:")
for b in (4, 8, 9, 12, 32):
    padded, util = padded_batch_utilization(b)
    print(f"  per-core batch {b:3d} -> padded {padded:3d}, "
          f"utilization {util:.3f}")
