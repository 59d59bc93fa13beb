"""Replica grids and BN group arrays (distbn), all-reduce (collectives), and
batch padding (perfmodel) tests."""

import numpy as np
import pytest

from minipod.collectives import all_reduce
from minipod.distbn import assign_groups_1d, assign_groups_2d, most_square_grid
from minipod.perfmodel import padded_batch_utilization


def test_topology_default_grid_most_square():
    assert most_square_grid(16) == (4, 4)
    assert most_square_grid(8) == (2, 4)
    assert most_square_grid(1024) == (32, 32)
    assert most_square_grid(7) == (1, 7)


@pytest.mark.parametrize("n,g,expected", [
    (8, 8, [tuple(range(8))]),
    (8, 1, [(i,) for i in range(8)]),
    (8, 4, [(0, 1, 2, 3), (4, 5, 6, 7)]),
])
def test_assign_groups_1d(n, g, expected):
    assert assign_groups_1d(n, g).tolist() == [list(m) for m in expected]


def test_assign_groups_1d_non_divisor():
    with pytest.raises(ValueError, match="divide"):
        assign_groups_1d(8, 3)


def test_assign_groups_2d_tiling():
    assert assign_groups_2d(16, (2, 2)).tolist() == [
        [0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]]


def test_assign_groups_2d_degenerate_tiles():
    assert assign_groups_2d(16, (4, 4)).tolist() == [list(range(16))]
    assert assign_groups_2d(16, (1, 1)).tolist() == [[i] for i in range(16)]


def test_assign_groups_2d_non_divisor_tile():
    with pytest.raises(ValueError, match="tile"):
        assign_groups_2d(16, (3, 2))


@pytest.mark.parametrize("n,g", [(8, 2), (8, 8), (12, 4), (16, 1)])
def test_group_partition_invariants(n, g):
    groups = assign_groups_1d(n, g)
    assert groups.shape == (n // g, g)
    assert sorted(groups.ravel().tolist()) == list(range(n))


@pytest.mark.parametrize("n,g", [(8, 2), (8, 4), (6, 3)])
def test_2d_rowtile_on_flat_grid_equals_1d(n, g):
    # 1 x g tiles of the default grid are contiguous blocks of g replicas
    # whenever g divides its row length.
    flat = assign_groups_2d(n, (1, g))
    assert flat.tolist() == assign_groups_1d(n, g).tolist()


@pytest.mark.parametrize("n,grid,tile", [
    (16, (4, 4), (2, 2)), (8, (2, 4), (1, 2)), (8, (2, 4), (2, 2)),
    (64, None, (4, 8))])
def test_assign_groups_2d_matches_loop_oracle(n, grid, tile):
    # Replica (r, c) of the row-major grid is in tile (r // tr, c // tc),
    # numbered row-major; each tile lists its members in ascending order.
    # A given grid spells out most_square_grid(n), the one the tiles cut.
    rows, cols = grid or most_square_grid(n)
    assert (rows, cols) == most_square_grid(n)
    tr, tc = tile
    want = [[] for _ in range(n // (tr * tc))]
    for rep in range(n):
        r, c = divmod(rep, cols)
        want[(r // tr) * (cols // tc) + c // tc].append(rep)
    assert assign_groups_2d(n, tile).tolist() == want


def test_all_reduce_sum_hand_case():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)
    out = all_reduce(a, "sum")
    assert np.array_equal(out, np.array([4.0, 6.0], np.float32))


def test_all_reduce_group_mean_hand_case():
    vals = np.array([[1.0], [2.0], [3.0], [4.0]], np.float32)
    # [member, group, 1]: every group reduced by one call
    out = all_reduce(vals[assign_groups_1d(4, 2).T], "mean")
    assert out[:, 0].tolist() == [1.5, 3.5]


def test_all_reduce_single_replica_identity():
    x = np.array([[5.0, -1.0]], np.float32)
    out = all_reduce(x, "sum")
    assert np.array_equal(out, x[0])
    assert not np.shares_memory(out, x)  # reduced value delivered as a fresh tensor


def test_all_reduce_equals_sequential_sum():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((6, 7)).astype(np.float32)
    acc = vals[0].copy()
    for v in vals[1:]:
        acc += v
    out = all_reduce(vals, "sum")
    assert out.tobytes() == acc.tobytes()


def test_all_reduce_unknown_op():
    with pytest.raises(ValueError, match="op"):
        all_reduce(np.zeros((1, 2), np.float32), "max")


@pytest.mark.parametrize("b,padded,util", [
    (8, 8, 1.0), (4, 8, 0.5), (9, 16, 0.5625), (1, 8, 0.125), (16, 16, 1.0)])
def test_padded_batch_utilization(b, padded, util):
    assert padded_batch_utilization(b) == (padded, util)


def test_padded_batch_utilization_properties():
    for b in range(1, 200):
        padded, util = padded_batch_utilization(b)
        assert (util == 1.0) == (b % 8 == 0)
        assert util >= b / (b + 7)
    with pytest.raises(ValueError):
        padded_batch_utilization(0)
