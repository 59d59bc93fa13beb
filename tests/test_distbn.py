"""Replica-grouped batch normalization tests."""

import numpy as np
import pytest

from minipod import distbn
from minipod.distbn import (
    assign_groups_1d,
    assign_groups_2d,
    bn_inference,
    group_bn_backward,
    group_bn_forward,
    plan_chunks,
    update_moving_stats,
)

EPS = 1e-3


def reference_bn(x, gamma, beta, eps):
    """Single-tensor BN with population statistics, mirroring the group path:
    sums around the first row as [1, M] @ [M, C] products, count, mean and
    squared deviations in float64, then (x - mean) * gamma / sqrt(var + eps)."""
    rows = x.reshape(-1, x.shape[-1])
    m = len(rows)
    ones = np.ones((1, m), x.dtype)
    xs = rows - rows[0]
    s1 = (ones @ xs)[0].astype(np.float64)
    s2 = (ones @ (xs * xs))[0].astype(np.float64)
    d = s1 / m
    local_mean = rows[0] + d
    m2 = s2 - s1 * d
    mean64 = m * local_mean / m
    sq = (m2 + m * local_mean * local_mean) / m
    mean = mean64.astype(x.dtype)
    var = np.maximum(sq - mean64 * mean64, 0.0).astype(x.dtype)
    inv = 1.0 / np.sqrt(var + eps)
    return (x - mean) * (gamma * inv).astype(x.dtype) + beta, mean, var


def affine(c, dtype=np.float32):
    return np.ones(c, dtype), np.zeros(c, dtype)


def test_hand_case_two_replicas():
    # samples {1,3} and {5,7}: shared mean 4, population var 5
    x = np.array([1.0, 3.0, 5.0, 7.0], np.float32).reshape(2, 2, 1, 1, 1)
    y, mean, var, xhat, inv = group_bn_forward(x, [(0, 1)], *affine(1), 1e-12)
    assert float(mean[0, 0]) == 4.0
    assert float(var[0, 0]) == 5.0
    np.testing.assert_allclose(y, (x - 4.0) / np.sqrt(np.float32(5.0)), rtol=1e-6)
    assert xhat.tobytes() == ((x - mean[0]) * inv[0]).tobytes()


def test_single_replica_group_matches_plain_bn_bitwise():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 3, 5)).astype(np.float32)
    gamma, beta = affine(5)
    y, mean, var, _, _ = group_bn_forward(x[None], [(0,)], gamma, beta, EPS)
    ref_y, ref_mean, ref_var = reference_bn(x, gamma, beta, EPS)
    assert y[0].tobytes() == ref_y.tobytes()
    assert mean[0].tobytes() == ref_mean.tobytes()
    assert var[0].tobytes() == ref_var.tobytes()


def test_full_group_equals_concatenated_single_device():
    rng = np.random.default_rng(1)
    n, b = 8, 4
    x = rng.standard_normal((n, b, 2, 2, 3)).astype(np.float32)
    gamma, beta = affine(3)
    y, mean, var, _, _ = group_bn_forward(x, [tuple(range(n))], gamma, beta, EPS)
    concat = x.reshape(n * b, 2, 2, 3)
    ref_y, ref_mean, ref_var = reference_bn(concat, gamma, beta, EPS)
    np.testing.assert_allclose(mean[0], ref_mean, atol=1e-6)
    np.testing.assert_allclose(var[0], ref_var, atol=1e-6)
    np.testing.assert_allclose(y.reshape(concat.shape), ref_y, atol=1e-6)


def check_against_float64_oracle(x, input_mean):
    _, mean, var, _, _ = group_bn_forward(x, [tuple(range(len(x)))], *affine(4), EPS)
    concat = x.astype(np.float64).reshape(-1, 4)
    assert np.abs(var[0] / concat.var(axis=0) - 1).max() < 1e-3
    assert np.abs(mean[0] - concat.mean(axis=0)).max() <= 1e-6 * max(input_mean, 1)


@pytest.mark.parametrize("input_mean", [0.0, 10.0, 100.0, 1000.0])
def test_large_mean_variance_matches_float64_oracle(input_mean):
    # A small spread on a large mean: E[x^2] - E[x]^2 in float32 cancels
    # almost every digit of the variance.
    rng = np.random.default_rng(9)
    x = (input_mean + 0.01 * rng.standard_normal((4, 16, 8, 8, 4))).astype(np.float32)
    check_against_float64_oracle(x, input_mean)


def test_large_mean_with_different_replica_means_matches_float64_oracle():
    # Two replicas of the group sit at 1000, two at 1000.5: each replica's
    # shift is near its own data, so the combination across the group carries
    # the gap between the replica means.
    rng = np.random.default_rng(10)
    local = np.array([1000.0, 1000.5, 1000.0, 1000.5])[:, None, None, None, None]
    x = (local + 0.01 * rng.standard_normal((4, 16, 8, 8, 4))).astype(np.float32)
    check_against_float64_oracle(x, 1000.5)


def test_constant_replicas_give_the_exact_variance_of_their_means():
    # Each replica is constant, at 1000 or 1000.5: every replica's own sums
    # are zero, and the whole variance, 0.25^2, comes from the combination.
    x = np.repeat([1000.0, 1000.5, 1000.5, 1000.0], 2 * 3 * 3 * 2).astype(
        np.float32).reshape(4, 2, 3, 3, 2)
    gamma, beta = affine(2)
    _, mean, var, _, _ = group_bn_forward(x, [(0, 1), (2, 3)], gamma, beta, EPS)
    assert mean.tolist() == [[1000.25] * 2] * 2 and var.tolist() == [[0.0625] * 2] * 2
    _, mean, var, _, _ = group_bn_forward(x[:1], [(0,)], gamma, beta, EPS)
    assert mean.tolist() == [[1000.0] * 2] and var.tolist() == [[0.0] * 2]


def test_one_all_reduce_per_pass(monkeypatch):
    calls, reduce = [], distbn.all_reduce

    def counted(per_replica, op="sum"):
        calls.append(per_replica.shape)
        return reduce(per_replica, op)

    monkeypatch.setattr(distbn, "all_reduce", counted)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 3, 2, 2, 3)).astype(np.float32)
    members = [(0, 2), (1, 3)]
    gamma, beta = affine(3)
    _, _, _, xhat, inv = group_bn_forward(x, members, gamma, beta, EPS)
    assert len(calls) == 1
    group_bn_backward(xhat, inv, np.ones_like(x), members, gamma)
    assert calls == [(2, 2, 2, 3), (2, 2, 2, 3)]  # [group size, G, 2, C]


def test_groups_in_one_call_match_separate_calls_bitwise():
    # Every group is reduced in one call; each must come out as if alone.
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 3, 2, 2, 3)).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)
    gamma = np.array([0.5, 1.5, -2.0], np.float32)
    beta = np.zeros(3, np.float32)
    members = [(0, 2), (1, 3)]
    y, mean, var, xhat, inv = group_bn_forward(x, members, gamma, beta, EPS)
    gx, dgamma, dbeta = group_bn_backward(xhat, inv, g, members, gamma)
    for gid, m in enumerate(members):
        m = list(m)
        y1, mean1, var1, xhat1, inv1 = group_bn_forward(x[m], [(0, 1)], gamma, beta, EPS)
        gx1, dgamma1, dbeta1 = group_bn_backward(xhat1, inv1, g[m], [(0, 1)], gamma)
        assert y[m].tobytes() == y1.tobytes() and gx[m].tobytes() == gx1.tobytes()
        assert xhat[m].tobytes() == xhat1.tobytes()
        for got, want in ((mean, mean1), (var, var1), (inv, inv1)):
            assert got[gid].tobytes() == want[0].tobytes()
        assert dgamma[m].tobytes() == dgamma1.tobytes()
        assert dbeta[m].tobytes() == dbeta1.tobytes()


def test_gamma_zero_outputs_beta():
    rng = np.random.default_rng(2)
    gamma = np.zeros(2, np.float32)
    beta = np.array([1.5, -2.0], np.float32)
    x = rng.standard_normal((1, 3, 2, 2, 2)).astype(np.float32)
    y, _, _, _, _ = group_bn_forward(x, [(0,)], gamma, beta, EPS)
    np.testing.assert_allclose(y, np.broadcast_to(beta, y.shape))


def test_shape_mismatch_and_empty_group():
    gamma, beta = affine(1)
    with pytest.raises(ValueError, match=r"\[N, b, H, W, C\]"):
        group_bn_forward(np.zeros((2, 2, 2, 1), np.float32), [(0, 1)], gamma, beta, EPS)
    x = np.zeros((3, 2, 2, 2, 1), np.float32)
    # no group, unequal groups, a replica twice, a replica left out, no group axis
    for members in ([], [(0,), (1, 2)], [(0, 1, 1)], [(0, 1)], np.arange(3)):
        with pytest.raises(ValueError, match="equal groups"):
            group_bn_forward(x, members, gamma, beta, EPS)
    with pytest.raises(ValueError, match="non-empty"):
        group_bn_forward(np.zeros((1, 0, 2, 2, 1), np.float32), [(0,)], gamma, beta, EPS)
    with pytest.raises(ValueError, match="grad_y"):
        group_bn_backward(x, np.ones((1, 1), np.float32), x[:2], [(0, 1, 2)], gamma)


@pytest.mark.parametrize("groups", [
    assign_groups_1d(12, 3), assign_groups_2d(16, (2, 2)), assign_groups_2d(64, (4, 8)),
    [(3, 1), (0, 2)]], ids=["1d", "tiles-2x2", "tiles-4x8", "unordered"])
@pytest.mark.parametrize("budget", [1, 100, 700, 10 ** 6])
def test_plan_chunks_cover_the_group_rows_in_order(groups, budget):
    idx = np.asarray(groups)
    n, replica_bytes = idx.size, 50
    chunks = plan_chunks(groups, n, replica_bytes, budget)
    assert [c.rows.start for c in chunks] == [0] + [c.rows.stop for c in chunks[:-1]]
    assert chunks[-1].rows.stop == len(idx)
    for c in chunks:
        rows = idx[c.rows]
        assert rows.size * replica_bytes <= budget or len(rows) == 1
        assert np.array_equal(c.replicas, np.sort(rows, axis=None))
        assert np.array_equal(c.replicas[c.groups], rows)


def test_plan_chunks_of_2d_tiles():
    # Each 2x2 tile of a 4x4 grid takes replicas from two grid rows. The 4x8
    # tiles of an 8x8 grid are 512 KiB each, so a 512 KiB budget walks them
    # one per chunk.
    assert [c.replicas.tolist() for c in plan_chunks(
        assign_groups_2d(16, (2, 2)), 16, 1, 1)] == [
        [0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]]
    assert [c.replicas.tolist() for c in plan_chunks(
        assign_groups_2d(64, (4, 8)), 64, 8 * 512 * 4, 512 * 1024)] == [
        list(range(32)), list(range(32, 64))]


def test_plan_chunks_rejects_groups_that_do_not_split_the_replicas():
    for members in ([], [(0,), (1, 2)], [(0, 1, 1)], [(0, 1)], np.arange(3)):
        with pytest.raises(ValueError, match="must split replicas 0..2 into equal groups"):
            plan_chunks(members, 3, 1, 1)


def test_gamma_and_beta_must_match_the_channels():
    x = np.zeros((1, 2, 2, 2, 3), np.float32)
    for gamma, beta in ((np.ones(2, np.float32), np.zeros(3, np.float32)),
                        (np.ones(3, np.float32), np.zeros(1, np.float32)),
                        (np.float32(1.0), np.float32(0.0))):
        with pytest.raises(ValueError, match="gamma"):
            group_bn_forward(x, [(0,)], np.asarray(gamma), np.asarray(beta), EPS)


def test_backward_zero_grads():
    rng = np.random.default_rng(3)
    gamma, beta = affine(2)
    x = rng.standard_normal((2, 2, 2, 2, 2)).astype(np.float32)
    _, _, _, xhat, inv = group_bn_forward(x, [(0, 1)], gamma, beta, EPS)
    gx, dgamma, dbeta = group_bn_backward(xhat, inv, np.zeros_like(x), [(0, 1)], gamma)
    assert not dgamma.any() and not dbeta.any()
    assert not gx.any()


@pytest.mark.parametrize("group", [1, 4])
def test_backward_matches_finite_differences(group):
    rng = np.random.default_rng(4 + group)
    b, c = 2, 3
    x = rng.standard_normal((group, b, 2, 2, c))
    w = rng.standard_normal((group, b, 2, 2, c))
    gamma = rng.standard_normal(c)
    beta = rng.standard_normal(c)
    members = [tuple(range(group))]

    def objective(x_v):
        y = group_bn_forward(x_v, members, gamma, beta, EPS)[0]
        return float((y * w).sum())

    _, _, _, xhat, inv = group_bn_forward(x, members, gamma, beta, EPS)
    gx, dgamma, dbeta = group_bn_backward(xhat, inv, w, members, gamma)

    eps = 1e-5
    worst = 0.0
    flat = x.reshape(-1)
    aflat = gx.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        lp = objective(x)
        flat[j] = orig - eps
        lm = objective(x)
        flat[j] = orig
        num = (lp - lm) / (2 * eps)
        worst = max(worst, abs(num - aflat[j]) / max(abs(num), abs(aflat[j]), 1e-8))
    assert worst < 1e-3

    # The per-replica shares of the affine gradients add up to the group's.
    for arr, analytic in ((gamma, dgamma.sum(axis=0)), (beta, dbeta.sum(axis=0))):
        for j in range(arr.size):
            orig = arr[j]
            arr[j] = orig + eps
            lp = objective(x)
            arr[j] = orig - eps
            lm = objective(x)
            arr[j] = orig
            num = (lp - lm) / (2 * eps)
            assert abs(num - analytic[j]) / max(abs(num), abs(analytic[j]), 1e-8) < 1e-3


def test_update_moving_stats_cases():
    saved_mean = np.array([[10.0]], np.float32)
    saved_var = np.array([[4.0]], np.float32)
    zero, one = np.zeros(1, np.float32), np.ones(1, np.float32)

    mm, mv = update_moving_stats(zero, one, saved_mean, saved_var, momentum=1.0)
    assert float(mm[0]) == 0.0 and float(mv[0]) == 1.0

    mm, mv = update_moving_stats(zero, one, saved_mean, saved_var, momentum=0.0)
    assert float(mm[0]) == 10.0 and float(mv[0]) == 4.0

    mm, mv = update_moving_stats(zero, zero, saved_mean, saved_var, momentum=0.9)
    assert abs(float(mm[0]) - 1.0) < 1e-6 and mm.dtype == np.float32

    # groups are averaged first, in ascending group id
    means = np.array([[10.0], [20.0], [30.0]], np.float32)
    mm, mv = update_moving_stats(zero, zero, means, means, momentum=0.0)
    assert float(mm[0]) == 20.0 and float(mv[0]) == 20.0

    with pytest.raises(ValueError, match="saved stats"):
        update_moving_stats(zero, one, np.zeros((1, 2), np.float32),
                            np.zeros((1, 2), np.float32), momentum=0.9)


def test_replica_permutation_value_invariance():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 2, 2, 2, 3)).astype(np.float32)
    gamma, beta = affine(3)
    members = [(0, 1, 2, 3)]
    _, mean_a, var_a, _, _ = group_bn_forward(x, members, gamma, beta, EPS)
    _, mean_b, var_b, _, _ = group_bn_forward(x[[2, 0, 3, 1]], members, gamma, beta, EPS)
    np.testing.assert_allclose(mean_a, mean_b, atol=1e-7)
    np.testing.assert_allclose(var_a, var_b, atol=1e-7)
    # identical member order: bitwise identical statistics
    _, mean_c, var_c, _, _ = group_bn_forward(x.copy(), members, gamma, beta, EPS)
    assert mean_a.tobytes() == mean_c.tobytes()
    assert var_a.tobytes() == var_c.tobytes()


def test_forward_then_inverse_recovers_input():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 2, 2, 2)).astype(np.float32)
    gamma = np.array([2.0, 0.5], np.float32)
    beta = np.array([0.3, -1.0], np.float32)
    y, mean, var, _, _ = group_bn_forward(x, [(0, 1)], gamma, beta, EPS)
    rec = (y - beta) / gamma * np.sqrt(var[0] + EPS) + mean[0]
    np.testing.assert_allclose(rec, x, atol=1e-5)


def test_bn_inference_uses_moving_stats():
    gamma = np.array([1.0, 3.0], np.float32)
    beta = np.array([0.0, 0.5], np.float32)
    moving_mean = np.array([1.0, -1.0], np.float32)
    moving_var = np.array([4.0, 0.25], np.float32)
    x = np.arange(12, dtype=np.float32).reshape(1, 1, 2, 3, 2)
    y = bn_inference(x, gamma, beta, moving_mean, moving_var, EPS)
    want = (x - moving_mean) / np.sqrt(moving_var + EPS) * gamma + beta
    np.testing.assert_allclose(y, want, rtol=1e-6)
