"""Replica-grouped batch normalization tests."""

import numpy as np
import pytest

from minipod.distbn import (
    BnState,
    bn_batch_size,
    bn_inference,
    group_bn_backward,
    group_bn_forward,
    init_bn_state,
    update_moving_stats,
)


def reference_bn(x, gamma, beta, eps):
    """Single-tensor BN with population statistics, mirroring the group path:
    the mean (summed in float64), then the sum of squares around it."""
    count = x.shape[0] * x.shape[1] * x.shape[2]
    mean = (x.sum(axis=(0, 1, 2), dtype=np.float64) / count).astype(x.dtype)
    xc = x - mean
    var = (xc * xc).sum(axis=(0, 1, 2)) / x.dtype.type(count)
    inv = 1.0 / np.sqrt(var + eps)
    return xc * (gamma * inv).astype(mean.dtype) + beta, mean, var


def make_state(c, eps=1e-3, dtype=np.float32):
    return init_bn_state(c, eps=eps, dtype=dtype)


def test_hand_case_two_replicas():
    # samples {1,3} and {5,7}: shared mean 4, population var 5
    st = make_state(1, eps=1e-12)
    x = np.array([1.0, 3.0, 5.0, 7.0], np.float32).reshape(2, 2, 1, 1, 1)
    y, mean, var = group_bn_forward(x, [(0, 1)], st)
    assert float(mean[0, 0]) == 4.0
    assert float(var[0, 0]) == 5.0
    np.testing.assert_allclose(y, (x - 4.0) / np.sqrt(np.float32(5.0)), rtol=1e-6)


def test_single_replica_group_matches_plain_bn_bitwise():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 3, 5)).astype(np.float32)
    st = make_state(5)
    y, mean, var = group_bn_forward(x[None], [(0,)], st)
    ref_y, ref_mean, ref_var = reference_bn(x, st.gamma, st.beta, st.eps)
    assert y[0].tobytes() == ref_y.tobytes()
    assert mean[0].tobytes() == ref_mean.tobytes()
    assert var[0].tobytes() == ref_var.tobytes()


def test_full_group_equals_concatenated_single_device():
    rng = np.random.default_rng(1)
    n, b = 8, 4
    x = rng.standard_normal((n, b, 2, 2, 3)).astype(np.float32)
    st = make_state(3)
    y, mean, var = group_bn_forward(x, [tuple(range(n))], st)
    concat = x.reshape(n * b, 2, 2, 3)
    ref_y, ref_mean, ref_var = reference_bn(concat, st.gamma, st.beta, st.eps)
    np.testing.assert_allclose(mean[0], ref_mean, atol=1e-6)
    np.testing.assert_allclose(var[0], ref_var, atol=1e-6)
    np.testing.assert_allclose(y.reshape(concat.shape), ref_y, atol=1e-6)


@pytest.mark.parametrize("input_mean", [0.0, 10.0, 100.0, 1000.0])
def test_large_mean_variance_matches_float64_oracle(input_mean):
    # A small spread on a large mean: E[x^2] - E[x]^2 in float32 cancels
    # almost every digit of the variance.
    rng = np.random.default_rng(9)
    x = (input_mean + 0.01 * rng.standard_normal((4, 16, 8, 8, 4))).astype(np.float32)
    _, mean, var = group_bn_forward(x, [(0, 1, 2, 3)], make_state(4))
    concat = x.astype(np.float64).reshape(-1, 4)
    assert np.abs(var[0] / concat.var(axis=0) - 1).max() < 1e-3
    assert np.abs(mean[0] - concat.mean(axis=0)).max() <= 1e-6 * max(input_mean, 1)


def test_groups_in_one_call_match_separate_calls_bitwise():
    # Every group is reduced in one call; each must come out as if alone.
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 3, 2, 2, 3)).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)
    st = make_state(3)
    st.gamma[:] = [0.5, 1.5, -2.0]
    members = [(0, 2), (1, 3)]
    y, mean, var = group_bn_forward(x, members, st)
    gx, dgamma, dbeta = group_bn_backward(x, g, members, mean, var, st)
    for gid, m in enumerate(members):
        m = list(m)
        y1, mean1, var1 = group_bn_forward(x[m], [(0, 1)], st)
        gx1, dgamma1, dbeta1 = group_bn_backward(x[m], g[m], [(0, 1)], mean1, var1, st)
        assert y[m].tobytes() == y1.tobytes() and gx[m].tobytes() == gx1.tobytes()
        for got, want in ((mean, mean1), (var, var1), (dgamma, dgamma1), (dbeta, dbeta1)):
            assert got[gid].tobytes() == want[0].tobytes()


def test_gamma_zero_outputs_beta():
    rng = np.random.default_rng(2)
    st = make_state(2)
    st.gamma[:] = 0.0
    st.beta[:] = [1.5, -2.0]
    x = rng.standard_normal((1, 3, 2, 2, 2)).astype(np.float32)
    y, _, _ = group_bn_forward(x, [(0,)], st)
    np.testing.assert_allclose(y, np.broadcast_to(st.beta, y.shape))


def test_shape_mismatch_and_empty_group():
    st = make_state(1)
    with pytest.raises(ValueError, match=r"\[N, b, H, W, C\]"):
        group_bn_forward(np.zeros((2, 2, 2, 1), np.float32), [(0, 1)], st)
    x = np.zeros((3, 2, 2, 2, 1), np.float32)
    # no group, unequal groups, a replica twice, a replica left out
    for members in ([], [(0,), (1, 2)], [(0, 1, 1)], [(0, 1)]):
        with pytest.raises(ValueError, match="equal groups"):
            group_bn_forward(x, members, st)
    with pytest.raises(ValueError, match="non-empty"):
        group_bn_forward(np.zeros((1, 0, 2, 2, 1), np.float32), [(0,)], st)
    with pytest.raises(ValueError, match="grad_y"):
        group_bn_backward(x, x[:2], [(0, 1, 2)], np.zeros((1, 1), np.float32),
                          np.ones((1, 1), np.float32), st)


def test_backward_zero_grads():
    rng = np.random.default_rng(3)
    st = make_state(2)
    x = rng.standard_normal((2, 2, 2, 2, 2)).astype(np.float32)
    _, mean, var = group_bn_forward(x, [(0, 1)], st)
    gx, dgamma, dbeta = group_bn_backward(x, np.zeros_like(x), [(0, 1)], mean, var, st)
    assert not dgamma.any() and not dbeta.any()
    assert not gx.any()


@pytest.mark.parametrize("group", [1, 4])
def test_backward_matches_finite_differences(group):
    rng = np.random.default_rng(4 + group)
    b, c = 2, 3
    x = rng.standard_normal((group, b, 2, 2, c))
    w = rng.standard_normal((group, b, 2, 2, c))
    st = make_state(c, dtype=np.float64)
    st.gamma[:] = rng.standard_normal(c)
    st.beta[:] = rng.standard_normal(c)
    members = [tuple(range(group))]

    def objective(x_v, gamma=None, beta=None):
        st2 = BnState(gamma if gamma is not None else st.gamma,
                      beta if beta is not None else st.beta,
                      st.moving_mean, st.moving_var, st.momentum, st.eps)
        y, _, _ = group_bn_forward(x_v, members, st2)
        return float((y * w).sum())

    _, mean, var = group_bn_forward(x, members, st)
    gx, dgamma, dbeta = group_bn_backward(x, w, members, mean, var, st)

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

    for arr, analytic in ((st.gamma, dgamma[0]), (st.beta, dbeta[0])):
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
    st = make_state(1)
    saved_mean = np.array([10.0], np.float32)
    saved_var = np.array([4.0], np.float32)

    frozen = BnState(st.gamma, st.beta, np.zeros(1, np.float32),
                     np.ones(1, np.float32), momentum=1.0, eps=st.eps)
    out = update_moving_stats(frozen, saved_mean, saved_var)
    assert float(out.moving_mean[0]) == 0.0 and float(out.moving_var[0]) == 1.0

    replace = BnState(st.gamma, st.beta, np.zeros(1, np.float32),
                      np.ones(1, np.float32), momentum=0.0, eps=st.eps)
    out = update_moving_stats(replace, saved_mean, saved_var)
    assert float(out.moving_mean[0]) == 10.0 and float(out.moving_var[0]) == 4.0

    blend = BnState(st.gamma, st.beta, np.zeros(1, np.float32),
                    np.zeros(1, np.float32) + 0, momentum=0.9, eps=st.eps)
    out = update_moving_stats(blend, saved_mean, saved_var)
    assert abs(float(out.moving_mean[0]) - 1.0) < 1e-6


def test_replica_permutation_value_invariance():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 2, 2, 2, 3)).astype(np.float32)
    st = make_state(3)
    members = [(0, 1, 2, 3)]
    _, mean_a, var_a = group_bn_forward(x, members, st)
    _, mean_b, var_b = group_bn_forward(x[[2, 0, 3, 1]], members, st)
    np.testing.assert_allclose(mean_a, mean_b, atol=1e-7)
    np.testing.assert_allclose(var_a, var_b, atol=1e-7)
    # identical member order: bitwise identical statistics
    _, mean_c, var_c = group_bn_forward(x.copy(), members, st)
    assert mean_a.tobytes() == mean_c.tobytes()
    assert var_a.tobytes() == var_c.tobytes()


def test_forward_then_inverse_recovers_input():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 2, 2, 2)).astype(np.float32)
    st = make_state(2)
    st.gamma[:] = [2.0, 0.5]
    st.beta[:] = [0.3, -1.0]
    y, mean, var = group_bn_forward(x, [(0, 1)], st)
    rec = (y - st.beta) / st.gamma * np.sqrt(var[0] + st.eps) + mean[0]
    np.testing.assert_allclose(rec, x, atol=1e-5)


def test_bn_batch_size_accessor():
    assert bn_batch_size(8, 4) == 32
    assert bn_batch_size(1, 64) == 64


def test_bn_inference_uses_moving_stats():
    st = make_state(2)
    st.moving_mean[:] = [1.0, -1.0]
    st.moving_var[:] = [4.0, 0.25]
    x = np.ones((1, 1, 1, 1, 2), np.float32)
    y = bn_inference(x, st)
    want = (x - st.moving_mean) / np.sqrt(st.moving_var + st.eps)
    np.testing.assert_allclose(y, want, rtol=1e-6)


def test_bnstate_validation():
    with pytest.raises(ValueError, match="moving_var"):
        BnState(np.ones(2, np.float32), np.zeros(2, np.float32),
                np.zeros(2, np.float32), -np.ones(2, np.float32))
    with pytest.raises(ValueError, match="shape"):
        BnState(np.ones(2, np.float32), np.zeros(3, np.float32),
                np.zeros(2, np.float32), np.ones(2, np.float32))
