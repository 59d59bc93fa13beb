"""Tensor-op tests: hand-derived values plus finite-difference oracles.

Every kernel takes a leading replica axis ([N, b, ...]); most cases here use
one replica.
"""

import numpy as np
import pytest

from minipod import nn


def fd_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at x (float64 oracle)."""
    x = x.astype(np.float64).copy()
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        lp = f(x)
        flat[j] = orig - eps
        lm = f(x)
        flat[j] = orig
        gflat[j] = (lp - lm) / (2 * eps)
    return g


def max_rel(a, b, floor=1e-8):
    return float((np.abs(a - b) / np.maximum.reduce(
        [np.abs(a), np.abs(b), np.full_like(np.asarray(a, float), floor)])).max())


# ---------------------------------------------------------------------------
# conv2d


def conv(x, k, stride=1, padding="same"):
    """conv2d of an input: its patch matrix, then the GEMM."""
    return nn.conv2d_forward(nn.im2col(x, k, stride, padding), k)


def conv_backward(x, k, grad_out, stride=1, padding="same", input_grad=True):
    return nn.conv2d_backward(nn.im2col(x, k, stride, padding), k, grad_out,
                              x.shape, stride, padding, input_grad)


def test_conv_1x1_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.random((1, 2, 5, 5, 3)).astype(np.float32)
    k = np.zeros((1, 1, 3, 3), np.float32)
    k[0, 0] = np.eye(3)
    out = conv(x, k, 1, "valid")
    assert np.array_equal(out, x)


def test_conv_all_ones_single_window():
    x = np.ones((1, 1, 3, 3, 1), np.float32)
    k = np.ones((3, 3, 1, 1), np.float32)
    out = conv(x, k, 1, "valid")
    assert out.shape == (1, 1, 1, 1, 1)
    assert out.reshape(()) == np.float32(9.0)


def test_conv_valid_output_shape():
    out = conv(np.zeros((1, 1, 4, 4, 1), np.float32),
               np.zeros((3, 3, 1, 1), np.float32), 1, "valid")
    assert out.shape == (1, 1, 2, 2, 1)


def test_conv_channel_mismatch():
    with pytest.raises(ValueError, match="channel"):
        nn.im2col(np.zeros((1, 1, 4, 4, 2), np.float32),
                  np.zeros((3, 3, 1, 1), np.float32))
    patches = nn.im2col(np.zeros((1, 1, 4, 4, 2), np.float32),
                        np.zeros((3, 3, 2, 1), np.float32))
    with pytest.raises(ValueError, match="do not fit"):
        nn.conv2d_forward(patches, np.zeros((1, 1, 2, 1), np.float32))


def test_conv_zero_size_output():
    with pytest.raises(ValueError, match="zero-size"):
        nn.im2col(np.zeros((1, 1, 2, 2, 1), np.float32),
                  np.zeros((3, 3, 1, 1), np.float32), 1, "valid")


def test_conv_backward_zero_grad_out():
    rng = np.random.default_rng(1)
    x = rng.random((1, 1, 4, 4, 2)).astype(np.float32)
    k = rng.random((3, 3, 2, 2)).astype(np.float32)
    gx, gk = conv_backward(x, k, np.zeros((1, 1, 2, 2, 2), np.float32), 1, "valid")
    assert not gx.any() and not gk.any()


def test_conv_backward_identity_kernel_passthrough():
    rng = np.random.default_rng(2)
    x = rng.random((1, 2, 4, 4, 1)).astype(np.float32)
    k = np.ones((1, 1, 1, 1), np.float32)
    g = rng.random((1, 2, 4, 4, 1)).astype(np.float32)
    gx, _ = conv_backward(x, k, g, 1, "valid")
    assert np.array_equal(gx, g)


def test_conv_backward_grad_out_shape_error():
    with pytest.raises(ValueError, match="grad_out"):
        conv_backward(np.zeros((1, 1, 4, 4, 1), np.float32),
                      np.zeros((3, 3, 1, 1), np.float32),
                      np.zeros((1, 1, 4, 4, 1), np.float32), 1, "valid")


@pytest.mark.parametrize("stride,padding", [(1, "valid"), (1, "same"),
                                            (2, "valid"), (2, "same")])
def test_conv_backward_matches_finite_differences(stride, padding):
    for seed in range(5):  # x4 configs = 20 seeded cases
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 1, 3, 3, 1))
        k = rng.standard_normal((3, 3, 1, 2))
        out_shape = conv(x, k, stride, padding).shape
        w = rng.standard_normal(out_shape)

        gx, (gk,) = conv_backward(x, k, w, stride, padding)
        num_gx = fd_grad(lambda v: float((conv(v, k, stride, padding) * w).sum()),
                         x, eps=1e-3)
        num_gk = fd_grad(lambda v: float((conv(x, v, stride, padding) * w).sum()),
                         k, eps=1e-3)
        assert max_rel(gx, num_gx) < 1e-3, f"seed {seed}"
        assert max_rel(gk, num_gk) < 1e-3, f"seed {seed}"


def conv_oracle(x, k, stride, padding, grad_out):
    """Direct loops over output positions and kernel taps: forward output,
    input gradient and per-replica kernel gradient of conv2d (4-D kernel) or
    depthwise conv2d (3-D kernel)."""
    depthwise = k.ndim == 3
    n, b, h, w, c = x.shape
    kh, kw = k.shape[:2]
    ho, wo, (pt, pb, pl, pr) = nn._conv_geometry(h, w, kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr), (0, 0)))
    y = np.zeros(grad_out.shape)
    gxp = np.zeros_like(xp)
    gk = np.zeros((n,) + k.shape)
    for o in range(ho):
        for p in range(wo):
            g = grad_out[:, :, o, p]  # [N, b, Cout]
            for i in range(kh):
                for j in range(kw):
                    r, s = o * stride + i, p * stride + j
                    v = xp[:, :, r, s]  # [N, b, Cin]
                    if depthwise:
                        y[:, :, o, p] += v * k[i, j]
                        gk[:, i, j] += (v * g).sum(axis=1)
                        gxp[:, :, r, s] += g * k[i, j]
                    else:
                        y[:, :, o, p] += v @ k[i, j]
                        gk[:, i, j] += v.transpose(0, 2, 1) @ g
                        gxp[:, :, r, s] += g @ k[i, j].T
    return y, gxp[:, :, pt : pt + h, pl : pl + w], gk


def conv_case(depthwise, kernel_hw, stride, padding, seed, n=2, dtype=np.float64):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3, 5, 6, 3)).astype(dtype)
    channels = (3,) if depthwise else (3, 4)
    k = rng.standard_normal(tuple(kernel_hw) + channels).astype(dtype)
    fwd, bwd = ((nn.depthwise_conv2d_forward, nn.depthwise_conv2d_backward)
                if depthwise else (conv, conv_backward))
    g = rng.standard_normal(fwd(x, k, stride, padding).shape).astype(dtype)
    return x, k, g, fwd, bwd


_CONV_CASES = [
    pytest.param(dw, (kh, kw), stride, padding,
                 id=f"{'depthwise' if dw else 'conv2d'}-{kh}x{kw}-s{stride}-{padding}")
    for dw in (False, True) for kh, kw in ((3, 2), (1, 3))
    for stride in (1, 2) for padding in ("same", "valid")]


@pytest.mark.parametrize("depthwise,kernel_hw,stride,padding", _CONV_CASES)
def test_conv_matches_direct_loop_oracle(depthwise, kernel_hw, stride, padding):
    # 2 replicas of 3, 3 input channels, non-square kernels: a patch-order or
    # kernel-reshape mismatch moves values between taps or channels.
    x, k, g, fwd, bwd = conv_case(depthwise, kernel_hw, stride, padding, seed=12)
    y_ref, gx_ref, gk_ref = conv_oracle(x, k, stride, padding, g)
    gx, gk = bwd(x, k, g, stride, padding)
    np.testing.assert_allclose(fwd(x, k, stride, padding), y_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gx, gx_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gk, gk_ref, rtol=1e-12, atol=1e-12)


def depthwise_per_tap(x, k, stride, padding, grad_out):
    """Forward output and input gradient of depthwise conv2d in the per-tap
    form: each tap's strided window times its [C] kernel row, added into
    zeros in ascending (row, column) order."""
    h, w = x.shape[2:4]
    kh, kw = k.shape[:2]
    ho, wo, (pt, pb, pl, pr) = nn._conv_geometry(h, w, kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr), (0, 0)))
    y = np.zeros(grad_out.shape, x.dtype)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            win = (slice(None), slice(None),
                   slice(i, i + stride * (ho - 1) + 1, stride),
                   slice(j, j + stride * (wo - 1) + 1, stride))
            y += xp[win] * k[i, j]
            gxp[win] += grad_out * k[i, j]
    return y, gxp[:, :, pt : pt + h, pl : pl + w]


@pytest.mark.parametrize("kernel_hw", [(3, 3), (1, 3)])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", ["same", "valid"])
def test_depthwise_matches_per_tap_form_bitwise(kernel_hw, stride, padding):
    # Same IEEE multiplies and adds in the same order, so the same bytes;
    # signed zeros check the sign of zero products and sums too.
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 2, 7, 6, 5)).astype(np.float32)
    k = rng.standard_normal(kernel_hw + (5,)).astype(np.float32)
    x[0, 0, :2] = -0.0
    k[0, 0, 1] = -0.0
    y = nn.depthwise_conv2d_forward(x, k, stride, padding)
    g = rng.standard_normal(y.shape).astype(np.float32)
    g[1, :, 0] = -0.0
    y_ref, gx_ref = depthwise_per_tap(x, k, stride, padding, g)
    gx, _ = nn.depthwise_conv2d_backward(x, k, g, stride, padding)
    assert y.dtype == gx.dtype == np.float32
    assert y.tobytes() == y_ref.tobytes()
    assert gx.tobytes() == gx_ref.tobytes()


def conv_from_windows(x, k, stride, padding, grad_out, input_grad):
    """conv2d forward output and gradients with the patch matrix rebuilt from
    a strided window view of the padded input in each direction."""
    n, b, h, w, c = x.shape
    kh, kw, ci, co = k.shape
    ho, wo, (pt, pb, pl, pr) = nn._conv_geometry(h, w, kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr), (0, 0)))
    sn, sb, sh, sw, sc = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (n, b, ho, wo, kh, kw, c), (sn, sb, sh * stride, sw * stride, sh, sw, sc),
        writeable=False)
    y = (windows.reshape(n, -1, kh * kw * ci) @ k.reshape(-1, co)).reshape(
        grad_out.shape)
    gy = grad_out.reshape(n, -1, co)
    gk = (windows.reshape(n, -1, kh * kw * ci).transpose(0, 2, 1) @ gy).reshape(
        (n,) + k.shape)
    if not input_grad:
        return y, None, gk
    grad_cols = (gy @ k.reshape(-1, co).T).reshape(windows.shape)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + stride * (ho - 1) + 1 : stride,
                j : j + stride * (wo - 1) + 1 : stride] += grad_cols[:, :, :, :, i, j]
    return y, np.ascontiguousarray(gxp[:, :, pt : pt + h, pl : pl + w]), gk


@pytest.mark.parametrize("kernel_hw", [(3, 3), (1, 3)])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("cin", [1, 8])
@pytest.mark.parametrize("input_grad", [True, False])
def test_conv_patch_matrix_matches_window_form_bitwise(
        kernel_hw, stride, padding, cin, input_grad):
    # One patch matrix from im2col feeds the forward GEMM and the kernel
    # gradient GEMM: the same products on the same bytes as rebuilding it.
    rng = np.random.default_rng(15)
    x = rng.standard_normal((3, 2, 7, 6, cin)).astype(np.float32)
    k = rng.standard_normal(kernel_hw + (cin, 4)).astype(np.float32)
    x[0, 0, :2] = -0.0
    k[0, 0, 0, 1] = -0.0
    patches = nn.im2col(x, k, stride, padding)
    y = nn.conv2d_forward(patches, k)
    g = rng.standard_normal(y.shape).astype(np.float32)
    g[1, :, 0] = -0.0
    y_ref, gx_ref, gk_ref = conv_from_windows(x, k, stride, padding, g, input_grad)
    gx, gk = nn.conv2d_backward(patches, k, g, x.shape, stride, padding, input_grad)
    assert patches.flags.c_contiguous
    assert y.dtype == gk.dtype == np.float32
    assert y.tobytes() == y_ref.tobytes()
    assert gk.tobytes() == gk_ref.tobytes()
    assert gx is None if gx_ref is None else gx.tobytes() == gx_ref.tobytes()


def im2col_window_copy(x, k, stride, padding):
    """The patch matrix as a contiguous copy of the strided window view of
    the np.pad-ded input."""
    h, w = x.shape[2:4]
    ho, wo, (pt, pb, pl, pr) = nn._conv_geometry(h, w, *k.shape[:2], stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr), (0, 0)))
    out_shape = x.shape[:2] + (ho, wo)
    return np.ascontiguousarray(nn._windows(xp, out_shape, k, stride)).reshape(
        out_shape + (-1,))


# Under "same" a 5x5 kernel is larger than the 4x6 input; under "valid" it
# has no output row.
@pytest.mark.parametrize("kernel_hw,padding", [
    (hw, p) for hw in [(3, 3), (1, 3), (3, 1), (5, 5)] for p in ["same", "valid"]
    if (hw, p) != ((5, 5), "valid")])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_im2col_gather_matches_window_copy_bitwise(kernel_hw, padding, stride):
    rng = np.random.default_rng(16)
    for dtype in (np.float32, np.float64):
        for cin in (1, 3, 8):
            x = rng.standard_normal((2, 3, 4, 6, cin)).astype(dtype)
            x[0, 0, :2] = -0.0
            x[1, 2, :, 3:] = -0.0
            k = np.zeros(kernel_hw + (cin, 2), dtype)
            patches = nn.im2col(x, k, stride, padding)
            ref = im2col_window_copy(x, k, stride, padding)
            assert patches.dtype == dtype and patches.shape == ref.shape
            assert patches.tobytes() == ref.tobytes()
            assert patches.flags.c_contiguous
            assert not np.shares_memory(patches, x)


@pytest.mark.parametrize("pads", [(0, 0, 0, 0), (1, 1, 1, 1), (0, 2, 1, 0), (2, 3, 0, 1)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pad_matches_np_pad_bitwise(pads, dtype):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 3, 4, 5, 3)).astype(dtype)
    x[0, 1, 1:3] = -0.0
    pt, pb, pl, pr = pads
    ref = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr), (0, 0)))
    xp = nn._pad(x, pads)
    assert xp.dtype == dtype and xp.shape == ref.shape
    assert xp.tobytes() == ref.tobytes()
    assert not np.shares_memory(xp, x)


@pytest.mark.parametrize("depthwise,kernel_hw,stride,padding", _CONV_CASES)
def test_conv_kernel_grad_alone_and_stacked_replicas_bitwise(
        depthwise, kernel_hw, stride, padding):
    x, k, g, fwd, bwd = conv_case(depthwise, kernel_hw, stride, padding, seed=13,
                                  n=4, dtype=np.float32)
    gx, gk = bwd(x, k, g, stride, padding)
    gx_skipped, gk_alone = bwd(x, k, g, stride, padding, input_grad=False)
    assert gx_skipped is None and gk_alone.tobytes() == gk.tobytes()
    y = fwd(x, k, stride, padding)
    for r in range(len(x)):
        gx1, gk1 = bwd(x[r:r + 1], k, g[r:r + 1], stride, padding)
        assert fwd(x[r:r + 1], k, stride, padding).tobytes() == y[r:r + 1].tobytes()
        assert gx1.tobytes() == gx[r:r + 1].tobytes()
        assert gk1.tobytes() == gk[r:r + 1].tobytes()


# ---------------------------------------------------------------------------
# elementwise layer kinds vs finite differences, many seeds

_KINDS = {
    "swish": (lambda x: nn.swish_forward(x)[0],
              lambda x, g: nn.swish_backward(x, nn.swish_forward(x)[1], g)),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_activation_backward_many_seeds(kind):
    fwd, bwd = _KINDS[kind]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 4))
        x[np.abs(x) < 1e-2] = 0.1
        w = rng.standard_normal((3, 4))
        g = bwd(x, w)
        num = fd_grad(lambda v: float((fwd(v) * w).sum()), x, eps=1e-3)
        assert max_rel(g, num) < 1e-3, f"seed {seed}"


def test_depthwise_and_dense_and_pool_backward_many_seeds():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((1, 2, 4, 4, 3))
        k = rng.standard_normal((3, 3, 3))
        w = rng.standard_normal(nn.depthwise_conv2d_forward(x, k).shape)
        gx, (gk,) = nn.depthwise_conv2d_backward(x, k, w)
        assert max_rel(gx, fd_grad(
            lambda v: float((nn.depthwise_conv2d_forward(v, k) * w).sum()), x, 1e-3)) < 1e-3
        assert max_rel(gk, fd_grad(
            lambda v: float((nn.depthwise_conv2d_forward(x, v) * w).sum()), k, 1e-3)) < 1e-3

        dw = rng.standard_normal((48, 5))
        db = rng.standard_normal(5)
        wd = rng.standard_normal((1, 2, 5))
        gx2, (gw,), _ = nn.dense_backward(x, dw, wd)
        assert max_rel(gx2, fd_grad(
            lambda v: float((nn.dense_forward(v, dw, db) * wd).sum()), x, 1e-3)) < 1e-3
        assert max_rel(gw, fd_grad(
            lambda v: float((nn.dense_forward(x, v, db) * wd).sum()), dw, 1e-3)) < 1e-3

        wp = rng.standard_normal((1, 2, 3))
        gp = nn.global_avg_pool_backward(x.shape, wp)
        assert max_rel(gp, fd_grad(
            lambda v: float((nn.global_avg_pool_forward(v) * wp).sum()), x, 1e-3)) < 1e-3


# ---------------------------------------------------------------------------
# swish values


def test_swish_values():
    y, s = nn.swish_forward(np.zeros(1, np.float32))
    assert y[0] == 0.0 and s[0] == 0.5
    y, s = nn.swish_forward(np.ones(1, np.float64))
    assert abs(float(y[0]) - 0.7310585786300049) < 1e-12 and s.tobytes() == y.tobytes()
    zero = np.zeros(1, np.float64)
    assert float(nn.swish_backward(zero, nn.sigmoid(zero), np.ones(1, np.float64))[0]) == 0.5


def test_sigmoid_extremes_do_not_overflow():
    x = np.array([-1e4, 1e4], dtype=np.float32)
    with np.errstate(all="raise"):
        s = nn.sigmoid(x)
    assert s.dtype == np.float32
    assert s[0] == 0.0 and s[1] == 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_in_one_buffer_matches_the_expression_bitwise(dtype):
    special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 100.0, -100.0]
    noise = np.random.default_rng(3).standard_normal(64 * 64 - len(special)) * 8
    x = np.concatenate([special, noise]).astype(dtype)
    s = nn.sigmoid(x.reshape(64, 8, 8))
    assert s.dtype == dtype and s.shape == (64, 8, 8)
    assert s.reshape(-1).tobytes() == (0.5 * (1.0 + np.tanh(0.5 * x))).tobytes()


# ---------------------------------------------------------------------------
# softmax cross-entropy


def test_softmax_xent_uniform_is_log_k():
    (loss,), grad = nn.softmax_xent(np.zeros((1, 3, 4), np.float32),
                                    np.array([[0, 1, 2]]))
    assert abs(loss - np.log(4.0)) < 1e-6
    # gradient rows sum to zero
    assert np.abs(grad.sum(axis=2)).max() < 1e-7


def test_softmax_xent_margin_monotone_to_zero():
    losses = []
    for margin in (1.0, 2.0, 4.0, 8.0):
        logits = np.zeros((1, 1, 3), np.float32)
        logits[0, 0, 1] = margin
        (loss,), _ = nn.softmax_xent(logits, np.array([[1]]))
        losses.append(loss)
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-3
    # and the saturated limit reaches zero exactly in fp32
    logits = np.zeros((1, 1, 3), np.float32)
    logits[0, 0, 1] = 100.0
    assert nn.softmax_xent(logits, np.array([[1]]))[0][0] == 0.0


def test_softmax_xent_label_out_of_range():
    with pytest.raises(ValueError, match="range"):
        nn.softmax_xent(np.zeros((1, 2, 3), np.float32), np.array([[0, 3]]))


def test_softmax_xent_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((1, 3, 5))
    labels = np.array([[1, 4, 0]])
    _, grad = nn.softmax_xent(logits, labels)
    num = fd_grad(lambda v: nn.softmax_xent(v, labels)[0][0], logits, eps=1e-3)
    assert max_rel(grad, num) < 1e-3


# ---------------------------------------------------------------------------
# determinism / purity


def test_ops_bit_deterministic_across_runs():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 4, 8, 8, 3)).astype(np.float32)
    k = rng.standard_normal((3, 3, 3, 5)).astype(np.float32)
    a = conv(x, k, 2, "same")
    b = conv(x.copy(), k.copy(), 2, "same")
    assert a.tobytes() == b.tobytes()
    ga, gka = conv_backward(x, k, a, 2, "same")
    gb, gkb = conv_backward(x, k, a.copy(), 2, "same")
    assert ga.tobytes() == gb.tobytes() and gka.tobytes() == gkb.tobytes()
