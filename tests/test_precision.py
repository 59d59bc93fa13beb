"""bfloat16 rounding, and mixed-precision convolution through the engine."""

import numpy as np
import pytest

from minipod import nn, precision
from minipod.data import as_float32, gen_synthetic
from minipod.distbn import assign_groups_1d
from minipod.model import (
    build_model,
    conv2d,
    distributed_forward_backward,
    eval_forward,
    global_avg_pool,
    init_params,
)
from minipod.nn import Parameter
from minipod.precision import (
    FP32_ONLY,
    MIXED_BF16_CONV,
    PrecisionPolicy,
    bf16_bits,
    to_bf16,
)


def all_bf16_patterns() -> np.ndarray:
    """Every fp32 value whose low 16 bits are zero (i.e. all 2^16 bf16s)."""
    bits = (np.arange(2**16, dtype=np.uint32) << np.uint32(16))
    return bits.view(np.float32)


def test_known_values():
    assert float(to_bf16(np.float32(1.0))) == 1.0
    assert float(to_bf16(np.float32(0.1))) == 0.10009765625
    # below the halfway point of the 2^-7 ulp at 1.0: rounds down
    assert float(to_bf16(np.float32(1 + 2**-9))) == 1.0


def test_round_to_nearest_even_ties():
    # exact ties on either side of an even mantissa
    assert float(to_bf16(np.float32(1 + 2**-8))) == 1.0           # tie -> even (down)
    assert float(to_bf16(np.float32(1 + 2**-7 + 2**-8))) == 1 + 2**-6  # tie -> even (up)
    assert float(to_bf16(np.float32(1 + 2**-8 + 2**-9))) == 1 + 2**-7  # above tie


def test_exhaustive_roundtrip_all_patterns():
    pats = all_bf16_patterns()
    out = to_bf16(pats)
    assert out.view(np.uint32).tobytes() == pats.view(np.uint32).tobytes()


def test_bf16_bits_widen_to_the_rounded_values():
    # Every bf16 pattern, random fp32 bits rounded, and NaNs whose payload
    # lies in the low 16 bits alone, which a plain truncation turns into an
    # infinity of the same sign.
    rng = np.random.default_rng(1)
    random = rng.integers(0, 2**32, size=100_000, dtype=np.uint64).astype(np.uint32)
    low_nans = np.array([0x7F800001, 0xFF800001, 0x7F80FFFF], np.uint32)
    x = np.concatenate([all_bf16_patterns().view(np.uint32), random, low_nans])
    r = to_bf16(x.view(np.float32))
    bits = bf16_bits(r)
    assert bits.dtype == np.uint16 and bits.shape == r.shape
    back = as_float32(bits)
    assert back.dtype == np.float32
    truncated = as_float32((r.view(np.uint32) >> np.uint32(16)).astype(np.uint16))
    assert np.isnan(r[-3:]).all() and truncated[-3:].tolist() == [np.inf, -np.inf, np.inf]
    nan = np.isnan(r)
    assert (np.isnan(back) == nan).all()
    assert (np.signbit(back) == np.signbit(r)).all()
    assert back[~nan].tobytes() == r[~nan].tobytes()


def test_idempotent_and_monotone_on_random_samples():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2**32, size=1_000_000, dtype=np.uint64).astype(np.uint32)
    x = bits.view(np.float32)
    finite = x[np.isfinite(x)]
    q = to_bf16(finite)
    assert to_bf16(q).tobytes() == q.tobytes()
    # keep values whose rounding stays finite, so diffs never hit inf - inf
    ordered = np.sort(finite[np.abs(finite) < 3.38e38])
    qo = to_bf16(ordered)
    assert not (np.diff(qo) < 0).any()


def test_special_values():
    x = np.array([np.inf, -np.inf, 0.0, -0.0, np.nan], dtype=np.float32)
    q = to_bf16(x)
    assert q[0] == np.inf and q[1] == -np.inf
    assert q[2] == 0.0 and np.signbit(q[3])
    assert np.isnan(q[4])
    # finite values beyond the largest bf16 round to infinity
    big = np.float32(np.finfo(np.float32).max)
    assert to_bf16(big) == np.inf


def to_bf16_reference(x) -> np.ndarray:
    """to_bf16 as one expression with an np.where, for bitwise comparison."""
    arr = np.asarray(x, dtype=np.float32)
    flat = np.ascontiguousarray(arr).reshape(-1)
    bits = flat.view(np.uint32)
    rounded = (bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))
               ) & np.uint32(0xFFFF0000)
    return np.where(np.isnan(flat), flat, rounded.view(np.float32)).reshape(arr.shape)


HOSTILE_BITS = np.array([
    0x7F800001, 0x7FBFFFFF, 0x7FC00000, 0x7FC0FFFF, 0x7FFFFFFF,  # NaN payloads
    0xFF800001, 0xFFBFFFFF, 0xFFC00000, 0xFFC18000, 0xFFFFFFFF,  # negative NaNs
    0x7F800000, 0xFF800000,                                      # +-inf
    0x7F7FFFFF, 0xFF7FFFFF, 0x7F7F8000, 0x7F7F7FFF,              # overflow edge
    0x00000001, 0x80000001, 0x00008000, 0x00018000, 0x007FFFFF,  # subnormals
    0x807FFFFF, 0x00800000, 0x00000000, 0x80000000,              # normal min, +-0
], dtype=np.uint32)


def test_to_bf16_bitwise_equals_reference():
    rng = np.random.default_rng(3)
    bits = np.concatenate([HOSTILE_BITS, rng.integers(
        0, 2**32, size=100_000, dtype=np.uint64).astype(np.uint32)])
    x = bits.view(np.float32)
    x_before = x.copy()
    out = to_bf16(x)
    assert out.view(np.uint32).tobytes() == to_bf16_reference(x).view(np.uint32).tobytes()
    assert x.tobytes() == x_before.tobytes() and not np.shares_memory(out, x)
    big = x[: 100 * 1000].reshape(100, 1000)
    for case in (np.float32(0.1), np.array(np.float32(np.nan)), x[0],  # 0-d
                 big[::3, 1::7], big.T,                              # strided
                 np.array([np.nan, -np.nan, np.inf, -np.inf, 3.3961e38,  # float64
                           1e-40, -1e-45, 0.0, -0.0, 1 / 3]),
                 rng.standard_normal((4, 5)), [1.5, -2.25]):
        got, want = to_bf16(case), to_bf16_reference(case)
        assert type(got) is np.ndarray and got.dtype == np.float32
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_policy_validation():
    with pytest.raises(ValueError):
        PrecisionPolicy("fp16")


# ---------------------------------------------------------------------------
# mixed-precision convolution, through the engine


def conv_model(kernel, stride=1, padding="valid"):
    """[conv, global_avg_pool]: one logit per conv output channel."""
    co = kernel.shape[-1]
    layers = [conv2d("c", co, kernel.shape[:2], stride, padding), global_avg_pool("p")]
    return layers, [Parameter("c/kernel", kernel.copy())]


def engine(layers, params, x, labels, policy):
    """One replica with batch x."""
    return distributed_forward_backward(
        layers, params, x[None], labels[None], assign_groups_1d(1, 1),
        policy=policy)


def test_fp32_policy_is_bitwise_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 6, 6, 3)).astype(np.float32)
    k = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
    labels = np.array([0, 3])
    layers, params = conv_model(k, 2, "same")
    res = engine(layers, params, x, labels, FP32_ONLY)
    patches = nn.im2col(x[None], k, 2, "same")
    y = nn.conv2d_forward(patches, k)
    logits = nn.global_avg_pool_forward(y)
    (loss,), g = nn.softmax_xent(logits, labels[None])
    _, gk = nn.conv2d_backward(patches, k, nn.global_avg_pool_backward(y.shape, g),
                               x[None].shape, 2, "same")
    assert eval_forward(layers, params, {}, x[None]).tobytes() == logits.tobytes()
    assert res.losses == [float(loss)]
    assert res.grads[0].tobytes() == gk.tobytes()


def test_bf16_representable_inputs_identical_paths():
    rng = np.random.default_rng(2)
    # small integers are exactly representable in bf16
    x = rng.integers(-8, 9, size=(1, 5, 5, 2)).astype(np.float32)
    k = rng.integers(-4, 5, size=(3, 3, 2, 2)).astype(np.float32)
    layers, params = conv_model(k)
    a = engine(layers, params, x, np.array([1]), MIXED_BF16_CONV)
    b = engine(layers, params, x, np.array([1]), FP32_ONLY)
    assert a.losses == b.losses
    assert a.grads[0].tobytes() == b.grads[0].tobytes()
    assert (eval_forward(layers, params, {}, x[None], MIXED_BF16_CONV).tobytes()
            == eval_forward(layers, params, {}, x[None], FP32_ONLY).tobytes())


def test_mixed_error_bound_scales_with_accumulation_length():
    rng = np.random.default_rng(3)
    # positive operands: no cancellation, so the elementwise bound is tight
    x = rng.random((2, 8, 8, 4)).astype(np.float32)
    k = rng.random((3, 3, 4, 4)).astype(np.float32)
    # Every 3x3 window as its own example: the valid conv output is then 1x1,
    # which the pool passes on unchanged, so the logits are the conv outputs.
    windows = np.stack([x[b, i:i + 3, j:j + 3]
                        for b in range(2) for i in range(6) for j in range(6)])
    layers, params = conv_model(k)
    exact = eval_forward(layers, params, {}, windows[None], FP32_ONLY)
    mixed = eval_forward(layers, params, {}, windows[None], MIXED_BF16_CONV)
    acc_len = 3 * 3 * 4
    rel = np.abs(mixed - exact) / np.abs(exact)
    assert float(rel.max()) <= 2.0**-7 * acc_len


def b5_step(policy):
    """One engine call of the b5 stand-in: 4 replicas, BN groups of 2."""
    ds = gen_synthetic(10, 16, 8, 8, 1, seed=6)
    layers = build_model("b5", 10)
    params = init_params(layers, (8, 8, 1), seed=6)
    return distributed_forward_backward(
        layers, params, ds.images.reshape(4, 4, 8, 8, 1), ds.labels.reshape(4, 4),
        assign_groups_1d(4, 2), policy=policy)


def test_mixed_backward_uses_rounded_operands(monkeypatch):
    # The engine rounds each operand once; the reference is the fp32 engine
    # with every nn conv call rounding both operands, in forward and backward;
    # conv2d's first operand is the patch matrix, a copy of the input.
    got = b5_step(MIXED_BF16_CONV)
    assert got.losses != b5_step(FP32_ONLY).losses  # the rounding shows
    for name in ("conv2d_forward", "conv2d_backward",
                 "depthwise_conv2d_forward", "depthwise_conv2d_backward"):
        monkeypatch.setattr(nn, name, lambda x, k, *rest, fn=getattr(nn, name), **kw:
                            fn(to_bf16(x), to_bf16(k), *rest, **kw))
    want = b5_step(FP32_ONLY)
    assert got.losses == want.losses
    assert [g.tobytes() for g in got.grads] == [g.tobytes() for g in want.grads]


def test_step_rounds_each_conv_operand_once(monkeypatch):
    sizes = []
    monkeypatch.setattr(precision, "to_bf16",
                        lambda x, fn=precision.to_bf16: sizes.append(np.size(x)) or fn(x))
    b5_step(FP32_ONLY)
    assert not sizes
    b5_step(MIXED_BF16_CONV)
    # 3 conv layers x (1 shared kernel + 1 stacked input of 4 replicas)
    assert len(sizes) == 3 * 2
    # every element of the 3 kernels and of the 16 examples' 3 conv inputs, once
    kernels = 3 * 3 * (1 * 8 + 8 + 8 * 16)
    inputs = 16 * (8 * 8 * 1 + 4 * 4 * 8 + 4 * 4 * 8)
    assert sum(sizes) == kernels + inputs


def test_mixed_gradcheck_consistency():
    rng = np.random.default_rng(5)
    x = to_bf16(rng.standard_normal((1, 4, 4, 2)).astype(np.float32))
    k = to_bf16(rng.standard_normal((3, 3, 2, 2)).astype(np.float32))
    labels = np.array([1])
    layers, params = conv_model(k)
    gk = engine(layers, params, x, labels, MIXED_BF16_CONV).grads[0][0]
    # The logits are linear in each kernel element, so the secant between two
    # bf16 grid points of the logits weighted by the loss gradient equals the
    # exact partial derivative of the loss.
    _, w = nn.softmax_xent(
        eval_forward(layers, params, {}, x[None], MIXED_BF16_CONV), labels[None])

    def loss():
        return float((eval_forward(layers, params, {}, x[None], MIXED_BF16_CONV) * w).sum())

    kf = params[0].value.reshape(-1)
    worst = 0.0
    for j in range(kf.size):
        orig = kf[j]
        step = np.float32(2.0 ** (np.floor(np.log2(abs(orig))) - 3)) if orig else np.float32(2**-10)
        kf[j] = to_bf16(orig + step).item()
        hi_val, hi_arg = loss(), float(kf[j])
        kf[j] = to_bf16(orig - step).item()
        lo_val, lo_arg = loss(), float(kf[j])
        kf[j] = orig
        secant = (hi_val - lo_val) / (hi_arg - lo_arg)
        a = float(gk.reshape(-1)[j])
        worst = max(worst, abs(a - secant) / max(abs(a), abs(secant), 1e-8))
    assert worst < 1e-2
