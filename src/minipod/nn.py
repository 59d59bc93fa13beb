"""Dense-tensor neural-network primitives with explicit forward/backward passes.

Tensors are plain numpy float32 arrays in row-major order with a leading
replica axis: N replicas each hold a batch of b, so image tensors are
[N, b, H, W, C], features [N, b, F], logits [N, b, K] and labels [N, b].
One call computes every replica. Parameter gradients come back per replica,
as [N, *parameter shape]: each replica's contribution is reduced over its own
batch only, and the sum across replicas is left to the all-reduce.

Every operation is a pure function and bit-deterministic, and no replica's
values depend on N or on the other replicas' data. A convolution is an
im2col gather and a GEMM: im2col zero-pads the input once and gathers each
output position's window from it, one pixel of Cin channels at a time, into
a contiguous patch matrix, [b*Ho*Wo, kh*kw*Cin] with taps in kernel (row,
column, channel) order, and conv2d_forward runs one matrix product per
replica over it, accumulating over K = kh*kw*Cin in BLAS's order, as dense
layers do. conv2d_backward takes the forward's patch matrix rather than the
input and is one product per replica for each gradient: patches^T @ grad_out
for the kernel, grad_out @ kernel^T for the patch matrix, whose taps then add
back into zeros of the padded input's shape in ascending row, then column
order. Depthwise convolutions accumulate taps in that order, starting from
zeros, in both directions: each tap's input window (or output gradient)
times its kernel row, tiled once per call across the output width so that
every product runs over whole W*C rows. A replica's kernel gradient is one
product per channel over its patch matrix. Float64 inputs are accepted
everywhere and processed in float64, which the test oracles rely on;
training always runs float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DTYPE = np.float32

VALID_TAGS = ("kernel", "bias", "bn_gamma", "bn_beta")


@dataclass
class Parameter:
    """A named trainable tensor."""

    name: str
    value: np.ndarray
    tag: str = "kernel"

    def __post_init__(self):
        if self.tag not in VALID_TAGS:
            raise ValueError(f"parameter {self.name}: unknown tag {self.tag!r}")


# ---------------------------------------------------------------------------
# activations


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 0.5 * (1 + tanh(0.5 * x)), in one buffer: tanh saturates to +-1 where
    # exp would overflow.
    s = np.multiply(x, 0.5)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def swish_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * sigmoid(x), and the sigmoid, which swish_backward takes."""
    s = sigmoid(x)
    return x * s, s


def swish_backward(x: np.ndarray, s: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient of swish_forward; s is the sigmoid it returned."""
    g = 1.0 - s
    g *= x
    g += 1.0
    g *= s
    g *= grad_out
    return g


# ---------------------------------------------------------------------------
# convolution

# Output extents and padding follow the usual same/valid formulas; "same"
# splits the padding with the smaller half on the top/left.


def _conv_geometry(h, w, kh, kw, stride, padding):
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding == "valid":
        ho = (h - kh) // stride + 1
        wo = (w - kw) // stride + 1
        pads = (0, 0, 0, 0)
    elif padding == "same":
        ho = -(-h // stride)
        wo = -(-w // stride)
        ph = max((ho - 1) * stride + kh - h, 0)
        pw = max((wo - 1) * stride + kw - w, 0)
        pads = (ph // 2, ph - ph // 2, pw // 2, pw - pw // 2)
    else:
        raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
    if ho < 1 or wo < 1:
        raise ValueError(
            f"zero-size spatial output for input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding}"
        )
    return ho, wo, pads


def _conv_setup(x_shape, kernel, stride, padding, depthwise, grad_out=None):
    """Checks the arguments; returns the output shape, the (top, bottom,
    left, right) padding and the padded-input window each kernel tap (i, j)
    reads."""
    if len(x_shape) != 5:
        raise ValueError(f"conv input must be [N, b, H, W, C], got shape {x_shape}")
    want = 3 if depthwise else 4
    if kernel.ndim != want:
        raise ValueError(f"conv kernel must have {want} dims, got {kernel.shape}")
    if kernel.shape[2] != x_shape[4]:
        raise ValueError(
            f"channel mismatch: input has {x_shape[4]} channels, "
            f"kernel expects {kernel.shape[2]}"
        )
    n, b, h, w, c = x_shape
    kh, kw = kernel.shape[:2]
    ho, wo, pads = _conv_geometry(h, w, kh, kw, stride, padding)
    out_shape = (n, b, ho, wo, c if depthwise else kernel.shape[3])
    if grad_out is not None and grad_out.shape != out_shape:
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward "
            f"output {out_shape}"
        )
    taps = [(i, j, (slice(None), slice(None),
                    slice(i, i + stride * (ho - 1) + 1, stride),
                    slice(j, j + stride * (wo - 1) + 1, stride)))
            for i in range(kh) for j in range(kw)]
    return out_shape, pads, taps


def _pad(x, pads):
    """A new zero array of the padded shape with x copied into its middle."""
    pt, pb, pl, pr = pads
    n, b, h, w, c = x.shape
    xp = np.zeros((n, b, pt + h + pb, pl + w + pr, c), dtype=x.dtype)
    xp[:, :, pt : pt + h, pl : pl + w] = x
    return xp


def _windows(xp, out_shape, kernel, stride):
    """Read-only [N, b, Ho, Wo, kh, kw, C] view of the padded input: each
    output position's window, in the kernel's (row, column, channel) order."""
    sn, sb, sh, sw, sc = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, out_shape[:4] + kernel.shape[:2] + xp.shape[4:],
        (sn, sb, sh * stride, sw * stride, sh, sw, sc), writeable=False)


def _unpad(grad_xp, x_shape, pads):
    pt, _, pl, _ = pads
    h, w = x_shape[2:4]
    return np.ascontiguousarray(grad_xp[:, :, pt : pt + h, pl : pl + w, :])


def im2col(
    x: np.ndarray, kernel: np.ndarray, stride: int = 1, padding: str = "same"
) -> np.ndarray:
    """The patch matrix of a [N, b, H, W, Cin] input for a [kh, kw, Cin, Cout]
    kernel: each output position's input window copied once, contiguous, as
    [N, b, Ho, Wo, kh*kw*Cin]. conv2d_forward and conv2d_backward both read it.

    One gather: every image's padded input is a row of Hp*Wp pixels of Cin
    contiguous channels, and one index of Ho*Wo*kh*kw pixel offsets, in
    (ho, wo, i, j) order, takes each window's pixels from it."""
    out_shape, pads, _ = _conv_setup(x.shape, kernel, stride, padding, False)
    xp = _pad(x, pads)
    n, b, hp, wp, c = xp.shape
    ho, wo = out_shape[2:4]
    kh, kw = kernel.shape[:2]
    rows = np.add.outer(np.arange(ho) * stride, np.arange(kh))  # [Ho, kh]
    cols = np.add.outer(np.arange(wo) * stride, np.arange(kw))  # [Wo, kw]
    index = rows[:, None, :, None] * wp + cols[None, :, None, :]
    pixels = xp.reshape(n * b, hp * wp, c)
    return np.take(pixels, index, axis=1).reshape(out_shape[:4] + (-1,))


def _gemm_operands(patches, kernel):
    """The [N, b*Ho*Wo, K] view of the patches and the [K, Cout] kernel matrix."""
    if (kernel.ndim != 4 or patches.ndim != 5
            or patches.shape[4] != math.prod(kernel.shape[:3])):
        raise ValueError(f"patches of shape {patches.shape} do not fit "
                         f"a kernel of shape {kernel.shape}")
    k = kernel.reshape(-1, kernel.shape[3])
    return patches.reshape(len(patches), -1, len(k)), k


def conv2d_forward(patches: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Cross-correlation with a [kh, kw, Cin, Cout] kernel, given im2col's
    patches of the input: one GEMM per replica, [N, b, Ho, Wo, Cout]."""
    cols, k = _gemm_operands(patches, kernel)
    return (cols @ k).reshape(patches.shape[:4] + kernel.shape[3:])


def conv2d_backward(
    patches: np.ndarray,
    kernel: np.ndarray,
    grad_out: np.ndarray,
    x_shape: tuple[int, ...],
    stride: int = 1,
    padding: str = "same",
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Exact gradients of conv2d_forward w.r.t. its [N, b, H, W, Cin] input of
    shape x_shape (None when input_grad is false) and, per replica, the kernel
    ([N, kh, kw, Cin, Cout]); patches are the forward's, from im2col."""
    out_shape, pads, taps = _conv_setup(x_shape, kernel, stride, padding, False, grad_out)
    cols, k = _gemm_operands(patches, kernel)
    n = len(cols)
    gy = grad_out.reshape(n, -1, k.shape[1])
    grad_k = (cols.transpose(0, 2, 1) @ gy).reshape((n,) + kernel.shape)
    if not input_grad:
        return None, grad_k
    # col2im: the patch-matrix gradient, each tap added back into its window
    grad_cols = (gy @ k.T).reshape(out_shape[:4] + kernel.shape[:3])
    _, b, h, w, c = x_shape
    pt, pb, pl, pr = pads
    grad_xp = np.zeros((n, b, pt + h + pb, pl + w + pr, c), dtype=patches.dtype)
    for i, j, win in taps:
        grad_xp[win] += grad_cols[:, :, :, :, i, j]
    return _unpad(grad_xp, x_shape, pads), grad_k


def _kernel_rows(kernel, width):
    """The [kh, kw, C] depthwise kernel tiled to [kh*kw, width, C], one row
    per tap, so that each tap's product runs over whole width*C rows rather
    than broadcasting a C-element row."""
    kh, kw, c = kernel.shape
    return np.tile(kernel.reshape(kh * kw, 1, c), (1, width, 1))


def depthwise_conv2d_forward(
    x: np.ndarray, kernel: np.ndarray, stride: int = 1, padding: str = "same"
) -> np.ndarray:
    """Per-channel convolution with a [kh, kw, C] kernel (multiplier 1)."""
    out_shape, pads, taps = _conv_setup(x.shape, kernel, stride, padding, True)
    xp = _pad(x, pads)
    out = np.zeros(out_shape, dtype=x.dtype)
    prod = np.empty(out_shape, dtype=np.result_type(x, kernel))
    for (_, _, win), row in zip(taps, _kernel_rows(kernel, out_shape[3])):
        out += np.multiply(xp[win], row, out=prod)
    return out


def depthwise_conv2d_backward(
    x: np.ndarray,
    kernel: np.ndarray,
    grad_out: np.ndarray,
    stride: int = 1,
    padding: str = "same",
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    out_shape, pads, taps = _conv_setup(x.shape, kernel, stride, padding, True, grad_out)
    xp = _pad(x, pads)
    n = len(x)
    kh, kw, c = kernel.shape
    # One product per (replica, channel): its [kh*kw, b*Ho*Wo] patch matrix
    # times its [b*Ho*Wo] output gradient. The patches are copied one
    # replica at a time: all of them hold kh*kw copies of the input.
    windows = _windows(xp, out_shape, kernel, stride).transpose(0, 6, 4, 5, 1, 2, 3)
    gy = grad_out.transpose(0, 4, 1, 2, 3).reshape(n, c, -1, 1)
    grad_k = np.empty((n, c, kh * kw, 1), dtype=np.result_type(x, grad_out))
    for r in range(n):
        np.matmul(windows[r].reshape(c, kh * kw, -1), gy[r], out=grad_k[r])
    grad_k = np.ascontiguousarray(grad_k.reshape(n, c, kh, kw).transpose(0, 2, 3, 1))
    if not input_grad:
        return None, grad_k
    grad_xp = np.zeros_like(xp)
    prod = np.empty(out_shape, dtype=np.result_type(grad_out, kernel))
    for (_, _, win), row in zip(taps, _kernel_rows(kernel, out_shape[3])):
        grad_xp[win] += np.multiply(grad_out, row, out=prod)
    return _unpad(grad_xp, x.shape, pads), grad_k


# ---------------------------------------------------------------------------
# dense / pooling

# dense flattens the dims after [N, b], so it can sit directly on conv
# feature maps.


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    xf = x.reshape(x.shape[0], x.shape[1], -1)
    if xf.shape[2] != w.shape[0]:
        raise ValueError(
            f"dense dimension mismatch: input {xf.shape} x weight {w.shape}"
        )
    return xf @ w + b


def dense_backward(x, w, grad_out):
    """Input gradient, and per replica the weight ([N, F, K]) and bias
    ([N, K]) gradients."""
    xf = x.reshape(x.shape[0], x.shape[1], -1)
    grad_w = xf.transpose(0, 2, 1) @ grad_out
    grad_b = grad_out.sum(axis=1)
    grad_x = (grad_out @ w.T).reshape(x.shape)
    return grad_x, grad_w, grad_b


def global_avg_pool_forward(x: np.ndarray) -> np.ndarray:
    if x.ndim != 5:
        raise ValueError(f"global_avg_pool expects [N, b, H, W, C], got shape {x.shape}")
    return x.mean(axis=(2, 3))


def global_avg_pool_backward(x_shape: tuple[int, ...], grad_out: np.ndarray) -> np.ndarray:
    """Gradient of global_avg_pool_forward w.r.t. its input of shape x_shape,
    in grad_out's dtype."""
    h, w = x_shape[2:4]
    scale = grad_out / grad_out.dtype.type(h * w)
    return np.broadcast_to(scale[:, :, None, None, :], x_shape).astype(grad_out.dtype)


# ---------------------------------------------------------------------------
# loss head


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Each replica's mean cross-entropy over its batch ([N]) and the gradient
    w.r.t. the logits.

    Uses max-subtraction for stability; grad = (softmax - onehot) / b.
    """
    if logits.ndim != 3:
        raise ValueError(f"logits must be [N, b, K], got shape {logits.shape}")
    n, b, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n, b):
        raise ValueError(f"labels shape {labels.shape} does not match batch {(n, b)}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(
            f"labels out of range [0, {k}): found {labels.min()}..{labels.max()}"
        )
    z = logits - logits.max(axis=2, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=2, keepdims=True)
    logp = z - np.log(sez)
    picked = (np.arange(n)[:, None], np.arange(b), labels)
    losses = -logp[picked].mean(axis=1)
    grad = ez / sez
    grad[picked] -= 1
    grad /= grad.dtype.type(b)
    return losses, grad
