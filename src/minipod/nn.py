"""Dense-tensor neural-network primitives with explicit forward/backward passes.

Tensors are plain numpy float32 arrays in row-major order; image tensors are
NHWC. Every operation is a pure function and bit-deterministic: reductions
run in a fixed order (convolutions accumulate kernel rows, then columns, then
input channels, ascending), so identical inputs give identical outputs
regardless of host scheduling. Float64 inputs are accepted everywhere and
processed in float64, which the test oracles rely on; training always runs
float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DTYPE = np.float32

VALID_TAGS = ("kernel", "bias", "bn_gamma", "bn_beta")


@dataclass
class Parameter:
    """A named trainable tensor together with its gradient slot."""

    name: str
    value: np.ndarray
    grad: np.ndarray = None  # type: ignore[assignment]
    tag: str = "kernel"

    def __post_init__(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        if self.grad.shape != self.value.shape:
            raise ValueError(
                f"parameter {self.name}: grad shape {self.grad.shape} "
                f"!= value shape {self.value.shape}"
            )
        if self.tag not in VALID_TAGS:
            raise ValueError(f"parameter {self.name}: unknown tag {self.tag!r}")

    def copy(self) -> "Parameter":
        return Parameter(self.name, self.value.copy(), self.grad.copy(), self.tag)


def assert_finite(x: np.ndarray, what: str = "tensor") -> None:
    """Opt-in NaN/Inf check; kept out of hot paths by default."""
    if not np.isfinite(x).all():
        raise FloatingPointError(f"{what} contains non-finite values")


# ---------------------------------------------------------------------------
# matmul


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul dimension mismatch: {a.shape} x {b.shape} "
            "(inner extents must agree)"
        )
    return a @ b


# ---------------------------------------------------------------------------
# activations


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; the two branches keep full precision.
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z)).astype(x.dtype)


def swish_forward(x: np.ndarray) -> np.ndarray:
    return x * sigmoid(x)


def swish_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    s = sigmoid(x)
    return grad_out * (s * (1.0 + x * (1.0 - s)))


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


def _check_conv_args(x, kernel, depthwise):
    if x.ndim != 4:
        raise ValueError(f"conv input must be NHWC, got shape {x.shape}")
    want = 3 if depthwise else 4
    if kernel.ndim != want:
        raise ValueError(f"conv kernel must have {want} dims, got {kernel.shape}")
    if kernel.shape[2] != x.shape[3]:
        raise ValueError(
            f"channel mismatch: input has {x.shape[3]} channels, "
            f"kernel expects {kernel.shape[2]}"
        )


def conv2d_forward(
    x: np.ndarray, kernel: np.ndarray, stride: int = 1, padding: str = "same"
) -> np.ndarray:
    """Cross-correlation of NHWC input with a [kh, kw, Cin, Cout] kernel."""
    _check_conv_args(x, kernel, depthwise=False)
    n, h, w, _ = x.shape
    kh, kw, _, co = kernel.shape
    ho, wo, (pt, pb, pl, pr) = _conv_geometry(h, w, kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    out = np.zeros((n, ho, wo, co), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            xs = xp[:, i : i + stride * (ho - 1) + 1 : stride,
                    j : j + stride * (wo - 1) + 1 : stride, :]
            out += xs @ kernel[i, j]
    return out


def conv2d_backward(
    x: np.ndarray,
    kernel: np.ndarray,
    grad_out: np.ndarray,
    stride: int = 1,
    padding: str = "same",
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of conv2d_forward w.r.t. input and kernel."""
    _check_conv_args(x, kernel, depthwise=False)
    n, h, w, _ = x.shape
    kh, kw, _, co = kernel.shape
    ho, wo, (pt, pb, pl, pr) = _conv_geometry(h, w, kh, kw, stride, padding)
    if grad_out.shape != (n, ho, wo, co):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward "
            f"output {(n, ho, wo, co)}"
        )
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    grad_xp = np.zeros_like(xp)
    grad_k = np.zeros_like(kernel)
    for i in range(kh):
        for j in range(kw):
            rows = slice(i, i + stride * (ho - 1) + 1, stride)
            cols = slice(j, j + stride * (wo - 1) + 1, stride)
            xs = xp[:, rows, cols, :]
            grad_k[i, j] = np.tensordot(xs, grad_out, axes=([0, 1, 2], [0, 1, 2]))
            grad_xp[:, rows, cols, :] += grad_out @ kernel[i, j].T
    grad_x = grad_xp[:, pt : pt + h, pl : pl + w, :]
    return np.ascontiguousarray(grad_x), grad_k


def depthwise_conv2d_forward(
    x: np.ndarray, kernel: np.ndarray, stride: int = 1, padding: str = "same"
) -> np.ndarray:
    """Per-channel convolution with a [kh, kw, C] kernel (multiplier 1)."""
    _check_conv_args(x, kernel, depthwise=True)
    n, h, w, c = x.shape
    kh, kw, _ = kernel.shape
    ho, wo, (pt, pb, pl, pr) = _conv_geometry(h, w, kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    out = np.zeros((n, ho, wo, c), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            xs = xp[:, i : i + stride * (ho - 1) + 1 : stride,
                    j : j + stride * (wo - 1) + 1 : stride, :]
            out += xs * kernel[i, j]
    return out


def depthwise_conv2d_backward(
    x: np.ndarray,
    kernel: np.ndarray,
    grad_out: np.ndarray,
    stride: int = 1,
    padding: str = "same",
) -> tuple[np.ndarray, np.ndarray]:
    _check_conv_args(x, kernel, depthwise=True)
    n, h, w, c = x.shape
    kh, kw, _ = kernel.shape
    ho, wo, (pt, pb, pl, pr) = _conv_geometry(h, w, kh, kw, stride, padding)
    if grad_out.shape != (n, ho, wo, c):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward "
            f"output {(n, ho, wo, c)}"
        )
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    grad_xp = np.zeros_like(xp)
    grad_k = np.zeros_like(kernel)
    for i in range(kh):
        for j in range(kw):
            rows = slice(i, i + stride * (ho - 1) + 1, stride)
            cols = slice(j, j + stride * (wo - 1) + 1, stride)
            xs = xp[:, rows, cols, :]
            grad_k[i, j] = (xs * grad_out).sum(axis=(0, 1, 2))
            grad_xp[:, rows, cols, :] += grad_out * kernel[i, j]
    grad_x = grad_xp[:, pt : pt + h, pl : pl + w, :]
    return np.ascontiguousarray(grad_x), grad_k


# ---------------------------------------------------------------------------
# dense / pooling

# dense flattens trailing dims, so it can sit directly on conv feature maps.


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    xf = x.reshape(x.shape[0], -1)
    if xf.shape[1] != w.shape[0]:
        raise ValueError(
            f"dense dimension mismatch: input {xf.shape} x weight {w.shape}"
        )
    return xf @ w + b


def dense_backward(x, w, grad_out):
    xf = x.reshape(x.shape[0], -1)
    grad_w = xf.T @ grad_out
    grad_b = grad_out.sum(axis=0)
    grad_x = (grad_out @ w.T).reshape(x.shape)
    return grad_x, grad_w, grad_b


def global_avg_pool_forward(x: np.ndarray) -> np.ndarray:
    if x.ndim != 4:
        raise ValueError(f"global_avg_pool expects NHWC, got shape {x.shape}")
    return x.mean(axis=(1, 2))


def global_avg_pool_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    n, h, w, c = x.shape
    scale = grad_out / x.dtype.type(h * w)
    return np.broadcast_to(scale[:, None, None, :], x.shape).astype(x.dtype)


# ---------------------------------------------------------------------------
# loss head


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch and its gradient w.r.t. logits.

    Uses max-subtraction for stability; grad = (softmax - onehot) / batch.
    """
    if logits.ndim != 2:
        raise ValueError(f"logits must be [N, K], got shape {logits.shape}")
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(
            f"labels out of range [0, {k}): found {labels.min()}..{labels.max()}"
        )
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    logp = z - np.log(sez)
    loss = -logp[np.arange(n), labels].mean()
    grad = ez / sez
    grad[np.arange(n), labels] -= 1
    grad /= grad.dtype.type(n)
    return float(loss), grad
