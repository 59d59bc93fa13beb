"""Model definitions, the layer-op table and the chunked multi-replica engine.

A model is an ordered list of LayerSpec, each mapping activations to
activations; the last one emits the logits. LAYER_OPS maps each layer kind to
its output-shape rule, parameter and moving-statistic init, forward and
backward; shape inference, initialization, training and evaluation all
dispatch through it. The loss is no layer: the engine applies nn.softmax_xent
to the logits and starts the backward walk from its gradient.

The engine walks the replicas in chunks of whole batch-normalization groups
(replica_chunks, which sizes distbn.plan_chunks over the [G, S] replica array
that only distbn reads): as many consecutive groups as keep the chunk's
largest layer output within CHUNK_BYTES, and at least one. Each chunk runs
forward, loss and backward on one thread; map_chunks queues the chunks for
up to MAX_WORKERS - 1 helpers and runs on the calling thread every chunk no
helper has started, so up to MAX_WORKERS chunks' activations are live at a
time, and the calling thread writes the results in chunk order. No chunk
reads another's values and the kernels keep no state between calls, so the
bytes do not depend on the threads.
Within a chunk the engine is lockstep: it holds the chunk's activations in
one array with a leading replica axis, [n, b, ...], and walks the layers
once, each layer making one call that computes all of the chunk's replicas,
so BN layers share statistics across each group. BN is the only layer that
couples replicas, and only inside a group, so a replica's values do not
depend on the chunking. Parameter gradients stay per replica, [N, *shape],
for the trainer's all-reduce: the nn and distbn kernels return them that way
(distbn splits BN's group-summed gamma/beta evenly across each group), and
the engine writes each chunk's rows into them. The backward
walk skips the input gradient of a conv layer that reads the model input.
A conv2d layer saves the patch matrix its forward built with nn.im2col, and
its backward computes both gradients from it; the walk drops each layer's
saved tensors as soon as that layer's backward is done.
All replicas read one parameter list: synchronous replicas apply the same
update to the same all-reduced gradient, so their weights are equal by
construction.
Evaluation (eval_forward) is the same forward walk over whatever stacked
[n, b, ...] inputs it is given, with BN normalizing by the moving
statistics; the trainer's eval pass sizes its calls with replica_chunks on
groups of one. BN's epsilon is the fixed distbn.DEFAULT_EPS in both walks.
A conv2d entry is an input-only stage (rounding, padding and im2col) and a
GEMM. first_operand runs the first layer's input-only stage alone, and
eval_forward(..., prepared=True) starts at that layer's GEMM, so a caller
that evaluates the same inputs again can keep the patch matrix instead of
rebuilding it; it costs kh*kw / stride^2 times the inputs' bytes, 2.25x for
the 3x3 stride-2 first conv of toy_cnn, b2 and b5.

Under the mixed-precision policy the conv and depthwise entries round their
operands to bfloat16: the shared kernel once per chunk and the stacked
input once per layer in forward, before im2col; backward reuses the rounded
tensors.
Entries look nn, distbn and precision functions up on their modules at call
time, so a wrapper installed on a module attribute sees every call.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import distbn, nn, precision
from .collectives import all_reduce
from .nn import Parameter
from .rng import stream, truncated_normal


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    name: str
    out_channels: int | None = None
    kernel_hw: tuple[int, int] | None = None
    stride: int = 1
    padding: str = "same"
    out_features: int | None = None

    def __post_init__(self):
        if self.kind not in LAYER_OPS:
            raise ValueError(f"unknown layer kind {self.kind!r}")


def conv2d(name, out_channels, kernel_hw, stride=1, padding="same") -> LayerSpec:
    kh, kw = (kernel_hw, kernel_hw) if isinstance(kernel_hw, int) else kernel_hw
    return LayerSpec("conv2d", name, out_channels=out_channels,
                     kernel_hw=(kh, kw), stride=stride, padding=padding)


def depthwise_conv2d(name, kernel_hw, stride=1, padding="same") -> LayerSpec:
    kh, kw = (kernel_hw, kernel_hw) if isinstance(kernel_hw, int) else kernel_hw
    return LayerSpec("depthwise_conv2d", name, kernel_hw=(kh, kw),
                     stride=stride, padding=padding)


def dense(name, out_features) -> LayerSpec:
    return LayerSpec("dense", name, out_features=out_features)


def batchnorm(name) -> LayerSpec:
    return LayerSpec("batchnorm", name)


def swish(name) -> LayerSpec:
    return LayerSpec("swish", name)


def global_avg_pool(name) -> LayerSpec:
    return LayerSpec("global_avg_pool", name)


def validate_model(layers: list[LayerSpec]) -> None:
    if not layers:
        raise ValueError("model must have at least one layer")
    names = [l.name for l in layers]
    if len(set(names)) != len(names):
        raise ValueError("layer names must be unique within a model")


def infer_shapes(layers: list[LayerSpec], input_shape: tuple[int, ...]):
    """Per-layer output shapes (batch dim excluded); raises on bad pipelines."""
    validate_model(layers)
    shapes = []
    shape = tuple(input_shape)
    for l in layers:
        shape = LAYER_OPS[l.kind].shape(l, shape)
        shapes.append(shape)
    return shapes


def _layer_inputs(layers, input_shape):
    """(layer, its input shape) for every layer."""
    return zip(layers, [tuple(input_shape)] + infer_shapes(layers, input_shape))


def init_params(
    layers: list[LayerSpec], input_shape: tuple[int, ...], seed: int
) -> list[Parameter]:
    """Truncated-normal fan-in init for kernels; zeros/ones elsewhere.

    Each parameter draws from its own (seed, "init", name) stream, so the
    result does not depend on replica count or parameter order.
    """
    return [p for l, shape in _layer_inputs(layers, input_shape)
            for p in LAYER_OPS[l.kind].params(l, shape, seed)]


def init_bn_moving(
    layers: list[LayerSpec], input_shape: tuple[int, ...]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Fresh moving statistics (mean 0, var 1) for every BN layer."""
    return {l.name: LAYER_OPS[l.kind].moving(l, shape)
            for l, shape in _layer_inputs(layers, input_shape)
            if LAYER_OPS[l.kind].moving is not None}


# ---------------------------------------------------------------------------
# the layer-op table


@dataclass
class _Pass:
    """What one engine or eval call shares across its layers."""

    params: dict[str, Parameter]
    policy: precision.PrecisionPolicy
    groups: np.ndarray | None  # one chunk's [g, S] BN groups; None: inference
    bn_moving: dict[str, tuple[np.ndarray, np.ndarray]] | None = None  # inference
    input_layer: str | None = None  # name of the layer reading the model input
    grads: dict[str, np.ndarray] = field(default_factory=dict)  # [n, *shape] per chunk
    bn_saved: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def value(self, layer: LayerSpec, suffix: str) -> np.ndarray:
        return self.params[f"{layer.name}/{suffix}"].value


def _conv_operand(run: _Pass, x: np.ndarray) -> np.ndarray:
    # The one place operands are rounded to bfloat16.
    return precision.to_bf16(x) if run.policy.rounds_conv else x


def _hwc(l, shape, what):
    if len(shape) != 3:
        raise ValueError(f"{l.name}: {what} needs HWC input, has {shape}")
    return shape


def _conv_shape(l, shape):
    h, w, c = _hwc(l, shape, "conv")
    ho, wo, _ = nn._conv_geometry(h, w, *l.kernel_hw, l.stride, l.padding)
    return (ho, wo, c if l.out_channels is None else l.out_channels)


def _kernel(l, seed, shape, gain, fan_in) -> Parameter:
    pname = f"{l.name}/kernel"
    std = float(np.sqrt(gain / fan_in))
    return Parameter(pname, truncated_normal(stream(seed, "init", pname), shape, std),
                     tag="kernel")


def _conv2d_params(l, shape, seed):
    kh, kw = l.kernel_hw
    cin = shape[2]
    return [_kernel(l, seed, (kh, kw, cin, l.out_channels), 2.0, kh * kw * cin)]


def _depthwise_params(l, shape, seed):
    kh, kw = l.kernel_hw
    return [_kernel(l, seed, (kh, kw, shape[2]), 2.0, kh * kw)]


def _dense_params(l, shape, seed):
    fan_in = int(np.prod(shape))
    bias = np.zeros(l.out_features, dtype=nn.DTYPE)
    return [_kernel(l, seed, (fan_in, l.out_features), 1.0, fan_in),
            Parameter(f"{l.name}/bias", bias, tag="bias")]


def _bn_params(l, shape, seed):
    c = shape[2]
    return [Parameter(f"{l.name}/gamma", np.ones(c, dtype=nn.DTYPE), tag="bn_gamma"),
            Parameter(f"{l.name}/beta", np.zeros(c, dtype=nn.DTYPE), tag="bn_beta")]


# Forward: (layer, pass, input [N, b, ...]) -> (output, what backward needs).
# Backward: (layer, pass, that, output grad) -> input grad; per-replica
# parameter grads [N, *shape] go into pass.grads.


# A conv2d layer is an input-only stage and a GEMM: _conv2d_patches rounds
# the input (under the mixed policy) and builds its padded patch matrix,
# _conv2d_gemm multiplies that by the (rounded) kernel. eval_forward can start
# at the GEMM of a first layer whose patches were prepared beforehand.


def _conv2d_patches(l, run, x):
    # The kernel lends im2col only its shape, so rounding it is not needed here.
    return nn.im2col(_conv_operand(run, x), run.value(l, "kernel"), l.stride, l.padding)


def _conv2d_gemm(l, run, patches):
    k = _conv_operand(run, run.value(l, "kernel"))
    return nn.conv2d_forward(patches, k), k


def _conv2d_forward(l, run, x):
    # Backward reuses the patch matrix and the rounded kernel.
    patches = _conv2d_patches(l, run, x)
    y, k = _conv2d_gemm(l, run, patches)
    return y, (patches, k, x.shape)


def _conv2d_backward(l, run, saved, gy):
    patches, k, x_shape = saved
    # Nothing consumes the gradient of the model's input.
    gx, run.grads[f"{l.name}/kernel"] = nn.conv2d_backward(
        patches, k, gy, x_shape, l.stride, l.padding,
        input_grad=l.name != run.input_layer)
    return gx


def _depthwise_forward(l, run, x):
    k = _conv_operand(run, run.value(l, "kernel"))
    x = _conv_operand(run, x)
    return nn.depthwise_conv2d_forward(x, k, l.stride, l.padding), (x, k)


def _depthwise_backward(l, run, saved, gy):
    x, k = saved
    gx, run.grads[f"{l.name}/kernel"] = nn.depthwise_conv2d_backward(
        x, k, gy, l.stride, l.padding, input_grad=l.name != run.input_layer)
    return gx


def _dense_forward(l, run, x):
    return nn.dense_forward(x, run.value(l, "kernel"), run.value(l, "bias")), x


def _dense_backward(l, run, x, gy):
    gx, run.grads[f"{l.name}/kernel"], run.grads[f"{l.name}/bias"] = (
        nn.dense_backward(x, run.value(l, "kernel"), gy))
    return gx


def _swish_forward(l, run, x):
    y, s = nn.swish_forward(x)
    return y, (x, s)


def _swish_backward(l, run, saved, gy):
    return nn.swish_backward(*saved, gy)


def _pool_forward(l, run, x):
    # Backward needs only the input's shape, so the input is not kept.
    return nn.global_avg_pool_forward(x), x.shape


def _pool_backward(l, run, x_shape, gy):
    return nn.global_avg_pool_backward(x_shape, gy)


def _bn_forward(l, run, x):
    gamma, beta = run.value(l, "gamma"), run.value(l, "beta")
    if run.groups is None:
        return distbn.bn_inference(x, gamma, beta, *run.bn_moving[l.name],
                                   distbn.DEFAULT_EPS), None
    y, mean, var, xhat, inv = distbn.group_bn_forward(
        x, run.groups, gamma, beta, distbn.DEFAULT_EPS)
    run.bn_saved[l.name] = (mean, var)
    return y, (xhat, inv)


def _bn_backward(l, run, saved, gy):
    gx, run.grads[f"{l.name}/gamma"], run.grads[f"{l.name}/beta"] = (
        distbn.group_bn_backward(*saved, gy, run.groups, run.value(l, "gamma")))
    return gx


class LayerOps(NamedTuple):
    """Everything minipod does with one layer kind."""

    shape: Callable  # (layer, input shape) -> output shape
    params: Callable  # (layer, input shape, seed) -> [Parameter]
    moving: Callable | None  # (layer, input shape) -> (mean, var)
    forward: Callable
    backward: Callable


def _no_params(l, shape, seed):
    return []


LAYER_OPS: dict[str, LayerOps] = {
    "conv2d": LayerOps(
        _conv_shape, _conv2d_params, None, _conv2d_forward, _conv2d_backward),
    "depthwise_conv2d": LayerOps(
        _conv_shape, _depthwise_params, None, _depthwise_forward, _depthwise_backward),
    "dense": LayerOps(
        lambda l, shape: (l.out_features,), _dense_params, None,
        _dense_forward, _dense_backward),
    "batchnorm": LayerOps(
        lambda l, shape: _hwc(l, shape, "batchnorm"), _bn_params,
        lambda l, shape: (np.zeros(shape[2], nn.DTYPE), np.ones(shape[2], nn.DTYPE)),
        _bn_forward, _bn_backward),
    "swish": LayerOps(
        lambda l, shape: shape, _no_params, None, _swish_forward, _swish_backward),
    "global_avg_pool": LayerOps(
        lambda l, shape: (_hwc(l, shape, "pooling")[2],), _no_params, None,
        _pool_forward, _pool_backward),
}


# ---------------------------------------------------------------------------
# the engine


@dataclass
class EngineResult:
    losses: list[float]  # per replica, ascending index
    grads: list[np.ndarray] | None  # [N, *shape] per parameter, in params order
    bn_saved: dict[str, tuple[np.ndarray, np.ndarray]]  # (mean, var), [G, C] each

    @property
    def mean_loss(self) -> float:
        # Ascending-index sum: the scalar equivalent of an all-reduce mean.
        return sum(self.losses) / len(self.losses)


# The largest layer output one chunk of a step or an eval round may hold, so
# the live activations (one chunk per map_chunks thread) do not grow with the
# replica count. Packing small groups up to this budget walks fewer, larger
# chunks than one group per chunk; CHANGES.md has the budget sweeps that
# picked it.
CHUNK_BYTES = 512 * 1024


def replica_chunks(layers: list[LayerSpec], groups: np.ndarray, shape: tuple[int, ...],
                   dtype) -> list[distbn.Chunk]:
    """The chunks a pass over stacked [N, b, ...] inputs of `shape` and
    `dtype` walks: as many consecutive whole groups of the [G, S] `groups`
    as keep the chunk's largest layer output within CHUNK_BYTES, and at
    least one (distbn.plan_chunks)."""
    largest = max(map(math.prod, infer_shapes(layers, shape[2:])))
    return distbn.plan_chunks(groups, shape[0],
                              shape[1] * largest * np.dtype(dtype).itemsize, CHUNK_BYTES)


# At most this many threads walk one pass's chunks. Each holds one chunk's
# activations and, under glibc, its own malloc arena, so the cap bounds the
# pass's peak at a few chunks on any host.
MAX_WORKERS = 4
_pools: dict[int, ThreadPoolExecutor] = {}  # W - 1 helpers for worker_count() W
_pool_lock = threading.Lock()


def _forget_pools():
    # A forked child inherits the pools but none of their threads, and maybe
    # a held lock, so it starts its own helpers on first use.
    global _pools, _pool_lock
    _pools, _pool_lock = {}, threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_forget_pools)


def worker_count() -> int:
    """The threads a pass may walk its chunks on: one per core this process
    may run on, at most MAX_WORKERS."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        cores = os.cpu_count() or 1
    return min(cores, MAX_WORKERS)


def _helpers(n: int) -> ThreadPoolExecutor:
    """The pool of n helper threads, created on first use."""
    with _pool_lock:
        if n not in _pools:
            _pools[n] = ThreadPoolExecutor(n, thread_name_prefix="minipod-chunk")
        return _pools[n]


def map_chunks(fn: Callable, items: list) -> list:
    """[fn(item) for item in items], in order.

    Every item goes on the queue of a pool of W - 1 helper threads, where W
    is worker_count(); one item or one core is a plain loop. The helpers take
    items from the first, while the calling thread walks them from the last
    and runs each one no helper has started, so W threads hold at most W
    chunks, and a call made inside an item (on any thread) runs whatever its
    helpers cannot start itself. numpy releases the interpreter lock inside
    its kernels, so independent chunks overlap. Each helper runs in a copy of
    the caller's context, so numpy's error state (np.errstate) holds in it as
    in the caller. An exception reaches the caller once no item is still
    running; one raised on the calling thread leaves unrun every item no
    helper has started.
    """
    w = worker_count()
    if min(w, len(items)) <= 1:
        return [fn(item) for item in items]
    pool = _helpers(w - 1)
    futures = [pool.submit(contextvars.copy_context().run, fn, item) for item in items]
    results = [None] * len(items)
    try:
        for i in reversed(range(len(items))):  # the helpers start at the front
            if futures[i].cancel():
                results[i] = fn(items[i])
    finally:
        # A cancelled future counts as done only once a helper dequeues it,
        # so only the started ones are waited on.
        wait([f for f in futures if not f.cancel()])
    return [r if f.cancelled() else f.result() for r, f in zip(results, futures)]


def _fill(out, key, size, at, part):
    # Writes one chunk's rows of a [size, ...] result, allocated on first use.
    if key not in out:
        out[key] = np.empty((size,) + part.shape[1:], part.dtype)
    out[key][at] = part


def distributed_forward_backward(
    layers: list[LayerSpec],
    params: list[Parameter],
    x: np.ndarray,
    labels: np.ndarray,
    groups: np.ndarray,
    policy: precision.PrecisionPolicy = precision.FP32_ONLY,
    forward_only: bool = False,
) -> EngineResult:
    """One synchronized forward (and optionally backward) pass.

    x is [N, b, ...] and labels [N, b]: replica r consumes batch x[r] with the
    shared parameters; BN layers normalize over each replica's group in
    `groups`, the [G, S] replica array. Returned gradients are per-replica
    local contributions, [N, *shape]: their all-reduce mean is the gradient
    of the mean per-replica softmax cross-entropy of the last layer's output.

    The replicas are walked in chunks of whole groups (distbn.plan_chunks),
    each holding at most CHUNK_BYTES in its largest layer output; each chunk
    runs forward, loss and backward on one thread (map_chunks), and this
    thread writes the chunks' results in chunk order.
    """
    n, by_name = len(x), {p.name: p for p in params}
    chunks = replica_chunks(layers, groups, x.shape, x.dtype)

    def walk(chunk):
        run = _Pass(by_name, policy, chunk.groups, input_layer=layers[0].name)
        return _walk(layers, run, x[chunk.replicas], labels[chunk.replicas],
                     forward_only), run

    out = {}  # [N, ...] losses and gradients, [G, C] BN statistics
    for chunk, (losses, run) in zip(chunks, map_chunks(walk, chunks)):
        _fill(out, "losses", n, chunk.replicas, losses)
        for name, g in run.grads.items():
            _fill(out, name, n, chunk.replicas, g)
        for name, (mean, var) in run.bn_saved.items():
            _fill(out, (name, "mean"), len(groups), chunk.rows, mean)
            _fill(out, (name, "var"), len(groups), chunk.rows, var)
    bn_saved = {l.name: (out[l.name, "mean"], out[l.name, "var"])
                for l in layers if (l.name, "mean") in out}
    grads = None if forward_only else [out[p.name] for p in params]
    return EngineResult([float(v) for v in out["losses"]], grads, bn_saved)


def _walk(layers, run, x, labels, forward_only):
    """Forward, loss and (unless forward_only) backward of one chunk, in
    lockstep over its replicas; returns the per-replica losses and leaves
    the gradients and BN statistics in `run`."""
    saved = []
    for layer in layers:
        x, s = LAYER_OPS[layer.kind].forward(layer, run, x)
        saved.append(s)
    losses, grad = nn.softmax_xent(x, labels)
    if not forward_only:
        for layer in reversed(layers):  # each layer's saved tensors die as it is done
            grad = LAYER_OPS[layer.kind].backward(layer, run, saved.pop(), grad)
    return losses


def _first_conv(layers):
    l = layers[0]
    if l.kind != "conv2d":
        raise ValueError(f"{l.name}: only a conv2d first layer has a prepared "
                         f"operand, not a {l.kind} one")
    return l


def first_operand(
    layers: list[LayerSpec],
    params: list[Parameter],
    x: np.ndarray,
    policy: precision.PrecisionPolicy = precision.FP32_ONLY,
) -> np.ndarray:
    """The operand the first layer, a conv2d, builds from stacked [N, b, H, W,
    C] inputs alone: their padded patch matrix, [N, b, Ho, Wo, kh*kw*C], from
    inputs rounded to bfloat16 under the mixed policy. It depends on the
    kernel's shape but not on its values, so one operand serves every set of
    weights; eval_forward(..., prepared=True) starts from it."""
    return _conv2d_patches(_first_conv(layers),
                           _Pass({p.name: p for p in params}, policy, None), x)


def eval_forward(
    layers: list[LayerSpec],
    params: list[Parameter],
    bn_moving: dict[str, tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    policy: precision.PrecisionPolicy = precision.FP32_ONLY,
    prepared: bool = False,
) -> np.ndarray:
    """Inference pass over stacked [N, b, ...] inputs; BN uses moving
    statistics. Returns the last layer's output, logits [N, b, K].

    With prepared, x is first_operand of the inputs for the same policy,
    and the first layer runs only its GEMM."""
    validate_model(layers)
    run = _Pass({p.name: p for p in params}, policy, None, bn_moving)
    if prepared:
        x, layers = _conv2d_gemm(_first_conv(layers), run, x)[0], layers[1:]
    for layer in layers:  # what a layer saves for backward is dropped at once
        x = LAYER_OPS[layer.kind].forward(layer, run, x)[0]
    return x


# ---------------------------------------------------------------------------
# gradient checker


def grad_check(
    layers: list[LayerSpec],
    params: list[Parameter],
    x: np.ndarray,
    labels: np.ndarray,
    eps: float,
    num_replicas: int = 1,
    group_size: int | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The whole check runs in float64 (the numeric side is an oracle; float32
    differencing would drown small gradients in rounding noise). Relative
    error per element is |a - n| / max(|a|, |n|, 1e-8).
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"grad_check eps must be finite and > 0, got {eps}")
    if len(x) % num_replicas != 0:
        raise ValueError("batch must divide evenly across replicas")
    params64 = [
        Parameter(p.name, p.value.astype(np.float64), tag=p.tag) for p in params
    ]
    shards = np.asarray(x, dtype=np.float64).reshape(num_replicas, -1, *x.shape[1:])
    label_shards = np.asarray(labels).reshape(num_replicas, -1)
    groups = distbn.assign_groups_1d(num_replicas, group_size or num_replicas)

    def run(forward_only: bool) -> EngineResult:
        # A diverging pass is reported once, by the finiteness checks below.
        with np.errstate(over="ignore", invalid="ignore"):
            return distributed_forward_backward(
                layers, params64, shards, label_shards,
                groups, forward_only=forward_only)

    base = run(forward_only=False)
    if not np.isfinite(base.mean_loss):
        raise FloatingPointError("non-finite loss in grad_check")
    analytic = [all_reduce(g, "mean") for g in base.grads]

    max_rel = 0.0
    for i, p in enumerate(params64):
        flat = p.value.reshape(-1)
        a_flat = analytic[i].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            lo_p = run(forward_only=True).mean_loss
            flat[j] = orig - eps
            lo_m = run(forward_only=True).mean_loss
            flat[j] = orig
            if not (np.isfinite(lo_p) and np.isfinite(lo_m)):
                raise FloatingPointError("non-finite loss in grad_check")
            numeric = (lo_p - lo_m) / (2.0 * eps)
            a = float(a_flat[j])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel


# ---------------------------------------------------------------------------
# model catalog

# Small stand-in CNNs; the b2/b5 tags reuse the toy vocabulary at desk scale.


def _toy_cnn(num_classes: int) -> list[LayerSpec]:
    return [
        conv2d("conv1", 8, 3, stride=2, padding="same"),
        batchnorm("bn1"),
        swish("act1"),
        dense("fc", num_classes),
    ]


def _toy_cnn_pool(num_classes: int) -> list[LayerSpec]:
    return [
        conv2d("conv1", 8, 3, stride=1, padding="same"),
        batchnorm("bn1"),
        swish("act1"),
        global_avg_pool("pool"),
        dense("fc", num_classes),
    ]


def _standin_b2(num_classes: int) -> list[LayerSpec]:
    return [
        conv2d("conv1", 8, 3, stride=2, padding="same"),
        batchnorm("bn1"),
        swish("act1"),
        conv2d("conv2", 16, 3, stride=2, padding="same"),
        batchnorm("bn2"),
        swish("act2"),
        global_avg_pool("pool"),
        dense("fc", num_classes),
    ]


def _standin_b5(num_classes: int) -> list[LayerSpec]:
    return [
        conv2d("conv1", 8, 3, stride=2, padding="same"),
        batchnorm("bn1"),
        swish("act1"),
        depthwise_conv2d("dwconv2", 3, stride=1, padding="same"),
        batchnorm("bn2"),
        swish("act2"),
        conv2d("conv3", 16, 3, stride=2, padding="same"),
        batchnorm("bn3"),
        swish("act3"),
        global_avg_pool("pool"),
        dense("fc", num_classes),
    ]


MODELS: dict[str, Callable[[int], list[LayerSpec]]] = {
    "toy_cnn": _toy_cnn,
    "toy_cnn_pool": _toy_cnn_pool,
    "b2": _standin_b2,
    "b5": _standin_b5,
}


def build_model(name: str, num_classes: int) -> list[LayerSpec]:
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}; known: {sorted(MODELS)}")
    return MODELS[name](num_classes)
