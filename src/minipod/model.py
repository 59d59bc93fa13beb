"""Model definitions, the layer-op table and the lockstep multi-replica engine.

A model is an ordered list of LayerSpec ending in a softmax cross-entropy
head. LAYER_OPS maps each layer kind to its output-shape rule, its parameter
and moving-statistic init, its forward and its backward; shape inference,
initialization, training and evaluation all dispatch through it.

The engine walks the layers with all replicas advancing together, so
batch-normalization layers can share statistics across their replica group;
every other layer runs on each replica's batch in ascending replica order.
All replicas read one parameter list: synchronous replicas apply the same
update to the same all-reduced gradient, so their weights are equal by
construction. Evaluation is the same forward walk on one replica, with BN
normalizing by the moving statistics.

Under the mixed-precision policy the conv and depthwise entries round their
operands to bfloat16: the shared kernel once per engine call and each
replica's input once in forward; backward reuses the rounded tensors.
Entries look nn, distbn and precision functions up on their modules at call
time, so a wrapper installed on a module attribute sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import distbn, nn, precision
from .collectives import GroupAssignment, assign_groups_1d
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
    num_classes: int | None = None
    use_bias: bool = True

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")


def conv2d(name, out_channels, kernel_hw, stride=1, padding="same",
           use_bias=True) -> LayerSpec:
    # A conv feeding straight into BN should set use_bias=False: BN removes
    # any per-channel constant, leaving the bias with an exactly-zero gradient.
    kh, kw = (kernel_hw, kernel_hw) if isinstance(kernel_hw, int) else kernel_hw
    return LayerSpec("conv2d", name, out_channels=out_channels,
                     kernel_hw=(kh, kw), stride=stride, padding=padding,
                     use_bias=use_bias)


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


def softmax_xent_head(name, num_classes) -> LayerSpec:
    return LayerSpec("softmax_xent_head", name, num_classes=num_classes)


def validate_model(layers: list[LayerSpec]) -> None:
    names = [l.name for l in layers]
    if len(set(names)) != len(names):
        raise ValueError("layer names must be unique within a model")
    if not layers or layers[-1].kind != "softmax_xent_head":
        raise ValueError("model must end in a softmax_xent_head layer")
    for l in layers[:-1]:
        if l.kind == "softmax_xent_head":
            raise ValueError("softmax_xent_head must be the final layer")


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
    layers: list[LayerSpec], input_shape: tuple[int, ...], dtype=nn.DTYPE
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Fresh moving statistics (mean 0, var 1) for every BN layer."""
    return {l.name: LAYER_OPS[l.kind].moving(l, shape, dtype)
            for l, shape in _layer_inputs(layers, input_shape)
            if LAYER_OPS[l.kind].moving is not None}


# ---------------------------------------------------------------------------
# the layer-op table


@dataclass
class _Pass:
    """What one engine or eval call shares across its layers."""

    params: dict[str, Parameter]
    bn_moving: dict[str, tuple[np.ndarray, np.ndarray]]
    policy: precision.PrecisionPolicy
    bn_eps: float
    assignment: GroupAssignment | None  # None: inference, BN uses moving stats
    labels: list[np.ndarray] | None = None
    losses: list[float] = field(default_factory=list)
    grads: list[dict[str, np.ndarray]] = field(default_factory=list)
    bn_saved: dict[str, list[tuple[np.ndarray, np.ndarray]]] = field(
        default_factory=dict)

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


def _head_shape(l, shape):
    if shape != (l.num_classes,):
        raise ValueError(f"{l.name}: head expects {l.num_classes} features, has {shape}")
    return shape


def _kernel(l, seed, shape, gain, fan_in) -> Parameter:
    pname = f"{l.name}/kernel"
    std = float(np.sqrt(gain / fan_in))
    return Parameter(pname, truncated_normal(stream(seed, "init", pname), shape, std),
                     tag="kernel")


def _bias(l, n) -> Parameter:
    return Parameter(f"{l.name}/bias", np.zeros(n, dtype=nn.DTYPE), tag="bias")


def _conv2d_params(l, shape, seed):
    kh, kw = l.kernel_hw
    cin = shape[2]
    kernel = _kernel(l, seed, (kh, kw, cin, l.out_channels), 2.0, kh * kw * cin)
    return [kernel, _bias(l, l.out_channels)] if l.use_bias else [kernel]


def _depthwise_params(l, shape, seed):
    kh, kw = l.kernel_hw
    return [_kernel(l, seed, (kh, kw, shape[2]), 2.0, kh * kw)]


def _dense_params(l, shape, seed):
    fan_in = int(np.prod(shape))
    return [_kernel(l, seed, (fan_in, l.out_features), 1.0, fan_in),
            _bias(l, l.out_features)]


def _bn_params(l, shape, seed):
    c = shape[2]
    return [Parameter(f"{l.name}/gamma", np.ones(c, dtype=nn.DTYPE), tag="bn_gamma"),
            Parameter(f"{l.name}/beta", np.zeros(c, dtype=nn.DTYPE), tag="bn_beta")]


# Forward: (layer, pass, per-replica inputs) -> (per-replica outputs, what
# backward needs). Backward: (layer, pass, that, per-replica output grads)
# -> per-replica input grads; parameter grads go into pass.grads.


def _conv_forward(l, run, xs):
    # conv2d and depthwise_conv2d: nn.<kind>_forward, looked up per call.
    k = _conv_operand(run, run.value(l, "kernel"))
    xs = [_conv_operand(run, x) for x in xs]
    conv = getattr(nn, f"{l.kind}_forward")
    ys = [conv(x, k, l.stride, l.padding) for x in xs]
    bias = run.params.get(f"{l.name}/bias")  # depthwise and use_bias=False have none
    if bias is not None:
        ys = [y + bias.value for y in ys]
    return ys, (xs, k)


def _conv_backward(l, run, saved, gys):
    xs, k = saved
    conv_backward = getattr(nn, f"{l.kind}_backward")
    has_bias = f"{l.name}/bias" in run.params
    gxs = []
    for grads, x, gy in zip(run.grads, xs, gys):
        gx, grads[f"{l.name}/kernel"] = conv_backward(x, k, gy, l.stride, l.padding)
        if has_bias:
            grads[f"{l.name}/bias"] = gy.sum(axis=(0, 1, 2))
        gxs.append(gx)
    return gxs


def _dense_forward(l, run, xs):
    w, b = run.value(l, "kernel"), run.value(l, "bias")
    return [nn.dense_forward(x, w, b) for x in xs], xs


def _dense_backward(l, run, xs, gys):
    w = run.value(l, "kernel")
    gxs = []
    for grads, x, gy in zip(run.grads, xs, gys):
        gx, grads[f"{l.name}/kernel"], grads[f"{l.name}/bias"] = nn.dense_backward(
            x, w, gy)
        gxs.append(gx)
    return gxs


def _elementwise_forward(l, run, xs):
    # swish and global_avg_pool: nn.<kind>_forward, looked up per call.
    fn = getattr(nn, f"{l.kind}_forward")
    return [fn(x) for x in xs], xs


def _elementwise_backward(l, run, xs, gys):
    fn = getattr(nn, f"{l.kind}_backward")
    return [fn(x, gy) for x, gy in zip(xs, gys)]


def _bn_forward(l, run, xs):
    mm, mv = run.bn_moving[l.name]
    state = distbn.BnState(run.value(l, "gamma"), run.value(l, "beta"), mm, mv,
                           momentum=1.0, eps=run.bn_eps)
    if run.assignment is None:
        return [distbn.bn_inference(x, state) for x in xs], None
    ys = [None] * len(xs)
    stats = []
    for members in run.assignment.members:
        out, mean, var = distbn.group_bn_forward([xs[r] for r in members], state)
        for r, y in zip(members, out):
            ys[r] = y
        stats.append((mean, var))
    run.bn_saved[l.name] = stats
    return ys, (xs, state)


def _bn_backward(l, run, saved, gys):
    xs, state = saved
    gxs = [None] * len(xs)
    for members, (mean, var) in zip(run.assignment.members, run.bn_saved[l.name]):
        out, dgamma, dbeta = distbn.group_bn_backward(
            [xs[r] for r in members], [gys[r] for r in members], mean, var, state)
        # Group-reduced affine grads split evenly so the later all-replica
        # mean recovers the full-group sum exactly once.
        gsize = dgamma.dtype.type(len(members))
        for r, gx in zip(members, out):
            run.grads[r][f"{l.name}/gamma"] = dgamma / gsize
            run.grads[r][f"{l.name}/beta"] = dbeta / gsize
            gxs[r] = gx
    return gxs


def _head_forward(l, run, xs):
    out = [nn.softmax_xent(x, y) for x, y in zip(xs, run.labels)]
    run.losses = [float(loss) for loss, _ in out]
    return xs, [g for _, g in out]  # the head emits no activation


class LayerOps(NamedTuple):
    """Everything minipod does with one layer kind."""

    shape: Callable  # (layer, input shape) -> output shape
    params: Callable  # (layer, input shape, seed) -> [Parameter]
    moving: Callable | None  # (layer, input shape, dtype) -> (mean, var)
    forward: Callable
    backward: Callable


def _no_params(l, shape, seed):
    return []


LAYER_OPS: dict[str, LayerOps] = {
    "conv2d": LayerOps(
        _conv_shape, _conv2d_params, None, _conv_forward, _conv_backward),
    "depthwise_conv2d": LayerOps(
        _conv_shape, _depthwise_params, None, _conv_forward, _conv_backward),
    "dense": LayerOps(
        lambda l, shape: (l.out_features,), _dense_params, None,
        _dense_forward, _dense_backward),
    "batchnorm": LayerOps(
        lambda l, shape: _hwc(l, shape, "batchnorm"), _bn_params,
        lambda l, shape, dtype: (np.zeros(shape[2], dtype), np.ones(shape[2], dtype)),
        _bn_forward, _bn_backward),
    "swish": LayerOps(
        lambda l, shape: shape, _no_params, None,
        _elementwise_forward, _elementwise_backward),
    "global_avg_pool": LayerOps(
        lambda l, shape: (_hwc(l, shape, "pooling")[2],), _no_params, None,
        _elementwise_forward, _elementwise_backward),
    "softmax_xent_head": LayerOps(
        _head_shape, _no_params, None, _head_forward,
        lambda l, run, grad_logits, gys: grad_logits),
}
LAYER_KINDS = tuple(LAYER_OPS)


# ---------------------------------------------------------------------------
# lockstep engine


@dataclass
class EngineResult:
    losses: list[float]  # per replica, ascending index
    grads_per_replica: list[list[np.ndarray]] | None  # aligned with params order
    bn_saved: dict[str, list[tuple[np.ndarray, np.ndarray]]]  # per group, ascending

    @property
    def mean_loss(self) -> float:
        # Ascending-index sum: the scalar equivalent of an all-reduce mean.
        return sum(self.losses) / len(self.losses)


def distributed_forward_backward(
    layers: list[LayerSpec],
    params: list[Parameter],
    bn_moving: dict[str, tuple[np.ndarray, np.ndarray]],
    x_per_replica: list[np.ndarray],
    labels_per_replica: list[np.ndarray],
    assignment: GroupAssignment,
    policy: precision.PrecisionPolicy = precision.FP32_ONLY,
    bn_eps: float = distbn.DEFAULT_EPS,
    forward_only: bool = False,
) -> EngineResult:
    """One synchronized forward (and optionally backward) pass.

    Each replica consumes its own batch with the shared parameters; BN layers
    normalize over their replica group. Returned gradients are per-replica
    local contributions: their all-reduce mean is the gradient of the mean
    per-replica loss.
    """
    n = len(x_per_replica)
    if assignment.num_replicas != n:
        raise ValueError(
            f"group assignment covers {assignment.num_replicas} replicas, "
            f"engine got {n}"
        )
    validate_model(layers)
    run = _Pass({p.name: p for p in params}, bn_moving, policy, bn_eps, assignment,
                labels_per_replica, grads=[{} for _ in range(n)])
    acts, saved = list(x_per_replica), []
    for layer in layers:
        acts, s = LAYER_OPS[layer.kind].forward(layer, run, acts)
        saved.append(s)
    if forward_only:
        return EngineResult(run.losses, None, run.bn_saved)
    grads = None
    for layer, s in zip(reversed(layers), reversed(saved)):
        grads = LAYER_OPS[layer.kind].backward(layer, run, s, grads)
    grads_per_replica = [[g[p.name] for p in params] for g in run.grads]
    return EngineResult(run.losses, grads_per_replica, run.bn_saved)


def eval_forward(
    layers: list[LayerSpec],
    params: list[Parameter],
    bn_moving: dict[str, tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    policy: precision.PrecisionPolicy = precision.FP32_ONLY,
    bn_eps: float = distbn.DEFAULT_EPS,
) -> np.ndarray:
    """Single-replica inference pass; BN uses moving statistics. Returns logits."""
    validate_model(layers)
    run = _Pass({p.name: p for p in params}, bn_moving, policy, bn_eps, None)
    acts = [x]
    for layer in layers[:-1]:  # what a layer saves for backward is dropped at once
        acts = LAYER_OPS[layer.kind].forward(layer, run, acts)[0]
    return acts[0]


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
    bn_eps: float = distbn.DEFAULT_EPS,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The whole check runs in float64 (the numeric side is an oracle; float32
    differencing would drown small gradients in rounding noise). Relative
    error per element is |a - n| / max(|a|, |n|, 1e-8).
    """
    if eps <= 0:
        raise ValueError(f"grad_check eps must be > 0, got {eps}")
    if len(x) % num_replicas != 0:
        raise ValueError("batch must divide evenly across replicas")
    params64 = [
        Parameter(p.name, p.value.astype(np.float64), tag=p.tag) for p in params
    ]
    shards = np.split(np.asarray(x, dtype=np.float64), num_replicas)
    label_shards = np.split(np.asarray(labels), num_replicas)
    assignment = assign_groups_1d(num_replicas, group_size or num_replicas)
    moving = init_bn_moving(layers, x.shape[1:], dtype=np.float64)

    def run(forward_only: bool) -> EngineResult:
        return distributed_forward_backward(
            layers, params64, moving, shards, label_shards,
            assignment, bn_eps=bn_eps, forward_only=forward_only)

    base = run(forward_only=False)
    if not np.isfinite(base.mean_loss):
        raise FloatingPointError("non-finite loss in grad_check")
    analytic = [
        sum(base.grads_per_replica[r][i] for r in range(num_replicas)) / num_replicas
        for i in range(len(params64))
    ]

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
        conv2d("conv1", 8, 3, stride=2, padding="same", use_bias=False),
        batchnorm("bn1"),
        swish("act1"),
        dense("fc", num_classes),
        softmax_xent_head("head", num_classes),
    ]


def _toy_cnn_pool(num_classes: int) -> list[LayerSpec]:
    return [
        conv2d("conv1", 8, 3, stride=1, padding="same", use_bias=False),
        batchnorm("bn1"),
        swish("act1"),
        global_avg_pool("pool"),
        dense("fc", num_classes),
        softmax_xent_head("head", num_classes),
    ]


def _standin_b2(num_classes: int) -> list[LayerSpec]:
    return [
        conv2d("conv1", 8, 3, stride=2, padding="same", use_bias=False),
        batchnorm("bn1"),
        swish("act1"),
        conv2d("conv2", 16, 3, stride=2, padding="same", use_bias=False),
        batchnorm("bn2"),
        swish("act2"),
        global_avg_pool("pool"),
        dense("fc", num_classes),
        softmax_xent_head("head", num_classes),
    ]


def _standin_b5(num_classes: int) -> list[LayerSpec]:
    return [
        conv2d("conv1", 8, 3, stride=2, padding="same", use_bias=False),
        batchnorm("bn1"),
        swish("act1"),
        depthwise_conv2d("dwconv2", 3, stride=1, padding="same"),
        batchnorm("bn2"),
        swish("act2"),
        conv2d("conv3", 16, 3, stride=2, padding="same", use_bias=False),
        batchnorm("bn3"),
        swish("act3"),
        global_avg_pool("pool"),
        dense("fc", num_classes),
        softmax_xent_head("head", num_classes),
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
