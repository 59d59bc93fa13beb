"""Model definitions and the lockstep multi-replica execution engine.

A model is an ordered list of LayerSpec ending in a softmax cross-entropy
head. The engine walks the layers with all replicas advancing together, so
batch-normalization layers can share statistics across their replica group;
every other layer runs on each replica's batch in ascending replica order.
All replicas read one parameter list: synchronous replicas apply the same
update to the same all-reduced gradient, so their weights are equal by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import distbn, nn, precision
from .collectives import GroupAssignment, assign_groups_1d
from .nn import Parameter
from .rng import stream, truncated_normal

LAYER_KINDS = (
    "conv2d",
    "depthwise_conv2d",
    "dense",
    "batchnorm",
    "swish",
    "relu",
    "global_avg_pool",
    "softmax_xent_head",
)


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


def relu(name) -> LayerSpec:
    return LayerSpec("relu", name)


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
        if l.kind in ("conv2d", "depthwise_conv2d"):
            if len(shape) != 3:
                raise ValueError(f"{l.name}: conv needs HWC input, has {shape}")
            h, w, c = shape
            kh, kw = l.kernel_hw
            ho, wo, _ = nn._conv_geometry(h, w, kh, kw, l.stride, l.padding)
            co = l.out_channels if l.kind == "conv2d" else c
            shape = (ho, wo, co)
        elif l.kind == "dense":
            shape = (l.out_features,)
        elif l.kind == "batchnorm":
            if len(shape) != 3:
                raise ValueError(f"{l.name}: batchnorm needs HWC input, has {shape}")
        elif l.kind == "global_avg_pool":
            if len(shape) != 3:
                raise ValueError(f"{l.name}: pooling needs HWC input, has {shape}")
            shape = (shape[2],)
        elif l.kind == "softmax_xent_head":
            if shape != (l.num_classes,):
                raise ValueError(
                    f"{l.name}: head expects {l.num_classes} features, has {shape}"
                )
        shapes.append(shape)
    return shapes


def init_params(
    layers: list[LayerSpec], input_shape: tuple[int, ...], seed: int
) -> list[Parameter]:
    """Truncated-normal fan-in init for kernels; zeros/ones elsewhere.

    Each parameter draws from its own (seed, "init", name) stream, so the
    result does not depend on replica count or parameter order.
    """
    validate_model(layers)
    params: list[Parameter] = []
    shape = tuple(input_shape)
    for l, out_shape in zip(layers, infer_shapes(layers, input_shape)):
        if l.kind == "conv2d":
            kh, kw = l.kernel_hw
            cin = shape[2]
            kshape = (kh, kw, cin, l.out_channels)
            std = float(np.sqrt(2.0 / (kh * kw * cin)))
            pname = f"{l.name}/kernel"
            params.append(Parameter(
                pname, truncated_normal(stream(seed, "init", pname), kshape, std),
                tag="kernel"))
            if l.use_bias:
                params.append(Parameter(
                    f"{l.name}/bias", np.zeros(l.out_channels, dtype=nn.DTYPE),
                    tag="bias"))
        elif l.kind == "depthwise_conv2d":
            kh, kw = l.kernel_hw
            c = shape[2]
            std = float(np.sqrt(2.0 / (kh * kw)))
            pname = f"{l.name}/kernel"
            params.append(Parameter(
                pname, truncated_normal(stream(seed, "init", pname), (kh, kw, c), std),
                tag="kernel"))
        elif l.kind == "dense":
            fan_in = int(np.prod(shape))
            std = float(np.sqrt(1.0 / fan_in))
            pname = f"{l.name}/kernel"
            params.append(Parameter(
                pname,
                truncated_normal(stream(seed, "init", pname),
                                 (fan_in, l.out_features), std),
                tag="kernel"))
            params.append(Parameter(
                f"{l.name}/bias", np.zeros(l.out_features, dtype=nn.DTYPE),
                tag="bias"))
        elif l.kind == "batchnorm":
            c = shape[2]
            params.append(Parameter(
                f"{l.name}/gamma", np.ones(c, dtype=nn.DTYPE), tag="bn_gamma"))
            params.append(Parameter(
                f"{l.name}/beta", np.zeros(c, dtype=nn.DTYPE), tag="bn_beta"))
        shape = out_shape
    return params


def init_bn_moving(
    layers: list[LayerSpec], input_shape: tuple[int, ...], dtype=nn.DTYPE
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Fresh moving statistics (mean 0, var 1) for every BN layer."""
    moving = {}
    shape = tuple(input_shape)
    for l, out_shape in zip(layers, infer_shapes(layers, input_shape)):
        if l.kind == "batchnorm":
            c = shape[2]
            moving[l.name] = (np.zeros(c, dtype=dtype), np.ones(c, dtype=dtype))
        shape = out_shape
    return moving


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


def _bn_state_for(pmap, layer_name: str, moving, bn_eps: float) -> distbn.BnState:
    gamma = pmap[f"{layer_name}/gamma"].value
    beta = pmap[f"{layer_name}/beta"].value
    mm, mv = moving[layer_name]
    return distbn.BnState(gamma, beta, mm, mv, momentum=1.0, eps=bn_eps)


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
    pmap = {p.name: p for p in params}

    acts = list(x_per_replica)
    stash: list = []
    losses: list[float] = [0.0] * n
    grad_acts: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    bn_saved: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}

    for layer in layers:
        kind = layer.kind
        if kind == "conv2d":
            k = pmap[f"{layer.name}/kernel"].value
            outs = [precision.conv2d_mixed(a, k, layer.stride, layer.padding, policy)
                    for a in acts]
            if layer.use_bias:
                bias = pmap[f"{layer.name}/bias"].value
                outs = [y + bias for y in outs]
        elif kind == "depthwise_conv2d":
            k = pmap[f"{layer.name}/kernel"].value
            outs = [precision.depthwise_conv2d_mixed(
                a, k, layer.stride, layer.padding, policy) for a in acts]
        elif kind == "dense":
            w = pmap[f"{layer.name}/kernel"].value
            bias = pmap[f"{layer.name}/bias"].value
            outs = [nn.dense_forward(a, w, bias) for a in acts]
        elif kind == "swish":
            outs = [nn.swish_forward(a) for a in acts]
        elif kind == "relu":
            outs = [nn.relu_forward(a) for a in acts]
        elif kind == "global_avg_pool":
            outs = [nn.global_avg_pool_forward(a) for a in acts]
        elif kind == "batchnorm":
            outs = [None] * n
            saved_groups = []
            state = _bn_state_for(pmap, layer.name, bn_moving, bn_eps)
            for members in assignment.members:
                ys, mean, var = distbn.group_bn_forward(
                    [acts[r] for r in members], state)
                for r, y in zip(members, ys):
                    outs[r] = y
                saved_groups.append((mean, var))
            bn_saved[layer.name] = saved_groups
        else:  # softmax_xent_head
            head_out = [nn.softmax_xent(a, y) for a, y in zip(acts, labels_per_replica)]
            losses = [float(lo) for lo, _ in head_out]
            grad_acts = [g for _, g in head_out]
            outs = acts  # head emits no activation
        stash.append(acts)
        acts = outs

    if forward_only:
        return EngineResult(losses, None, bn_saved)

    grads_by_name: list[dict[str, np.ndarray]] = [{} for _ in range(n)]
    for idx in range(len(layers) - 2, -1, -1):
        layer = layers[idx]
        kind = layer.kind
        layer_in = stash[idx]
        if kind == "conv2d":
            k = pmap[f"{layer.name}/kernel"].value
            for r in range(n):
                gx, gk = precision.conv2d_mixed_backward(
                    layer_in[r], k, grad_acts[r], layer.stride, layer.padding, policy)
                grads_by_name[r][f"{layer.name}/kernel"] = gk
                if layer.use_bias:
                    grads_by_name[r][f"{layer.name}/bias"] = grad_acts[r].sum(
                        axis=(0, 1, 2))
                grad_acts[r] = gx
        elif kind == "depthwise_conv2d":
            k = pmap[f"{layer.name}/kernel"].value
            for r in range(n):
                gx, gk = precision.depthwise_conv2d_mixed_backward(
                    layer_in[r], k, grad_acts[r], layer.stride, layer.padding, policy)
                grads_by_name[r][f"{layer.name}/kernel"] = gk
                grad_acts[r] = gx
        elif kind == "dense":
            w = pmap[f"{layer.name}/kernel"].value
            for r in range(n):
                gx, gw, gb = nn.dense_backward(layer_in[r], w, grad_acts[r])
                grads_by_name[r][f"{layer.name}/kernel"] = gw
                grads_by_name[r][f"{layer.name}/bias"] = gb
                grad_acts[r] = gx
        elif kind == "swish":
            grad_acts = [nn.swish_backward(a, g) for a, g in zip(layer_in, grad_acts)]
        elif kind == "relu":
            grad_acts = [nn.relu_backward(a, g) for a, g in zip(layer_in, grad_acts)]
        elif kind == "global_avg_pool":
            grad_acts = [nn.global_avg_pool_backward(a, g)
                         for a, g in zip(layer_in, grad_acts)]
        elif kind == "batchnorm":
            state = _bn_state_for(pmap, layer.name, bn_moving, bn_eps)
            for gi, members in enumerate(assignment.members):
                mean, var = bn_saved[layer.name][gi]
                gxs, dgamma, dbeta = distbn.group_bn_backward(
                    [layer_in[r] for r in members], [grad_acts[r] for r in members],
                    mean, var, state)
                # Group-reduced affine grads split evenly so the later
                # all-replica mean recovers the full-group sum exactly once.
                gsize = dgamma.dtype.type(len(members))
                for r, gx in zip(members, gxs):
                    grads_by_name[r][f"{layer.name}/gamma"] = dgamma / gsize
                    grads_by_name[r][f"{layer.name}/beta"] = dbeta / gsize
                    grad_acts[r] = gx

    grads_per_replica = [[g[p.name] for p in params] for g in grads_by_name]
    return EngineResult(losses, grads_per_replica, bn_saved)


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
    pmap = {p.name: p for p in params}
    act = x
    for layer in layers[:-1]:
        kind = layer.kind
        if kind == "conv2d":
            act = precision.conv2d_mixed(
                act, pmap[f"{layer.name}/kernel"].value,
                layer.stride, layer.padding, policy)
            if layer.use_bias:
                act = act + pmap[f"{layer.name}/bias"].value
        elif kind == "depthwise_conv2d":
            act = precision.depthwise_conv2d_mixed(
                act, pmap[f"{layer.name}/kernel"].value,
                layer.stride, layer.padding, policy)
        elif kind == "dense":
            act = nn.dense_forward(
                act, pmap[f"{layer.name}/kernel"].value,
                pmap[f"{layer.name}/bias"].value)
        elif kind == "swish":
            act = nn.swish_forward(act)
        elif kind == "relu":
            act = nn.relu_forward(act)
        elif kind == "global_avg_pool":
            act = nn.global_avg_pool_forward(act)
        else:  # batchnorm
            act = distbn.bn_inference(
                act, _bn_state_for(pmap, layer.name, bn_moving, bn_eps))
    return act


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
