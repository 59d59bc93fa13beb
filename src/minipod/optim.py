"""RMSProp and LARS optimizers plus the learning-rate schedule engine.

The schedule scales a reference rate linearly with the global batch (per 256
samples), warms up linearly from zero, then decays as the optimizer's recipe
does (DECAYS): RMSProp by EfficientNet's exponential staircase, EXP_DECAY_RATE
every EPOCHS_PER_DECAY epochs, and LARS polynomially, with power POLY_POWER,
to zero at total_epochs. Schedule arithmetic is float64 so closed-form checks
hold to 1e-12; optimizer steps run in whatever dtype the parameters carry
(float32 in training).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import Parameter

EXCLUDED_FROM_ADAPTATION = frozenset({"bias", "bn_gamma", "bn_beta"})


def _check_momentum(momentum: float) -> None:
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0,1), got {momentum}")


@dataclass(frozen=True)
class RmsPropConfig:
    decay: float = 0.9
    momentum: float = 0.9
    eps: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.decay < 1.0:
            raise ValueError(f"rmsprop decay must be in (0,1), got {self.decay}")
        _check_momentum(self.momentum)
        # Chained comparisons against inf reject NaN and infinities too.
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"rmsprop eps must be finite and > 0, got {self.eps}")


@dataclass(frozen=True)
class LarsConfig:
    eta: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 1e-5

    def __post_init__(self):
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"lars eta must be finite and > 0, got {self.eta}")
        _check_momentum(self.momentum)
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(
                f"lars weight_decay must be finite and >= 0, got {self.weight_decay}")


@dataclass
class OptimizerState:
    """Per-parameter slot tensors, keyed by parameter name."""

    kind: str
    slots: dict[str, dict[str, np.ndarray]]

    _SLOT_NAMES = {"rmsprop": ("acc", "mom"), "lars": ("mom",)}

    @classmethod
    def for_params(cls, kind: str, params: list[Parameter]) -> "OptimizerState":
        if kind not in cls._SLOT_NAMES:
            raise ValueError(f"unknown optimizer kind {kind!r}")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        slots = {
            p.name: {s: np.zeros_like(p.value) for s in cls._SLOT_NAMES[kind]}
            for p in params
        }
        return cls(kind, slots)


# The decay each optimizer's recipe uses, and the recipes' decay constants.
DECAYS = {"rmsprop": "exponential", "lars": "polynomial"}
EXP_DECAY_RATE = 0.97
EPOCHS_PER_DECAY = 2.4
POLY_POWER = 2.0


def _check_step_args(params, grads, state, kind):
    if state.kind != kind:
        raise ValueError(f"optimizer state is for {state.kind!r}, not {kind!r}")
    if len(grads) != len(params):
        raise ValueError("one gradient per parameter required")
    for p, g in zip(params, grads):
        if g.shape != p.value.shape:
            raise ValueError(
                f"gradient shape {g.shape} != parameter {p.name} shape "
                f"{p.value.shape}"
            )


def rmsprop_step(
    params: list[Parameter],
    grads: list[np.ndarray],
    lr: float,
    cfg: RmsPropConfig,
    state: OptimizerState,
) -> None:
    """acc <- rho*acc + (1-rho)*g^2; mom <- m*mom + lr*g/sqrt(acc+eps); w -= mom."""
    _check_step_args(params, grads, state, "rmsprop")
    for p, g in zip(params, grads):
        sl = state.slots[p.name]
        acc, mom = sl["acc"], sl["mom"]
        np.multiply(acc, cfg.decay, out=acc)
        acc += (1.0 - cfg.decay) * (g * g)
        np.multiply(mom, cfg.momentum, out=mom)
        mom += lr * g / np.sqrt(acc + cfg.eps)
        p.value -= mom


def lars_trust_ratio(w_norm: float, g_norm: float, cfg: LarsConfig) -> float:
    """Layer-adaptation multiplier eta*|w| / (|g| + wd*|w|).

    Degenerate layers (zero weight norm, or zero denominator) fall back to 1
    so the update reduces to plain momentum SGD.
    """
    if w_norm < 0 or g_norm < 0:
        raise ValueError("norms must be >= 0")
    denom = g_norm + cfg.weight_decay * w_norm
    if w_norm > 0 and denom > 0:
        return cfg.eta * w_norm / denom
    return 1.0


def lars_step(
    params: list[Parameter],
    grads: list[np.ndarray],
    lr: float,
    cfg: LarsConfig,
    state: OptimizerState,
) -> None:
    """Momentum SGD with per-layer trust-ratio scaling and weight decay.

    Parameters whose tag is in EXCLUDED_FROM_ADAPTATION (biases and BN affine
    terms) skip both the adaptation and the weight decay.
    """
    _check_step_args(params, grads, state, "lars")
    for p, g in zip(params, grads):
        mom = state.slots[p.name]["mom"]
        if p.tag in EXCLUDED_FROM_ADAPTATION:
            local_lr = lr
            step_grad = g
        else:
            w_norm = float(np.linalg.norm(p.value))
            g_norm = float(np.linalg.norm(g))
            local_lr = lr * lars_trust_ratio(w_norm, g_norm, cfg)
            step_grad = g + cfg.weight_decay * p.value if cfg.weight_decay else g
        np.multiply(mom, cfg.momentum, out=mom)
        mom += local_lr * step_grad
        p.value -= mom


# ---------------------------------------------------------------------------
# learning-rate schedule


def base_lr(lr_per_256: float, global_batch: int) -> float:
    """Linear scaling rule: the reference rate applied per 256 samples."""
    if global_batch < 1:
        raise ValueError(f"global batch must be >= 1, got {global_batch}")
    return lr_per_256 * global_batch / 256.0


@dataclass(frozen=True)
class ScheduleSpec:
    lr_per_256: float
    global_batch: int
    warmup_epochs: float
    steps_per_epoch: int
    total_epochs: float = 350.0
    decay: str = "polynomial"

    def __post_init__(self):
        if not 0.0 < self.lr_per_256 < math.inf:
            raise ValueError(f"lr_per_256 must be finite and > 0, got {self.lr_per_256}")
        if self.steps_per_epoch < 1:
            raise ValueError("steps_per_epoch must be >= 1")
        if not 0.0 <= self.warmup_epochs <= self.total_epochs:
            raise ValueError(
                f"need 0 <= warmup ({self.warmup_epochs}) <= total "
                f"({self.total_epochs})"
            )
        if self.decay not in DECAYS.values():
            raise ValueError(f"decay must be exponential or polynomial, got {self.decay!r}")

    @property
    def peak_lr(self) -> float:
        return base_lr(self.lr_per_256, self.global_batch)


# Guards floor() against float noise when an epoch lands exactly on a decay
# boundary; boundaries are assigned to the new stair (right-continuous).
_BOUNDARY_EPS = 1e-9


def lr_at(spec: ScheduleSpec, step: int) -> float:
    """Learning rate at an integer step of the schedule."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    e = step / spec.steps_per_epoch
    peak = spec.peak_lr
    if e < spec.warmup_epochs:
        return peak * e / spec.warmup_epochs
    if spec.decay == "exponential":
        k = math.floor((e - spec.warmup_epochs) / EPOCHS_PER_DECAY + _BOUNDARY_EPS)
        return peak * EXP_DECAY_RATE**k
    if e >= spec.total_epochs:
        return 0.0
    frac = (e - spec.warmup_epochs) / (spec.total_epochs - spec.warmup_epochs)
    return peak * (1.0 - frac) ** POLY_POWER
