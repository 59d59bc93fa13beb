"""bfloat16 emulation and the mixed-precision policy.

A policy's mode is the config's ``precision`` value: ``fp32``, or
``mixed_bf16``, which rounds convolution operands (inputs and kernels) to the
nearest bfloat16-representable value and accumulates in fp32; every non-conv
operation stays fp32. Values are stored as fp32 throughout -- the emulation is
numerical, not a memory-layout change. The conv and depthwise entries of
``model.LAYER_OPS`` apply the policy: they round the shared kernel once per
engine call and each replica's input once in forward, and backward reuses
those rounded operands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_HI_MASK = np.uint32(0xFFFF0000)
_HALF_ULP = np.uint32(0x7FFF)
_ONE = np.uint32(1)
_SIXTEEN = np.uint32(16)


@dataclass(frozen=True)
class PrecisionPolicy:
    mode: str

    def __post_init__(self):
        if self.mode not in ("fp32", "mixed_bf16"):
            raise ValueError(f"precision must be fp32 or mixed_bf16, got {self.mode!r}")

    @property
    def rounds_conv(self) -> bool:
        return self.mode == "mixed_bf16"


FP32_ONLY = PrecisionPolicy("fp32")
MIXED_BF16_CONV = PrecisionPolicy("mixed_bf16")


def to_bf16(x) -> np.ndarray:
    """Round fp32 values to the nearest bfloat16-representable fp32 value.

    Round-to-nearest-even on the 16 discarded mantissa bits: bits + 0x7FFF
    + (lowest kept bit), then the low 16 bits cleared, computed in place in
    one uint32 buffer. NaNs pass through unchanged (copied back only when
    there are any), infinities are preserved, and finite values beyond the
    bf16 range round to infinity as RNE requires. Other dtypes are converted
    to fp32 first. The result is a new C-contiguous fp32 array of x's shape;
    x is never written.
    """
    arr = np.asarray(x, dtype=np.float32, order="C")
    flat = arr.reshape(-1)
    bits = flat.view(np.uint32)
    out = bits >> _SIXTEEN
    out &= _ONE
    out += _HALF_ULP
    out += bits
    out &= _HI_MASK
    out = out.view(np.float32)
    nan = np.isnan(flat)
    if nan.any():
        out[nan] = flat[nan]
    return out.reshape(arr.shape)
