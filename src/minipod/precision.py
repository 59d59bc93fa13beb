"""bfloat16 emulation and the mixed-precision policy.

A policy's mode is the config's ``precision`` value: ``fp32``, or
``mixed_bf16``, which rounds convolution operands (inputs and kernels) to the
nearest bfloat16-representable value and accumulates in fp32; every non-conv
operation stays fp32. Values are computed as fp32 throughout -- the emulation
is numerical; only a prepared eval set's first-layer patches are stored as
their high 16 bits (bf16_bits), which data.as_float32 widens where a pass
reads them. The conv and depthwise entries of
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


_QUIET = np.uint16(0x0040)


def bf16_bits(x: np.ndarray) -> np.ndarray:
    """The high 16 bits of fp32 values that to_bf16 gave, as uint16; widened
    back by data.as_float32 they are the same values. A NaN stays NaN with
    its sign: to_bf16 keeps its payload, which may lie in the low bits
    alone and would truncate to an infinity, so its quiet bit is set."""
    hi = (np.ascontiguousarray(x, np.float32).view(np.uint32) >> _SIXTEEN).astype(np.uint16)
    nan = np.isnan(x)
    if nan.any():
        hi[nan] |= _QUIET
    return hi
