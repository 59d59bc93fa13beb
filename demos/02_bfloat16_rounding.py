#!/usr/bin/env python3
"""bfloat16 rounding up close: nearest-even behavior, the error bound of a
mixed-precision convolution run through the model engine, and why fp32
accumulation keeps it tame.
"""

import numpy as np

from minipod import nn
from minipod.model import conv2d, eval_forward, global_avg_pool
from minipod.nn import Parameter
from minipod.precision import FP32_ONLY, MIXED_BF16_CONV, to_bf16


def bits(x):
    return f"0x{np.float32(x).view(np.uint32):08x}"


print("value            -> bf16-rounded        (fp32 bit patterns)")
for v in [1.0, 0.1, 1 + 2**-9, 1 + 2**-8, 1 + 2**-7 + 2**-8, 3.14159265]:
    q = float(to_bf16(np.float32(v)))
    print(f"{v!r:16} -> {q!r:20} {bits(v)} -> {bits(q)}")

print("\nexact ties round to the even mantissa:")
print(f"  1 + 2^-8          -> {float(to_bf16(np.float32(1 + 2**-8)))!r} (down, even)")
print(f"  1 + 2^-7 + 2^-8   -> {float(to_bf16(np.float32(1 + 2**-7 + 2**-8)))!r} (up, even)")

rng = np.random.default_rng(0)
x = rng.random((1, 4, 16, 16, 8)).astype(np.float32)  # [replicas, batch, H, W, C]
k = rng.random((3, 3, 8, 8)).astype(np.float32)
# conv -> pool: the logits are the per-channel means of the conv output
layers = [conv2d("conv", 8, 3), global_avg_pool("pool")]
params = [Parameter("conv/kernel", k)]
exact = eval_forward(layers, params, {}, x, FP32_ONLY)
mixed = eval_forward(layers, params, {}, x, MIXED_BF16_CONV)
rel = np.abs(mixed - exact) / np.abs(exact)
acc_len = 3 * 3 * 8
print("\nmixed vs fp32 conv on positive inputs (pooled logits):")
print(f"  max relative error {rel.max():.2e}")
print(f"  bound 2^-7 * accumulation length = {2**-7 * acc_len:.2e}")

plain = nn.global_avg_pool_forward(nn.conv2d_forward(nn.im2col(x, k), k))
same = exact.tobytes() == plain.tobytes()
print(f"  fp32 policy bitwise identical to nn: {same}")
