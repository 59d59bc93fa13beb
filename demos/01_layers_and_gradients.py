#!/usr/bin/env python3
"""Build a small CNN, run a forward/backward pass, and verify every gradient
against central finite differences.

The gradient checker perturbs each parameter element in turn, so it is the
slow-but-trustworthy reference everything else leans on.
"""

import numpy as np

from minipod import gen_synthetic
from minipod.model import (
    build_model,
    distributed_forward_backward,
    grad_check,
    infer_shapes,
    init_params,
)
from minipod.distbn import assign_groups_1d

ds = gen_synthetic(num_classes=4, n=8, height=8, width=8, channels=1, seed=3)

layers = build_model("toy_cnn_pool", num_classes=4)
print("model pipeline:")
for layer, shape in zip(layers, infer_shapes(layers, ds.images.shape[1:])):
    print(f"  {layer.kind:18s} {layer.name:8s} -> {shape}")

params = init_params(layers, ds.images.shape[1:], seed=0)
print(f"\nparameters: {sum(p.value.size for p in params)} elements in "
      f"{len(params)} tensors")

res = distributed_forward_backward(  # one replica
    layers, params, ds.images[None], ds.labels[None], assign_groups_1d(1, 1))
print(f"loss on random init: {res.mean_loss:.4f} (uniform would be "
      f"{np.log(4):.4f})")

err = grad_check(layers, params, ds.images, ds.labels, eps=1e-3)
print(f"gradcheck max relative error: {err:.2e} (single replica)")

err = grad_check(layers, params, ds.images, ds.labels, eps=1e-3,
                 num_replicas=4, group_size=2)
print(f"gradcheck max relative error: {err:.2e} (4 replicas, BN groups of 2)")
