#!/usr/bin/env python3
"""RMSProp vs LARS on a bumpy quadratic, and the LARS properties that matter
at large batch: trust-ratio scaling and gradient-scale invariance.
"""

import numpy as np

from minipod.nn import Parameter
from minipod.optim import (
    LarsConfig,
    OptimizerState,
    RmsPropConfig,
    lars_step,
    lars_trust_ratio,
    rmsprop_step,
)

rng = np.random.default_rng(0)
target = rng.standard_normal(16)


def quadratic_grad(w):
    return 2.0 * (w - target)


for kind, cfg, lr in [("rmsprop", RmsPropConfig(0.9, 0.9, 1e-3), 0.05),
                      ("lars", LarsConfig(eta=0.05, momentum=0.9), 0.5)]:
    p = Parameter("w", np.zeros(16, dtype=np.float64) + 4.0)
    state = OptimizerState.for_params(kind, [p])
    step = rmsprop_step if kind == "rmsprop" else lars_step
    losses = []
    for t in range(60):
        g = quadratic_grad(p.value)
        step([p], [g], lr, cfg, state)
        losses.append(float(((p.value - target) ** 2).sum()))
    picks = ", ".join(f"{losses[t]:8.4f}" for t in (0, 9, 29, 59))
    print(f"{kind:8s} loss at steps 1/10/30/60: {picks}")

print("\ntrust ratio eta*|w| / (|g| + wd*|w|):")
cfg = LarsConfig(eta=0.001, weight_decay=1e-5)
for w_norm, g_norm in [(10.0, 1.0), (10.0, 100.0), (0.1, 1.0), (0.0, 1.0)]:
    r = lars_trust_ratio(w_norm, g_norm, cfg)
    print(f"  |w|={w_norm:6.2f} |g|={g_norm:6.2f} -> ratio {r:.2e}")

print("\ngradient-scale invariance (wd=0, m=0): the applied step only "
      "depends on the gradient direction")
w0 = rng.standard_normal(target.size)
for scale in (1.0, 1e-6, 1e6):
    p = Parameter("w", w0.copy())
    st = OptimizerState.for_params("lars", [p])
    lars_step([p], [quadratic_grad(w0) * scale], 0.9,
              LarsConfig(eta=0.001, momentum=0.0, weight_decay=0.0), st)
    print(f"  gradient x {scale:8.0e} -> |step| = "
          f"{float(np.linalg.norm(w0 - p.value)):.10f}")
