#!/usr/bin/env python3
"""Learning-rate schedules: linear scaling per 256 samples, warmup, and the
two decays (RMSProp's exponential stairs, LARS's polynomial decay to zero),
plotted as text sparklines.
"""

from minipod.optim import ScheduleSpec, base_lr, lr_at

print("linear scaling rule (rate per 256 samples):")
for lr256, batch in [(0.016, 4096), (0.118, 32768), (0.081, 65536)]:
    print(f"  lr/256 {lr256:5.3f} at global batch {batch:6d} "
          f"-> base lr {base_lr(lr256, batch):.3f}")

SPE = 10
BARS = " .:-=+*#%@"


def sparkline(spec, until_epoch, points=72):
    peak = spec.peak_lr
    vals = [lr_at(spec, int(e / points * until_epoch * SPE))
            for e in range(points)]
    return "".join(BARS[min(int(v / peak * (len(BARS) - 1)), len(BARS) - 1)]
                   for v in vals)


exp = ScheduleSpec(0.016, 4096, warmup_epochs=5.0, steps_per_epoch=SPE,
                   total_epochs=90.0, decay="exponential")
poly = ScheduleSpec(0.118, 32768, warmup_epochs=50.0, steps_per_epoch=SPE,
                    total_epochs=350.0, decay="polynomial")

print(f"\nwarmup 5 epochs + exponential stairs (0.97 every 2.4 epochs), "
      f"epochs 0..90:\n  [{sparkline(exp, 90)}]")
print(f"\nwarmup 50 epochs + polynomial p=2 to zero, epochs 0..350:"
      f"\n  [{sparkline(poly, 350)}]")

print("\nclosed-form checkpoints:")
print(f"  exp  at warmup end (epoch 5):    {lr_at(exp, 5 * SPE):.6f}")
print(f"  exp  one decay later (epoch 7.4): {lr_at(exp, 74):.6f} "
      f"(= 0.97 x peak)")
print(f"  poly at warmup end (epoch 50):   {lr_at(poly, 50 * SPE):.4f}")
print(f"  poly halfway (epoch 200):        {lr_at(poly, 200 * SPE):.4f} "
      f"(= peak/4)")
print(f"  poly at the end (epoch 350):     {lr_at(poly, 350 * SPE):.4f}")
