#!/usr/bin/env python3
"""Train the toy CNN on a simulated 8-replica pod, both optimizer recipes,
and show the determinism guarantee in action.
"""

from minipod.config import preset_config
from minipod.optim import DECAYS
from minipod.trainer import format_metrics_csv, run, time_to_peak

for name in ("toy-rmsprop-512", "toy-lars-2048"):
    cfg = preset_config(name)
    print(f"== {name}: {cfg.num_replicas} replicas, global batch "
          f"{cfg.global_batch}, {cfg.optimizer}, lr/256 {cfg.lr_per_256}, "
          f"{DECAYS[cfg.optimizer]} decay, warmup {cfg.warmup_epochs} epochs")
    records, _ = run(cfg)
    evals = [(r.epoch, r.eval_top1) for r in records if r.eval_top1 is not None]
    for epoch, top1 in evals:
        print(f"   epoch {epoch:5.1f}  top-1 {top1:.4f}")
    peak, minutes = time_to_peak(records)
    print(f"   peak {peak:.4f} first reached at modeled minute {minutes:.2f} "
          f"(modeled step {records[0].modeled_step_ms:.1f} ms, "
          f"all-reduce {records[0].allreduce_frac:.2f}%)\n")

print("determinism: the identical config trains to bit-identical metrics")
a = format_metrics_csv(run(preset_config("toy-rmsprop-512", total_epochs=2.0))[0])
b = format_metrics_csv(run(preset_config("toy-rmsprop-512", total_epochs=2.0))[0])
print(f"  two fresh runs, CSV bytes equal: {a == b}")
