#!/usr/bin/env python3
"""Peak traced memory and wall time of minipod's data path and step at scale.

    python3 tools/peak_mem.py MODEL NxB GROUP PRECISION EXAMPLES
        [--eval-examples E] [--seed S]

For MODEL (toy_cnn, b2, ...) on N replicas of per-core batch B, BN groups of
GROUP replicas (a number for 1d groups, RxC for 2d tiles of the most-square
replica grid) and PRECISION (fp32 or mixed_bf16), it runs, in order and once
each:

- gen_synthetic: the synthetic train set of EXAMPLES examples (16x16x1,
  10 classes);
- shard_train_data: one epoch of its steps, every step read once;
- train_step: the epoch's first step;
- distributed_eval: one pass over a synthetic eval set of E examples
  (default 2,048, the run's), made before tracing starts, keeping nothing,
  as `minipod eval` does;
- eval_pass_1 and eval_pass_2: the first two passes of a training run over
  the same set, which keep its first-layer operand (trainer.EvalOperand):
  the first builds it on the calling thread before it walks, and both read
  it. The last line gives the MiB kept between them.

For each it prints the wall time, the tracemalloc peak during the call and
what was already allocated when the call began (the train set, for every
phase after the first). The first two peaks repeat exactly. The step and the
eval passes walk chunks on several threads (model.map_chunks), so their
peaks depend on how the threads' chunks overlap: on 2 cores at b5 1024x8 1
fp32 16384 --eval-examples 50000, two runs read 53.2 and 53.5 MiB for the
step (47.0 on one thread), 30.1 MiB for the plain eval pass both times (27.2
on one thread), and 140.2 and 140.0 MiB for the run's first and second
passes in both runs, which keep 109.9 MiB of patches between them.
Compare peaks across runs to within a chunk. A time is one call with
tracemalloc on and BLAS on one thread; under glibc's default policy a first
train step's time also depends on the sizes freed before it, which set the
allocator's mmap threshold, so compare times only roughly. The program under
test is src/minipod of the checkout this script sits in.

Examples, the pod-scale rows of ROADMAP item 8, and a pod's eval pass over
50,000 examples, the size of ImageNet's validation set:

    python3 tools/peak_mem.py toy_cnn 1024x64 8 fp32 262144
    python3 tools/peak_mem.py b5 1024x64 1 fp32 65536 --eval-examples 50000
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from minipod import trainer  # noqa: E402
from minipod.data import gen_synthetic  # noqa: E402
from minipod.optim import lr_at  # noqa: E402

MIB = 1 << 20


def measure(name: str, fn):
    """fn()'s result; prints its wall time and traced peak."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    t0 = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    print(f"{name:<18} {seconds:>9.3f} {peak / MIB:>10.1f} {before / MIB:>10.1f}")
    return out


def config(args) -> trainer.TrainConfig:
    replicas, batch = (int(v) for v in args.shape.split("x"))
    kw = dict(model=args.model, num_replicas=replicas, global_batch=replicas * batch,
              precision=args.precision, seed=args.seed)
    if "x" in args.group:
        rows, cols = (int(v) for v in args.group.split("x"))
        kw.update(bn_grouping="2d", tile_rows=rows, tile_cols=cols,
                  bn_group_size=rows * cols)
    else:
        kw.update(bn_group_size=int(args.group))
    return trainer.TrainConfig(**kw)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("model")
    p.add_argument("shape", help="replicas x per-core batch, e.g. 1024x64")
    p.add_argument("group", help="BN group size (1d) or RxC tile (2d)")
    p.add_argument("precision", choices=("fp32", "mixed_bf16"))
    p.add_argument("examples", type=int, help="train examples")
    p.add_argument("--eval-examples", type=int, default=trainer.SYNTHETIC_EVAL_N)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    cfg = config(args)
    spec = dict(trainer.SYNTHETIC_DEFAULTS, seed=cfg.seed)
    evalset = gen_synthetic(**dict(spec, n=args.eval_examples, noise_stream=1))
    print(f"{cfg.model} {cfg.precision}, {cfg.num_replicas} replicas x "
          f"{cfg.per_core_batch}, BN groups of {cfg.bn_groups.shape[1]}, "
          f"{args.examples} train examples, {args.eval_examples} eval examples "
          f"in rows of {cfg.eval_batch_for(len(evalset))}")
    print(f"{'phase':<18} {'seconds':>9} {'peak MiB':>10} {'held MiB':>10}")

    def one_epoch():
        steps = trainer.shard_train_data(
            train, cfg.num_replicas, cfg.per_core_batch, cfg.seed)
        for _ in steps:
            pass
        return steps

    tracemalloc.start()
    try:
        train = measure("gen_synthetic",
                        lambda: gen_synthetic(**dict(spec, n=args.examples)))
        steps = measure("shard_train_data", one_epoch)
        state = trainer.init_train_state(cfg, train.images.shape[1:], train.num_classes)
        first, lr = steps[0], lr_at(cfg.schedule(len(steps)), 0)
        measure("train_step", lambda: trainer.train_step(state, first, lr))
        eval_batch = cfg.eval_batch_for(len(evalset))

        def eval_pass(dataset):
            return lambda: trainer.distributed_eval(
                state.layers, state.params, state.bn_moving, dataset,
                cfg.num_replicas, eval_batch, cfg.policy)

        measure("distributed_eval", eval_pass(evalset))
        kept = trainer.EvalOperand(evalset, state.layers, cfg.policy, eval_batch)
        before = tracemalloc.get_traced_memory()[0]
        measure("eval_pass_1", eval_pass(kept))
        between = tracemalloc.get_traced_memory()[0] - before
        measure("eval_pass_2", eval_pass(kept))
        print(f"kept between the passes: {between / MIB:.1f} MiB")
    finally:
        tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
