"""Host wall-clock benchmark of minipod: training and eval throughput.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program under test is ``src/minipod`` of
that checkout, driven through the command a user runs (``minipod train`` via
``cli.main``). Runs of the workload repeat until ``--seconds`` have passed.
With ``--trace 0`` every run is untraced and the last output line reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` untraced and traced
runs alternate and it reports the per-layer metrics. Every run's outputs are
checked; see README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads: one thread per process keeps
# the runs comparable on a shared host and never exceeds nproc.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.dont_write_bytecode = True

import argparse
import contextlib
import ctypes
import inspect
import io
import json
import math
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work" / str(os.getpid())
OUT = ROOT / ".perfbench_out"



def pin_allocator() -> str:
    """Keep freed memory in the process for reuse. Under glibc's default
    policy, whether a large array costs fresh page faults depends on the
    allocation history and on how many huge pages the host has free, which
    split otherwise identical runs into a fast and a slow mode."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return "default"
    m_trim_threshold, m_mmap_threshold = -1, -3
    if (libc.mallopt(m_mmap_threshold, 32 << 20) == 1
            and libc.mallopt(m_trim_threshold, 1 << 30) == 1):
        return "glibc mmap_threshold=32MiB trim_threshold=1GiB"
    return "default"


MALLOC = pin_allocator()

sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import minipod
    from minipod import cli, data, trainer
except ImportError as e:
    sys.exit(f"perfbench: cannot import minipod from {SRC}: {e}")
if not Path(minipod.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"perfbench: imported minipod from {minipod.__file__}, not from {SRC}")

import tracing  # noqa: E402  (needs minipod on the path)
from tracing import EVAL, STEP, Recorder  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # minipod config-file text, without the dataset and seed lines
    global_batch: int
    steps_per_epoch: int
    min_top1: float  # quality floor every run must reach
    spans: frozenset  # spans a traced run must enter
    idx: tuple[int, int] | None = None  # (train, eval) examples read from IDX


# Per-layer spans counted per run, and spans that exist only in eval passes.
# Every other span is counted per train step.
SETUP_SPANS = {"trainer.shard_train_data", "trainer.build_datasets",
               "trainer.init_train_state", "data.gen_synthetic",
               "data.load_idx", "rng.stream"}
EVAL_PHASE_SPANS = {EVAL, "model.eval_forward", "distbn.bn_inference",
                    "collectives.all_reduce.eval"}

# Spans every workload enters.
_SPANS = EVAL_PHASE_SPANS | {
    STEP, "model.distributed_forward_backward", "nn.conv2d_forward",
    "nn.conv2d_backward", "nn.swish_forward", "nn.swish_backward",
    "nn.dense_forward", "nn.dense_backward", "nn.softmax_xent",
    "distbn.group_bn_forward", "distbn.group_bn_backward",
    "distbn.update_moving_stats", "collectives.all_reduce.grad",
    "collectives.all_reduce.bn", "trainer.shard_train_data",
    "trainer.build_datasets", "trainer.init_train_state", "rng.stream"}

WORKLOADS = {w.name: w for w in (
    Workload(
        "train-8x64-fp32",
        "preset = toy-rmsprop-512\n",
        global_batch=512, steps_per_epoch=8192 // 512, min_top1=0.95,
        spans=frozenset(_SPANS | {"optim.rmsprop_step", "data.gen_synthetic"})),
    # Two epochs over 4,096 IDX examples instead of the preset's 20 over
    # 8,192 synthetic ones: a run takes about 2.5 s and evaluates after each
    # epoch, so a measurement repeats each step and the eval pass dozens of
    # times. The model is still at chance, and any top-1 is legitimate (seed
    # 109 gives 0.002), so it has no floor. 2,000 eval examples pad to 2,048
    # with 48 dummies.
    Workload(
        "train-64x8-bf16",
        "preset = toy-lars-2048\nmodel = b5\nnum_replicas = 64\n"
        "global_batch = 512\nbn_grouping = 2d\ntile_rows = 4\ntile_cols = 8\n"
        "bn_group_size = 32\nprecision = mixed_bf16\ntotal_epochs = 2\n"
        "eval_every_epochs = 1\n",
        global_batch=512, steps_per_epoch=4096 // 512, min_top1=0.0,
        spans=frozenset(_SPANS | {
            "optim.lars_step", "precision.to_bf16", "data.load_idx",
            "nn.depthwise_conv2d_forward", "nn.depthwise_conv2d_backward",
            "nn.global_avg_pool_forward", "nn.global_avg_pool_backward"}),
        idx=(4096, 2000)),
)}


# End-to-end figures printed and recorded but left out of BENCHMARK.json,
# whose metrics must hold steady across seeds (see README.md).
PRINTED_ONLY = {"train_step_ms_p90": "ms", "final_eval_top1": "frac",
                "failed_frac": "frac"}


class CheckFailed(Exception):
    pass


@dataclass
class Run:
    traced: bool
    run_s: float
    setup_s: float
    rec: Recorder
    csv: bytes
    top1: float


@dataclass
class Bench:
    workload: Workload
    seed: int
    attempted: int = 0
    failed: int = 0
    runs: list = field(default_factory=list)
    reference: bytes | None = None
    eval_invariance_checked: bool = False
    csv: Path = WORK / "metrics.csv"

    def prepare(self) -> list[str]:
        """The config file and inputs; the argv of one measured run. An IDX
        workload gets the synthetic data set's class templates with its own
        noise, quantized to the u8 pixels of the format."""
        w = self.workload
        dataset = "synthetic"
        if w.idx is not None:
            paths = []
            for stream, (split, n) in enumerate(zip(("train", "eval"), w.idx)):
                ds = data.gen_synthetic(10, n, 16, 16, 1, seed=self.seed,
                                        noise_stream=stream)
                images, labels = WORK / f"{split}-images.idx", WORK / f"{split}-labels.idx"
                data.write_idx(np.rint(ds.images * 255.0), ds.labels, images, labels)
                paths += [str(images), str(labels)]
            dataset = "idx:" + ",".join(paths)
        cfg = WORK / "train.cfg"
        cfg.write_text(f"{w.config}dataset = {dataset}\nseed = {self.seed}\n",
                       encoding="utf-8")
        return ["train", "--config", str(cfg), "--out", str(self.csv)]

    # -- one measured run ---------------------------------------------------

    def run_once(self, argv: list[str], traced: bool) -> Run:
        rec = Recorder()
        sites = tracing.LAYERS if traced else tracing.BOUNDARY
        with rec.patched(sites), quiet():
            t0 = time.perf_counter_ns()
            rc = cli.main(argv)
            t1 = time.perf_counter_ns()
        if rc != 0:
            raise CheckFailed(f"minipod {argv[0]} exited with {rc}")
        if rec.last_eval is None:
            raise CheckFailed("the run made no eval pass")
        first = rec.first_start_ns((STEP, EVAL))
        return Run(traced, (t1 - t0) / 1e9, (first - t0) / 1e9, rec,
                   self.csv.read_bytes(), rec.last_eval[2])

    def check(self, run: Run) -> None:
        w = self.workload
        if not run.top1 >= w.min_top1:
            raise CheckFailed(f"final top-1 {run.top1} below the floor {w.min_top1}")
        # Top-1 counts hits among the real examples only, so times their
        # number it is a whole count; counted dummies or garbage would not be.
        examples = next(s[4][0] for s in reversed(run.rec.spans) if s[0] == EVAL)
        hits = run.top1 * examples
        if not (run.top1 <= 1.0 and abs(hits - round(hits)) < 1e-3):
            raise CheckFailed(f"final top-1 {run.top1} is not a count of {examples:.0f} examples")
        if self.reference is None:
            self.reference = run.csv
        elif run.csv != self.reference:
            what = "traced" if run.traced else "repeated"
            raise CheckFailed(f"a {what} run of one seed wrote a different metrics CSV")
        if not self.eval_invariance_checked:
            self.eval_invariance_checked = True
            check_eval_invariance(run.rec.last_eval)
        run.rec.last_eval = None  # holds the eval set and the weights
        if run.traced:
            spans = run.rec.spans
            entered = {(phase, s[0]) for (phase, _), s in zip(tracing.groups(spans), spans)}
            missing = sorted(name for name in w.spans
                             if (phase_of(name), name) not in entered)
            if missing:
                raise CheckFailed(f"traced run never entered {missing}")

    def run_and_check(self, argv: list[str], traced: bool) -> None:
        self.attempted += 1
        try:
            run = self.run_once(argv, traced)
            self.check(run)
        except Exception:
            self.failed += 1
            traceback.print_exc()
        else:
            self.runs.append(run)

    def measure(self, seconds: float, trace: bool) -> None:
        """Repeat the workload's run for `seconds`, at least twice. A run is
        not started if the slower of the last two would not finish in time,
        so the measurement ends close to `seconds`."""
        try:
            argv = self.prepare()
        except Exception:
            self.attempted += 1
            self.failed += 1
            traceback.print_exc()
            return
        took: list[float] = []
        start = time.perf_counter()
        while len(took) < 2 or time.perf_counter() - start + max(took[-2:]) <= seconds:
            t0 = time.perf_counter()
            self.run_and_check(argv, trace and len(took) % 2 == 1)
            took.append(time.perf_counter() - t0)

    # -- metrics ------------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        """name -> (value, sample count) from the untraced runs.

        Every train step of a workload computes on tensors of the same shapes,
        as does every eval pass, and host contention only ever adds time. So
        a step is timed as the best of its repeats: the same step of every
        epoch of every run. All eval passes of a run are repeats of one pass.
        Step percentiles are over the steps of an epoch.
        """
        runs = [r for r in self.runs if not r.traced]
        if not runs:
            return {}
        run_steps = [r.rec.durations_s(STEP) for r in runs]
        run_passes = [r.rec.durations_s(EVAL) for r in runs]
        steps = best_by_position(run_steps, self.workload.steps_per_epoch)
        best_pass = min(min(ps) for ps in run_passes)
        n_steps = sum(map(len, run_steps))
        n_passes = sum(map(len, run_passes))
        # A whole run: its steps and passes at their best, plus the best of
        # what lies between them (set-up, reshuffles, the CSV).
        between = min(r.run_s - sum(st) - sum(ps)
                      for r, st, ps in zip(runs, run_steps, run_passes))
        run_s = (between + sum(steps[i % len(steps)] for i in range(len(run_steps[0])))
                 + len(run_passes[0]) * best_pass)
        examples = next(s[4][0] for s in runs[0].rec.spans if s[0] == EVAL)
        return {
            "setup_s": (statistics.median(r.setup_s for r in runs), len(runs)),
            "run_s": (run_s, len(runs)),
            "train_samples_per_s": (
                self.workload.global_batch * len(steps) / sum(steps), n_steps),
            "train_step_ms_p50": (1e3 * percentile(steps, 0.5), n_steps),
            "train_step_ms_p90": (1e3 * percentile(steps, 0.9), n_steps),
            "eval_samples_per_s": (examples / best_pass, n_passes),
            "eval_pass_ms_p50": (1e3 * best_pass, n_passes),
            "final_eval_top1": (runs[-1].top1, len(runs)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            1),
            "failed_frac": (self.failed / self.attempted, self.attempted),
        }

    def per_layer(self, names) -> dict[str, tuple[float, int]]:
        """name -> (value, traced runs) from the traced runs."""
        traced = [r for r in self.runs if r.traced]
        untraced = [r for r in self.runs if not r.traced]
        if not traced or not untraced:
            return {}
        totals = tracing.aggregate([r.rec.spans for r in traced])
        units = {"run": len(traced),
                 "step": sum(t.calls for (p, n), t in totals.items() if n == STEP),
                 "eval": sum(t.calls for (p, n), t in totals.items() if n == EVAL)}
        out = {"trace_overhead_frac": (
            min(r.run_s for r in traced) / min(r.run_s for r in untraced) - 1.0,
            len(traced))}
        for name in names:
            if name in out:
                continue
            span, stat = split_layer_metric(name)
            phase = phase_of(span)
            t = totals.get((phase, span), tracing.Totals())
            n = max(units[phase], 1)
            if stat == "ms":
                v = t.ns / 1e6 / n
            elif stat == "self_ms":
                v = t.self_ns / 1e6 / n
            elif stat == "calls":
                v = t.calls / n
            elif stat == "gflops_per_s":
                v = t.work[0] / t.ns if t.ns else 0.0
            elif stat == "pad_frac":
                v = t.work[1] / (t.work[0] + t.work[1]) if t.work else 0.0
            else:  # elements, bytes, bytes_in, bytes_out
                v = t.work[stat == "bytes_out"] / n if t.work else 0.0
            out[name] = (v, len(traced))
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("run,id,parent,group,name,start_ns,end_ns\n")
            for i, r in enumerate(x for x in self.runs if x.traced):
                spans = r.rec.spans
                for j, ((_, group), (name, parent, start, end, _)) in enumerate(
                        zip(tracing.groups(spans), spans)):
                    f.write(f"{i},{j},{parent},{group},{name},{start},{end}\n")


def phase_of(span: str) -> str:
    """Where a per-layer span is counted: per run, per eval pass or per step."""
    if span in SETUP_SPANS:
        return "run"
    if span in EVAL_PHASE_SPANS:
        return "eval"
    return "step"


def check_eval_invariance(last_eval) -> None:
    """Acceptance criterion 10: the last eval pass gives the same top-1 on
    one replica as on the workload's replica count."""
    args, kwargs, top1 = last_eval
    bound = inspect.signature(trainer.distributed_eval).bind(*args, **kwargs)
    bound.arguments["num_replicas"] = 1
    single = trainer.distributed_eval(*bound.args, **bound.kwargs)
    if single != top1:
        raise CheckFailed(f"top-1 {top1} on N replicas but {single} on one")


def best_by_position(repeats: list[list[float]], period: int) -> list[float]:
    """Least time at each position of a repeating sequence of work: item i of
    every list is a repeat of position i % period."""
    best = [math.inf] * period
    for times in repeats:
        for i, t in enumerate(times):
            best[i % period] = min(best[i % period], t)
    return best


def split_layer_metric(name: str) -> tuple[str, str]:
    for stat in ("self_ms", "gflops_per_s", "bytes_in", "bytes_out", "pad_frac",
                 "elements", "calls", "bytes", "ms"):
        if name.endswith("." + stat):
            return name[: -len(stat) - 1], stat
    raise ValueError(f"per-layer metric {name!r} has no known stat suffix")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


@contextlib.contextmanager
def quiet():
    """The CLI's progress lines would precede the result line; drop them."""
    with contextlib.redirect_stdout(io.StringIO()):
        yield


def host_info(workload: str, seed: int) -> dict:
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "malloc": MALLOC,
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(PRINTED_ONLY)

    bench = Bench(WORKLOADS[args.workload], args.seed)
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        bench.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()

    values = bench.end_to_end()
    if args.trace:
        values.update(bench.per_layer([m["name"] for m in listed]))
    missing = [m["name"] for m in listed if m["name"] not in values]
    correct = bench.failed == 0 and not missing

    host = host_info(args.workload, args.seed)
    print(" ".join(f"{k}={v}" for k, v in host.items()))
    print(f"runs: {bench.attempted} attempted, {bench.failed} failed, "
          f"{sum(r.traced for r in bench.runs)} traced")
    for name, (value, n) in values.items():
        print(f"{name:<48} {value:>16.6g} {units[name]:<8} (n={n})")
    for name in missing:
        print(f"{name:<48} {'missing':>16}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"host": host, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                          for k, (v, n) in values.items()},
              "runs": [{"traced": r.traced, "run_s": r.run_s, "setup_s": r.setup_s,
                        "step_ms": [1e3 * d for d in r.rec.durations_s(STEP)],
                        "eval_ms": [1e3 * d for d in r.rec.durations_s(EVAL)]}
                       for r in bench.runs]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        bench.write_spans(OUT / f"{stem}-spans.csv")

    result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                          for m in listed if m["name"] in values}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
