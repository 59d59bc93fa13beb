#!/usr/bin/env python3
"""Benchmark pairs of a base revision and this tree, run alternately.

    python3 tools/bench_pairs.py BASE_REV --workload W [--workload W2 ...]
        --pairs N --seconds T --first-seed S --out BENCH_<pr>.json

Exports BASE_REV of this repository with ``git archive`` into a temporary
directory, as tools/same_bytes.py does. For each workload it runs N pairs:
pair i runs ``perfbench/run.py --workload W --seed S+i --seconds T`` on both
trees, the base first in even pairs and this tree first in odd ones, so
drift on a shared host falls on both sides. Each tree runs its own
perfbench; this script changes nothing under perfbench/.

The JSON it writes holds the two commits, the host (cores, Python, numpy,
BLAS and its threads, as perfbench reports them), and per workload every
pair's end-to-end metrics of BENCHMARK.json with their failed and attempted
runs, and per metric:

- the median of each side and the base's interquartile range;
- the change's wins out of N pairs, ties counting for neither side;
- ``gain``: at least nine tenths of the pairs won and the medians apart by
  more than the base's interquartile range, the rule a claimed gain meets;
- ``beyond_bound``: the change's median worse than the base's by more than
  the metric's bound.

Exit status: 0 when every run of both sides passed perfbench's checks, 1
when some run failed, 2 when perfbench could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from same_bytes import export  # noqa: E402

# Per-run fields of perfbench's host record; the rest describe the host.
RUN_FIELDS = ("git_sha", "workload", "seed")


class BenchError(RuntimeError):
    pass


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result, host) of one perfbench measurement on `tree`: its last output
    line and the host record of the JSON it writes."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
        record = json.loads(
            (tree / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    except (IndexError, ValueError, OSError) as e:
        raise BenchError(f"perfbench on {tree} exited {proc.returncode} without a "
                         f"result:\n{proc.stderr}") from e
    return result, record["host"]


def better(a: float, b: float, direction: str) -> bool:
    """Whether a reads better than b."""
    return a < b if direction == "lower" else a > b


def summarize(pairs: list[dict], spec: list[dict]) -> dict:
    """Per end-to-end metric of `spec` (BENCHMARK.json's list): medians, the
    base's IQR, wins and the two rules, over the pairs that hold it."""
    out = {}
    for m in spec:
        name, direction = m["name"], m["better"]
        both = [(p["base"][name], p["change"][name]) for p in pairs
                if name in p["base"] and name in p["change"]]
        if not both:
            continue
        base, change = (list(v) for v in zip(*both))
        q1, _, q3 = (statistics.quantiles(base, n=4, method="inclusive")
                     if len(base) > 1 else (base[0],) * 3)
        mb, mc = statistics.median(base), statistics.median(change)
        wins = sum(better(c, b, direction) for b, c in both)
        worse = (mc - mb if direction == "lower" else mb - mc) / abs(mb) if mb else 0.0
        out[name] = {
            "unit": m["unit"], "better": direction, "bound": m["bound"], "n": len(both),
            "base_median": mb, "change_median": mc, "base_iqr": q3 - q1,
            "change_vs_base": (mc - mb) / mb if mb else None,
            "wins": wins,
            "gain": wins >= 0.9 * len(both) and better(mc, mb, direction)
                    and abs(mc - mb) > q3 - q1,
            "beyond_bound": worse > m["bound"],
        }
    return out


def host_block(host: dict) -> dict:
    """perfbench's host record without its per-run fields, plus the cores
    this process may run on."""
    block = {k: v for k, v in host.items() if k not in RUN_FIELDS}
    try:
        block["cores_usable"] = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        block["cores_usable"] = os.cpu_count()
    return block


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base_rev", metavar="BASE_REV", help="git revision to compare against")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    report = {
        "commits": {"base": git("rev-parse", args.base_rev), "change": git("rev-parse", "HEAD"),
                    "change_src_uncommitted": bool(git("status", "--porcelain", "--", "src"))},
        "seconds": args.seconds, "first_seed": args.first_seed,
        "host": None, "workloads": {}}
    failed = False
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": ROOT}
        try:
            export(args.base_rev, trees["base"])
            for workload in args.workload:
                pairs = []
                for i in range(args.pairs):
                    seed = args.first_seed + i
                    order = ("base", "change") if i % 2 == 0 else ("change", "base")
                    pair = {"seed": seed, "first": order[0]}
                    for side in order:
                        result, host = run_bench(trees[side], workload, seed, args.seconds)
                        pair[side] = {k: v["value"] for k, v in result["metrics"].items()}
                        pair[f"{side}_runs"] = {"attempted": result["attempted"],
                                                "failed": result["failed"]}
                        failed |= not result["correct"]
                        if side == "change" and report["host"] is None:
                            report["host"] = host_block(host)
                    pairs.append(pair)
                    print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}) done",
                          file=sys.stderr)
                report["workloads"][workload] = {"pairs": pairs,
                                                 "metrics": summarize(pairs, spec)}
        except (subprocess.CalledProcessError, BenchError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, w in report["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload:<16} {name:<20} {m['base_median']:>12.6g} -> "
                  f"{m['change_median']:<12.6g} {m['unit']:<4} wins {m['wins']}/{m['n']}"
                  f"  base IQR {m['base_iqr']:.4g}{'  GAIN' if m['gain'] else ''}"
                  f"{'  BEYOND BOUND' if m['beyond_bound'] else ''}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
