#!/usr/bin/env python3
"""Check that a change keeps minipod's outputs byte for byte.

    python3 tools/same_bytes.py BASE_REV

Exports BASE_REV of this repository with ``git archive`` into a temporary
directory, then trains six configs with ``minipod train`` on that tree and
on the working tree this script sits in: toy-rmsprop-512 at seed 1,
toy-lars-2048 for 2 epochs, the b5 / 64-replica / bf16 config of the
train-64x8-bf16 benchmark workload on the synthetic set, toy-rmsprop-512
with the b2 model for 2 epochs, the one config whose fp32 step computes a
conv layer's input gradient (b2's second conv), toy-lars-2048 on 256
replicas x 16 for 2 epochs, whose eval set of 2,048 examples is smaller than
one round of per-core batches (4,096), and b5 in bf16 on 16 replicas with
2x2 BN tiles for 1 epoch, the one config whose step walks chunks of replicas
that are not one contiguous range ({0, 1, 4, 5}, ...). Each metrics CSV and
``--weights-out`` archive is compared byte for byte. Both trees also run
``minipod eval`` on the base's toy-rmsprop-512 weights, whose pass reads the
eval images themselves (a training run's passes read its prepared eval set),
and their output lines are compared. For each file it prints "identical",
or the first differing CSV row and the largest relative difference per
column (per array for the weights), or both eval lines. Exit status: 0 when
every file is identical, 1 on any difference, 2 when a run fails on either
tree.

Both trees run here, on one host and one numpy, so BLAS and CPU differences
cancel. BLAS runs one thread in every training.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

CONFIGS = {
    "toy-rmsprop-512": "preset = toy-rmsprop-512\ndataset = synthetic\nseed = 1\n",
    "toy-lars-2048": "preset = toy-lars-2048\ndataset = synthetic\ntotal_epochs = 2\n",
    "train-64x8-bf16": (
        "preset = toy-lars-2048\nmodel = b5\nnum_replicas = 64\n"
        "global_batch = 512\nbn_grouping = 2d\ntile_rows = 4\ntile_cols = 8\n"
        "bn_group_size = 32\nprecision = mixed_bf16\ntotal_epochs = 2\n"
        "eval_every_epochs = 1\ndataset = synthetic\n"),
    "b2-rmsprop-512": (
        "preset = toy-rmsprop-512\nmodel = b2\ntotal_epochs = 2\ndataset = synthetic\n"),
    "lars-256x16": (
        "preset = toy-lars-2048\nnum_replicas = 256\nglobal_batch = 4096\n"
        "total_epochs = 2\ndataset = synthetic\n"),
    "b5-16x128-tiles": (
        "preset = toy-lars-2048\nmodel = b5\nnum_replicas = 16\nbn_grouping = 2d\n"
        "tile_rows = 2\ntile_cols = 2\nbn_group_size = 4\nprecision = mixed_bf16\n"
        "total_epochs = 1\ndataset = synthetic\n"),
}
OUTPUTS = ("metrics.csv", "weights.npz")
EVALUATED = "toy-rmsprop-512"  # the config whose weights `minipod eval` reads
EVAL_OUT = "eval.txt"


def export(rev: str, dest: Path) -> None:
    """The tree of `rev` under dest, as `git archive` writes it."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def minipod(tree: Path, name: str, out: Path, *args: str) -> str:
    """stdout of `minipod ARGS` run from `tree` in the directory `out`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "minipod.cli", *args],
                          cwd=out, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} {args[0]} on {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return proc.stdout


def train(tree: Path, name: str, out: Path) -> None:
    out.mkdir(parents=True)
    (out / "exp.cfg").write_text(CONFIGS[name], encoding="utf-8")
    minipod(tree, name, out, "train", "--config", "exp.cfg",
            "--out", OUTPUTS[0], "--weights-out", OUTPUTS[1])


def evaluate(tree: Path, out: Path, weights: Path) -> None:
    """Writes the EVALUATED config's `minipod eval` output on `weights`."""
    (out / EVAL_OUT).write_text(
        minipod(tree, EVALUATED, out, "eval", "--weights", str(weights),
                "--config", "exp.cfg"), encoding="utf-8")


def rel_diff(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return math.inf if not math.isfinite(scale) or scale == 0 else abs(a - b) / scale


def _number(field: str) -> float:
    return float(field) if field else math.nan


def csv_report(base: str, head: str) -> list[str]:
    """How two metrics CSVs differ: the first differing row, then the
    largest relative difference of each column over the rows both hold."""
    a, b = list(csv.reader(io.StringIO(base))), list(csv.reader(io.StringIO(head)))
    if a[:1] != b[:1]:
        return [f"headers differ: {','.join(a[0] if a else [])} | "
                f"{','.join(b[0] if b else [])}"]
    lines = []
    if len(a) != len(b):
        lines.append(f"base has {len(a) - 1} rows, change has {len(b) - 1}")
    row = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)
    if row is not None:
        lines.append(f"first differing row, line {row + 1}:")
        lines.append(f"  base   {','.join(a[row])}")
        lines.append(f"  change {','.join(b[row])}")
    for c, column in enumerate(a[0]):
        worst = max((rel_diff(_number(x[c]), _number(y[c]))
                     for x, y in zip(a[1:], b[1:])), default=0.0)
        if worst:
            lines.append(f"{column}: largest relative difference {worst:.3e}")
    return lines


def npz_report(base: Path, head: Path) -> list[str]:
    """How two weights archives differ, array by array."""
    with np.load(base) as a, np.load(head) as b:
        lines = [f"only in base: {k}" for k in a.files if k not in b.files]
        lines += [f"only in change: {k}" for k in b.files if k not in a.files]
        for k in (k for k in a.files if k in b.files):
            x, y = a[k], b[k]
            if x.shape != y.shape:
                lines.append(f"{k}: shape {x.shape} against {y.shape}")
            elif x.tobytes() != y.tobytes():
                x, y = x.astype(np.float64), y.astype(np.float64)
                scale = np.maximum(np.abs(x), np.abs(y))
                with np.errstate(divide="ignore", invalid="ignore"):
                    rel = np.where(x == y, 0.0, np.abs(x - y) / scale)
                lines.append(f"{k}: largest relative difference {np.nanmax(rel):.3e}")
    return lines or ["archives differ in their container bytes only"]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base_rev", metavar="BASE_REV", help="git revision to compare against")
    args = p.parse_args(argv)
    differ = False
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        tmp = Path(tmp)
        try:
            export(args.base_rev, tmp / "base")
            for name in CONFIGS:
                for side, tree in (("base", tmp / "base"), ("change", ROOT)):
                    train(tree, name, tmp / "out" / side / name)
            weights = tmp / "out" / "base" / EVALUATED / OUTPUTS[1]
            for side, tree in (("base", tmp / "base"), ("change", ROOT)):
                evaluate(tree, tmp / "out" / side / EVALUATED, weights)
        except (subprocess.CalledProcessError, RuntimeError) as e:
            detail = e.stderr.decode() if isinstance(e, subprocess.CalledProcessError) else ""
            print(f"error: {e}\n{detail}".rstrip(), file=sys.stderr)
            return 2
        for name in CONFIGS:
            for fname in OUTPUTS + ((EVAL_OUT,) if name == EVALUATED else ()):
                a, b = (tmp / "out" / side / name / fname for side in ("base", "change"))
                if a.read_bytes() == b.read_bytes():
                    print(f"{name} {fname}: identical")
                    continue
                differ = True
                print(f"{name} {fname}: DIFFERENT")
                if fname == EVAL_OUT:
                    report = [f"base   {a.read_text().strip()}",
                              f"change {b.read_text().strip()}"]
                elif fname.endswith(".csv"):
                    report = csv_report(a.read_text(), b.read_text())
                else:
                    report = npz_report(a, b)
                for line in report:
                    print(f"  {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
