"""tools/peak_mem.py on a tiny case: one row per phase, each with its figures,
and what the run's prepared eval set holds."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_mem.py"


def peak_mem(*args):
    proc = subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_peak_mem_reports_every_phase():
    lines = peak_mem("toy_cnn", "4x8", "2", "fp32", "100")
    assert lines[0] == ("toy_cnn fp32, 4 replicas x 8, BN groups of 2, 100 train "
                        "examples, 2048 eval examples in rows of 8")
    rows = {line.split()[0]: [float(v) for v in line.split()[1:]] for line in lines[2:-1]}
    assert list(rows) == ["gen_synthetic", "shard_train_data", "train_step",
                          "distributed_eval", "prepare_eval", "eval_pass_1",
                          "eval_pass_2"]
    seconds, peak, held = zip(*rows.values())
    assert all(s >= 0 for s in seconds)
    assert held[0] == 0.0 and all(p >= h > 0 for p, h in zip(peak[1:], held[1:]))
    # 100 examples of 16x16x1 float32 and their int64 labels, about 0.1 MiB.
    assert 0.09 < held[1] < 0.2
    # The prepared set holds the 2,048 examples' 8x8x9 patches for both passes.
    kept = 2048 * 8 * 8 * 9 * 4 / 2 ** 20
    assert lines[-1] == f"kept for the passes: {kept:.1f} MiB"
    assert held[5] - held[4] == pytest.approx(kept, abs=0.15)
    assert held[6] == pytest.approx(held[5], abs=0.15)


def test_peak_mem_eval_examples_sets_the_eval_set():
    # 18 eval examples on 4 replicas: rows of ceil(18 / 4) = 5, below the
    # per-core batch of 8.
    lines = peak_mem("toy_cnn", "4x8", "2", "fp32", "100", "--eval-examples", "18")
    assert lines[0].endswith(", 18 eval examples in rows of 5")
    assert [line.split()[0] for line in lines[-5:-1]] == [
        "distributed_eval", "prepare_eval", "eval_pass_1", "eval_pass_2"]
