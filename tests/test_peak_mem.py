"""tools/peak_mem.py on a tiny case: one row per phase, each with its figures."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_mem.py"


def test_peak_mem_reports_every_phase():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "toy_cnn", "4x8", "2", "fp32", "100"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "toy_cnn fp32, 4 replicas x 8, BN groups of 2, 100 train examples"
    rows = {line.split()[0]: [float(v) for v in line.split()[1:]] for line in lines[2:]}
    assert list(rows) == ["gen_synthetic", "shard_train_data", "train_step",
                          "distributed_eval"]
    seconds, peak, held = zip(*rows.values())
    assert all(s >= 0 for s in seconds)
    assert held[0] == 0.0 and all(p >= h > 0 for p, h in zip(peak[1:], held[1:]))
    # 100 examples of 16x16x1 float32 and their int64 labels, about 0.1 MiB.
    assert 0.09 < held[1] < 0.2
