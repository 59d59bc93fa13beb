"""The reports of tools/same_bytes.py on outputs that differ."""

import importlib.util
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "same_bytes", Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)

HEADER = "step,train_loss,eval_top1\n"


def test_csv_report_names_the_first_row_and_each_moved_column():
    base = HEADER + "0,2.0,\n1,1.0,0.5\n2,0.5,0.75\n"
    head = HEADER + "0,2.0,\n1,1.0,0.25\n2,0.25,0.75\n"
    assert same_bytes.csv_report(base, head) == [
        "first differing row, line 3:",
        "  base   1,1.0,0.5",
        "  change 1,1.0,0.25",
        "train_loss: largest relative difference 5.000e-01",
        "eval_top1: largest relative difference 5.000e-01",
    ]
    assert same_bytes.csv_report(base, base) == []
    assert same_bytes.csv_report(base, HEADER + "0,2.0,\n") == [
        "base has 3 rows, change has 1"]


def test_npz_report_lists_arrays_that_moved(tmp_path):
    np.savez(tmp_path / "a.npz", w=np.array([1.0, 2.0]), b=np.zeros(2))
    np.savez(tmp_path / "b.npz", w=np.array([1.0, 3.0]), b=np.zeros(2), extra=np.ones(1))
    assert same_bytes.npz_report(tmp_path / "a.npz", tmp_path / "b.npz") == [
        "only in change: extra", "w: largest relative difference 3.333e-01"]
