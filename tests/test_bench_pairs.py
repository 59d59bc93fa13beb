"""tools/bench_pairs.py on stubbed perfbench runs: nothing is timed."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

HOST = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31",
        "blas_threads": 1, "malloc": "default", "git_sha": "unknown",
        "workload": "w", "seed": 1}
# Step times per seed: the change is 1 ms faster in four pairs of five and
# ties in one; its peak memory is 30% higher in every pair.
STEP = {"base": [10.0, 12.0, 11.0, 14.0, 13.0], "change": [9.0, 11.0, 11.0, 13.0, 12.0]}


@pytest.fixture
def stubbed(monkeypatch):
    calls = []

    def run_bench(tree, workload, seed, seconds):
        side = "change" if tree == bench_pairs.ROOT else "base"
        calls.append((side, workload, seed, seconds))
        step = STEP[side][seed - 1]
        metrics = {"train_step_ms_p50": step, "train_samples_per_s": 512e3 / step,
                   "peak_rss_mb": 65.0 if side == "change" else 50.0}
        return ({"correct": True, "attempted": 4, "failed": 0,
                 "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}},
                dict(HOST, seed=seed))

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    # A clean tree at commit c0ffee, whatever repository (if any) holds the tests.
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "" if args[0] == "status" else "c0ffee")
    return calls


def test_bench_pairs_alternates_sides_and_summarizes_each_metric(tmp_path, stubbed):
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["HEAD", "--workload", "w", "--pairs", "5", "--seconds", "3",
                             "--out", str(out)]) == 0
    assert [c[:3] for c in stubbed[:4]] == [("base", "w", 1), ("change", "w", 1),
                                            ("change", "w", 2), ("base", "w", 2)]
    assert {c[3] for c in stubbed} == {3.0}
    report = json.loads(out.read_text())
    assert set(report) == {"commits", "seconds", "first_seed", "host", "workloads"}
    assert report["commits"] == {"base": "c0ffee", "change": "c0ffee",
                                 "change_src_uncommitted": False}
    assert report["host"]["numpy"] == "2.4.6" and report["host"]["blas_threads"] == 1
    assert not {"git_sha", "workload", "seed"} & set(report["host"])
    w = report["workloads"]["w"]
    assert [p["seed"] for p in w["pairs"]] == [1, 2, 3, 4, 5]
    assert [p["first"] for p in w["pairs"]] == ["base", "change"] * 2 + ["base"]
    assert w["pairs"][0]["base"]["train_step_ms_p50"] == 10.0
    assert w["pairs"][0]["change_runs"] == {"attempted": 4, "failed": 0}
    # Metrics perfbench did not report are left out.
    assert set(w["metrics"]) == {"train_step_ms_p50", "train_samples_per_s", "peak_rss_mb"}
    step = w["metrics"]["train_step_ms_p50"]
    # Base quartiles of 10, 11, 12, 13, 14 are 11 and 13.
    assert step["base_median"] == 12.0 and step["change_median"] == 11.0
    assert step["base_iqr"] == 2.0 and step["n"] == 5
    assert step["wins"] == 4 and step["bound"] == 0.25
    # 4/5 wins is below nine tenths, and 1 ms is inside the IQR.
    assert not step["gain"] and not step["beyond_bound"]
    rss = w["metrics"]["peak_rss_mb"]
    assert rss["wins"] == 0 and rss["base_iqr"] == 0.0 and rss["beyond_bound"]
    assert rss["change_vs_base"] == pytest.approx(0.3)


def test_summarize_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_iqr():
    spec = [{"name": "t", "unit": "ms", "better": "lower", "bound": 0.25},
            {"name": "r", "unit": "1/s", "better": "higher", "bound": 0.25}]
    pairs = [{"base": {"t": 10.0 + i % 2, "r": 1.0}, "change": {"t": 8.0, "r": 1.0 - 0.3}}
             for i in range(10)]
    got = bench_pairs.summarize(pairs, spec)
    assert got["t"]["wins"] == 10 and got["t"]["gain"]
    assert got["r"]["wins"] == 0 and not got["r"]["gain"] and got["r"]["beyond_bound"]
    pairs[0]["change"]["t"] = 12.0  # 9 of 10 still meets the rule
    assert bench_pairs.summarize(pairs, spec)["t"]["gain"]
    pairs[1]["change"]["t"] = 12.0
    assert not bench_pairs.summarize(pairs, spec)["t"]["gain"]
