"""Cost-model formulas and calibration tests."""

import math

import numpy as np
import pytest

from minipod.perfmodel import (
    DEFAULT_PARAM_BYTES,
    CostModelParams,
    allreduce_fraction,
    allreduce_time,
    calibrate,
    predict,
    step_time,
    throughput,
)

# Published throughput/communication rows used for calibration checks.
B2_ROWS = [(128, 4096, 57.57, 2.1), (256, 8192, 113.73, 2.6),
           (512, 16384, 227.13, 2.5), (1024, 32768, 451.35, 2.81)]
B5_ROWS = [(128, 4096, 9.76, 0.89), (256, 8192, 19.48, 1.24),
           (512, 16384, 38.55, 1.24), (1024, 32768, 77.44, 1.03)]


def params(compute=1.0, pbytes=1000, bw=1000.0, lat=0.0):
    return CostModelParams(compute, pbytes, bw, lat)


def test_allreduce_time_single_replica_is_zero():
    assert allreduce_time(1000, 1, params()) == 0.0


def test_allreduce_time_two_replicas_bandwidth_only():
    # 2*(N-1)/N * bytes/bw = 1000/1000 = 1 ms
    assert allreduce_time(1000, 2, params()) == 1.0


def test_allreduce_time_latency_only():
    p = params(bw=math.inf, lat=0.5)
    assert allreduce_time(1000, 4, p) == 6 * 0.5


def test_step_time_and_throughput():
    p = params(compute=1.0, bw=math.inf, lat=0.0)
    assert step_time(32, 1, p) == 32.0
    assert throughput(32, 32.0) == 1.0
    # per-core batch of 4 is charged for 8 padded images
    assert step_time(4, 1, p) == 8.0


def test_allreduce_fraction_percent():
    p = params(compute=1.0, pbytes=1000, bw=1000.0, lat=0.0)
    ms = step_time(8, 2, p)
    assert abs(allreduce_fraction(8, 2, p) - 100.0 * 1.0 / ms) < 1e-12


def test_calibrate_roundtrip_recovers_params():
    true = CostModelParams(2.0, 40_000_000, 5e7, 2e-4)
    rows = []
    for n in (16, 64, 256, 1024):
        thr, frac = predict(true, n, 32 * n)
        rows.append((n, 32 * n, thr, frac))
    fit = calibrate(rows, param_bytes=40_000_000)
    assert abs(fit.per_image_compute_ms - 2.0) / 2.0 < 0.01
    assert abs(fit.link_bandwidth_bytes_per_ms - 5e7) / 5e7 < 0.01
    assert abs(fit.per_hop_latency_ms - 2e-4) / 2e-4 < 0.01


@pytest.mark.parametrize("rows,target", [(B2_ROWS, 451.35), (B5_ROWS, 77.44)])
def test_calibrate_on_published_rows_predicts_largest_slice(rows, target):
    fit = calibrate(rows[:3])
    thr, _ = predict(fit, 1024, 32768)
    assert abs(thr - target) / target < 0.10


@pytest.mark.parametrize("rows", [B2_ROWS, B5_ROWS])
def test_modeled_fractions_stay_small(rows):
    fit = calibrate(rows[:3])
    for n, batch, _, _ in rows:
        _, frac = predict(fit, n, batch)
        assert frac < 5.0


def test_calibrate_errors():
    with pytest.raises(ValueError, match="at least 2"):
        calibrate([(2, 64, 10.0, 1.0)])
    with pytest.raises(ValueError, match="replica counts"):
        calibrate([(2, 64, 10.0, 1.0), (2, 64, 11.0, 1.0)])


def _relative_fit(u):
    """One-coefficient relative least squares on rows whose weighted targets
    are all 1: sum(u) / sum(u^2), u = coefficient / all-reduce time."""
    return sum(u) / sum(x * x for x in u)


def test_calibrate_clamps_a_negative_latency_to_zero():
    rows = [(2, 256, 1.0, 40), (64, 8192, 30, 20), (1024, 131072, 400, 10)]
    ar = [256 / 1.0 * 40 / 100, 8192 / 30 * 20 / 100, 131072 / 400 * 10 / 100]
    bw_coef = [2 * (n - 1) / n for n, *_ in rows]
    lat_coef = [2 * (n - 1) for n, *_ in rows]
    # Unconstrained, the rows weighted by 1/all-reduce time fit a latency of
    # -0.0175 ms per hop.
    x = np.array([bw_coef, lat_coef]).T / np.array(ar)[:, None]
    _, lat = np.linalg.lstsq(x, np.ones(3), rcond=None)[0]
    assert lat == pytest.approx(-0.0175, abs=1e-4)
    # Clamped to 0, with the bandwidth term alone refit.
    fit = calibrate(rows)
    assert fit.per_hop_latency_ms == 0.0
    bw_time = _relative_fit([c / t for c, t in zip(bw_coef, ar)])
    assert fit.link_bandwidth_bytes_per_ms == pytest.approx(
        DEFAULT_PARAM_BYTES / bw_time, rel=1e-12)


def test_calibrate_clamps_a_negative_bandwidth_term_to_infinite_bandwidth():
    # 96 ms of compute, and all-reduces of 0.1 ms at 2 cores and 204.4 ms at
    # 1,024, solve to a bandwidth term of -0.1 ms and 0.1 ms per hop:
    # -0.1 * 1 + 0.1 * 2 = 0.1 and -0.1 * 2046/1024 + 0.1 * 2046 ~ 204.4.
    rows = [(n, batch, batch / (96 + ar), 100 * ar / (96 + ar))
            for n, batch, ar in ((2, 64, 0.1), (1024, 32768, 204.4))]
    fit = calibrate(rows)
    assert fit.link_bandwidth_bytes_per_ms == math.inf
    # The latency alone, refit: coefficient 2(n - 1).
    assert fit.per_hop_latency_ms == pytest.approx(
        _relative_fit([2 / 0.1, 2046 / 204.4]), rel=1e-9)


def test_calibrate_without_all_reduce_time():
    fit = calibrate([(2, 256, 1.0, 0), (64, 8192, 30, 0)])
    assert fit.link_bandwidth_bytes_per_ms == math.inf
    assert fit.per_hop_latency_ms == 0.0
    # The compute fit alone: padded per-core batch 128 on both rows.
    u = [128 / 256, 128 / (8192 / 30)]
    assert fit.per_image_compute_ms == pytest.approx(_relative_fit(u), rel=1e-12)


def test_calibrate_is_deterministic():
    a = calibrate(B2_ROWS)
    b = calibrate(list(B2_ROWS))
    assert a == b


def test_throughput_monotone_in_replicas_at_fixed_per_core_batch():
    p = params(compute=1.0, pbytes=10_000, bw=1e5, lat=1e-4)
    prev = 0.0
    for n in (1, 2, 4, 8, 16, 32, 64):
        thr = throughput(32 * n, step_time(32, n, p))
        assert thr > prev
        prev = thr


def test_fraction_saturates_without_latency():
    p = params(compute=1.0, pbytes=10_000, bw=1e5, lat=0.0)
    fracs = [allreduce_fraction(32, n, p) for n in (2, 8, 64, 512, 4096)]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    # bandwidth term saturates at 2*bytes/bw, so the fraction approaches a cap
    cap = (2 * 10_000 / 1e5) / (32 + 2 * 10_000 / 1e5) * 100
    assert fracs[-1] < cap
    assert cap - fracs[-1] < 0.1


def test_speedup_bracketed_by_fraction():
    p = params(compute=1.0, pbytes=10_000, bw=1e5, lat=0.0)
    t1 = throughput(32, step_time(32, 1, p))
    for n in (2, 8, 64):
        tn = throughput(32 * n, step_time(32, n, p))
        frac = allreduce_fraction(32, n, p) / 100.0
        assert n * (1 - frac) <= tn / t1 <= n


def test_params_validation():
    with pytest.raises(ValueError):
        CostModelParams(0.0, 1, 1.0, 0.0)
    with pytest.raises(ValueError):
        CostModelParams(1.0, 1, 1.0, -0.1)
    with pytest.raises(ValueError):
        allreduce_time(10, 0, params())
    with pytest.raises(ValueError):
        predict(params(), 3, 32)
