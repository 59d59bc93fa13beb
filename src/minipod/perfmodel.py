"""Analytic step-time model: per-core compute plus ring all-reduce.

Compute is charged for the padded per-core batch: batch dims pad to a
multiple of eight (padded_batch_utilization). Communication follows the
standard two-phase ring all-reduce cost 2(N-1)/N * bytes/bandwidth +
2(N-1) * hop latency, fully serialized with compute. Calibration recovers
the model constants from published (cores, batch, throughput, all-reduce%)
rows by closed-form weighted least squares, so fits are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_PARAM_BYTES = 4 * 9_110_000  # fp32 gradient bytes of a ~9.1M-param model
BATCH_PAD_MULTIPLE = 8


def padded_batch_utilization(per_core_batch: int) -> tuple[int, float]:
    """Padded batch (next multiple of eight) and the fraction of it that is real."""
    if per_core_batch < 1:
        raise ValueError(f"per-core batch must be >= 1, got {per_core_batch}")
    padded = BATCH_PAD_MULTIPLE * math.ceil(per_core_batch / BATCH_PAD_MULTIPLE)
    return padded, per_core_batch / padded


@dataclass(frozen=True)
class CostModelParams:
    per_image_compute_ms: float
    param_bytes: int
    link_bandwidth_bytes_per_ms: float
    per_hop_latency_ms: float

    def __post_init__(self):
        if self.per_image_compute_ms <= 0:
            raise ValueError("per_image_compute_ms must be > 0")
        if self.param_bytes <= 0:
            raise ValueError("param_bytes must be > 0")
        if self.link_bandwidth_bytes_per_ms <= 0:
            raise ValueError("link bandwidth must be > 0")
        if self.per_hop_latency_ms < 0:
            raise ValueError("per-hop latency must be >= 0")


# Loosely tuned to the published b2 throughput rows; bench recalibrates.
DEFAULT_COST_PARAMS = CostModelParams(
    per_image_compute_ms=2.19,
    param_bytes=DEFAULT_PARAM_BYTES,
    link_bandwidth_bytes_per_ms=4.2e7,
    per_hop_latency_ms=3e-4,
)


def allreduce_time(param_bytes: int, num_replicas: int, p: CostModelParams) -> float:
    """Milliseconds for one ring all-reduce of param_bytes across N replicas."""
    if num_replicas < 1:
        raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
    if num_replicas == 1:
        return 0.0
    n = num_replicas
    bw_term = 2.0 * (n - 1) / n * param_bytes / p.link_bandwidth_bytes_per_ms
    lat_term = 2.0 * (n - 1) * p.per_hop_latency_ms
    return bw_term + lat_term


def step_time(b_per_core: int, num_replicas: int, p: CostModelParams) -> float:
    """Modeled milliseconds per synchronous training step."""
    padded, _ = padded_batch_utilization(b_per_core)
    return padded * p.per_image_compute_ms + allreduce_time(
        p.param_bytes, num_replicas, p
    )


def throughput(global_batch: int, step_ms: float) -> float:
    """Images per millisecond at the given step time."""
    if global_batch < 1 or step_ms <= 0:
        raise ValueError("global_batch and step_ms must be positive")
    return global_batch / step_ms


def allreduce_fraction(b_per_core: int, num_replicas: int, p: CostModelParams) -> float:
    """Percent of the modeled step spent in the all-reduce."""
    return allreduce_time(p.param_bytes, num_replicas, p) / step_time(
        b_per_core, num_replicas, p
    ) * 100.0


def predict(p: CostModelParams, num_replicas: int, global_batch: int):
    """(throughput images/ms, all-reduce percent) for one configuration."""
    if global_batch % num_replicas != 0:
        raise ValueError(
            f"global batch {global_batch} not divisible by {num_replicas} replicas"
        )
    b = global_batch // num_replicas
    ms = step_time(b, num_replicas, p)
    return throughput(global_batch, ms), allreduce_fraction(b, num_replicas, p)


def calibrate(
    rows: list[tuple[int, int, float, float]],
    param_bytes: int = DEFAULT_PARAM_BYTES,
) -> CostModelParams:
    """Fit (compute, bandwidth, latency) to (N, B, throughput, allreduce%) rows.

    Each row decomposes into a compute time and an all-reduce time; relative
    least squares then recovers per-image compute from the former and the
    ring bandwidth/latency terms from the latter. param_bytes is taken as
    given (only the bytes/bandwidth ratio is identifiable from timings).
    """
    if len(rows) < 2:
        raise ValueError("calibration needs at least 2 rows")
    if len({n for n, _, _, _ in rows}) < 2:
        raise ValueError("calibration rows must span at least two replica counts")

    comp_a, comp_y = [], []  # padded batch -> compute ms
    ar_x, ar_y, ar_rows = [], [], []  # (bw coef, lat coef) -> all-reduce ms
    for i, (n, batch, thr, frac) in enumerate(rows):
        n, batch, thr, frac = int(n), int(batch), float(thr), float(frac)
        if n < 1:
            raise ValueError(f"row needs cores >= 1, got {n}")
        if batch % n != 0:
            raise ValueError(f"row batch {batch} not divisible by {n} cores")
        if not 0 < thr < math.inf or not 0 <= frac < 100:
            raise ValueError(
                f"row needs a finite throughput > 0 and an allreduce_pct in "
                f"[0, 100), got ({thr}, {frac})")
        try:
            step = batch / thr
        except OverflowError:  # a global batch beyond float range
            step = math.inf
        if not math.isfinite(step):
            raise ValueError(
                f"row ({n}, {batch}, {thr}, {frac}) has a step time "
                f"global_batch / throughput of {step}, which is not finite")
        ar = step * frac / 100.0
        comp = step - ar
        padded, _ = padded_batch_utilization(batch // n)
        comp_a.append(padded)
        comp_y.append(comp)
        if n > 1:
            ar_x.append((2.0 * (n - 1) / n, 2.0 * (n - 1)))
            ar_y.append(ar)
            ar_rows.append(i)

    comp_a = np.asarray(comp_a, dtype=np.float64)
    comp_y = np.asarray(comp_y, dtype=np.float64)
    x = np.asarray(ar_x, dtype=np.float64)
    y = np.asarray(ar_y, dtype=np.float64)
    # Both fits weigh a row by 1/target and sum squared terms, where a tiny or
    # huge time leaves float range. So before any sum, each row's squared
    # terms must stay finite len(rows) times over, and its compute term above 0.
    with np.errstate(all="ignore"):
        comp_sq = comp_a**2 / comp_y**2
        w = 1.0 / np.where(y > 0, y, 1.0)
        ar_terms = np.column_stack([x * w[:, None], y * w])
        fits = (comp_sq > 0) & (comp_sq * len(rows) < math.inf)
        fits[ar_rows] &= (ar_terms**2).max(axis=1) * len(rows) < math.inf
    if not fits.all():
        i = int(fits.argmin())
        n, batch, thr, frac = rows[i]
        raise ValueError(
            f"row ({n}, {batch}, {thr}, {frac}) splits into a compute time of "
            f"{comp_y[i]} ms and an all-reduce time of {batch / thr * frac / 100.0} "
            f"ms, too small or too large for the relative fit")
    # One-parameter relative least squares.
    c = float((comp_a / comp_y).sum() / comp_sq.sum())
    bw_time, lat = _nonneg_lstsq(ar_terms[:, :2], ar_terms[:, 2])
    bw = param_bytes / bw_time if bw_time > 0 else math.inf

    return CostModelParams(
        per_image_compute_ms=c,
        param_bytes=param_bytes,
        link_bandwidth_bytes_per_ms=bw,
        per_hop_latency_ms=lat,
    )


def _nonneg_lstsq(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Two-column least squares with nonnegative coefficients.

    A negative coefficient is clamped to zero and the other refit; closed
    form throughout, so the result is exactly reproducible.
    """
    sol, *_ = np.linalg.lstsq(x, y, rcond=None)
    a, b = float(sol[0]), float(sol[1])
    if a < 0:
        a = 0.0
        b = float((x[:, 1] @ y) / (x[:, 1] @ x[:, 1]))
        b = max(b, 0.0)
    elif b < 0:
        b = 0.0
        a = float((x[:, 0] @ y) / (x[:, 0] @ x[:, 0]))
        a = max(a, 0.0)
    return a, b
