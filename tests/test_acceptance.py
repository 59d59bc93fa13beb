"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each criterion prints one `ACCEPTANCE nn PASS/FAIL` line (written through to
the console even under pytest capture).
"""

import contextlib
import time

import numpy as np
import pytest

from minipod import nn, perfmodel
from minipod.config import preset_config
from minipod.data import gen_synthetic
from minipod.distbn import assign_groups_2d, group_bn_forward
from minipod.model import (
    build_model,
    conv2d,
    eval_forward,
    global_avg_pool,
    grad_check,
    init_params,
)
from minipod.nn import Parameter
from minipod.optim import (
    LarsConfig,
    OptimizerState,
    RmsPropConfig,
    base_lr,
    lars_step,
    lr_at,
    rmsprop_step,
)
from minipod.precision import FP32_ONLY, to_bf16
from minipod.trainer import (
    TrainConfig,
    build_datasets,
    distributed_eval,
    init_train_state,
    run,
    shard_train_data,
    train_step,
)
from minipod.cli import main


_CONSOLE = None


@pytest.fixture(autouse=True)
def _console(capsys):
    global _CONSOLE
    _CONSOLE = capsys
    yield
    _CONSOLE = None


def report(num: int, ok: bool, desc: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    undo = _CONSOLE.disabled() if _CONSOLE is not None else contextlib.nullcontext()
    with undo:  # reach the console despite pytest capture
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    layers = build_model("toy_cnn_pool", 4)  # conv -> group-BN -> swish -> pool -> dense
    worst = 0.0
    for seed in range(20):
        ds = gen_synthetic(4, 8, 8, 8, 1, seed=seed)
        params = init_params(layers, ds.images.shape[1:], seed=seed)
        err = grad_check(layers, params, ds.images, ds.labels, eps=1e-3,
                         num_replicas=2, group_size=2)
        worst = max(worst, err)
    elapsed = time.time() - t0
    report(1, worst < 1e-3 and elapsed < 120,
           f"gradcheck 20 seeds, eps=1e-3: max_rel_err {worst:.2e} < 1e-3 "
           f"in {elapsed:.0f}s")


def test_criterion_2_distributed_bn_oracle():
    rng = np.random.default_rng(0)
    n_rep, b = 8, 4
    xs = rng.standard_normal((n_rep, b, 3, 3, 5)).astype(np.float32)
    gamma, beta, eps = np.ones(5, np.float32), np.zeros(5, np.float32), 1e-3

    # full group vs single-device BN over the concatenated 32-sample batch
    ys, (mean,), (var,), _, _ = group_bn_forward(
        xs, [tuple(range(n_rep))], gamma, beta, eps)
    concat = xs.reshape(n_rep * b, 3, 3, 5)
    count = np.float32(concat.shape[0] * 3 * 3)
    ref_mean = concat.sum(axis=(0, 1, 2)) / count
    ref_var = np.maximum((concat * concat).sum(axis=(0, 1, 2)) / count
                         - ref_mean * ref_mean, 0)
    ref_y = (concat - ref_mean) / np.sqrt(ref_var + eps)
    full_ok = (np.abs(ys.reshape(concat.shape) - ref_y).max() < 1e-6
               and np.abs(mean - ref_mean).max() < 1e-6
               and np.abs(var - ref_var).max() < 1e-6)

    # G=1 equals per-replica BN bitwise: 8 groups of one in one call. The
    # reference sums around the first row as [1, M] @ [M, C] products and
    # combines count, mean and squared deviations in float64.
    local_ok = True
    ys1, ms1, vs1, _, _ = group_bn_forward(
        xs, [(r,) for r in range(n_rep)], gamma, beta, eps)
    for x, y1, m1, v1 in zip(xs, ys1, ms1, vs1):
        rows = x.reshape(-1, 5)
        cnt = len(rows)
        ones = np.ones((1, cnt), np.float32)
        xsh = rows - rows[0]
        s1 = (ones @ xsh)[0].astype(np.float64)
        s2 = (ones @ (xsh * xsh))[0].astype(np.float64)
        d = s1 / cnt
        local_mean = rows[0] + d
        mean64 = cnt * local_mean / cnt
        sq = (s2 - s1 * d + cnt * local_mean * local_mean) / cnt
        m_ref = mean64.astype(np.float32)
        v_ref = np.maximum(sq - mean64 * mean64, 0.0).astype(np.float32)
        inv = 1.0 / np.sqrt(v_ref + eps)
        y_ref = (x - m_ref) * (gamma * inv).astype(np.float32) + beta
        local_ok &= (y1.tobytes() == y_ref.tobytes()
                     and m1.tobytes() == m_ref.tobytes()
                     and v1.tobytes() == v_ref.tobytes())

    tiles = assign_groups_2d(16, (2, 2))
    tiling_ok = tiles.tolist() == [
        [0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]]

    report(2, full_ok and local_ok and tiling_ok,
           f"distributed BN: G=8 concat oracle {full_ok}, G=1 bitwise "
           f"{local_ok}, 2x2 tiling partition {tiling_ok}")


def test_criterion_3_data_parallel_equivalence():
    t0 = time.time()

    def final_params(n_rep, steps=100):
        cfg = TrainConfig(model="toy_cnn", dataset="synthetic",
                          num_replicas=n_rep, global_batch=64,
                          bn_group_size=n_rep, optimizer="rmsprop",
                          lr_per_256=0.03, warmup_epochs=1.0,
                          total_epochs=1.0, seed=11)
        train_ds, _ = build_datasets(cfg)
        state = init_train_state(cfg, train_ds.images.shape[1:],
                                 train_ds.num_classes)
        sched = cfg.schedule(len(train_ds) // cfg.global_batch)
        g, epoch = 0, 0
        while g < steps:
            for batches in shard_train_data(train_ds, n_rep,
                                            cfg.per_core_batch, cfg.seed, epoch):
                if g >= steps:
                    break
                train_step(state, batches, lr_at(sched, g))
                g += 1
            epoch += 1
        return state.params

    ref = final_params(1)
    worst = 0.0
    for n_rep in (2, 4, 8):
        got = final_params(n_rep)
        for p0, pn in zip(ref, got):
            scale = max(float(np.abs(p0.value).max()),
                        float(np.abs(pn.value).max()), 1e-8)
            worst = max(worst, float(np.abs(p0.value - pn.value).max()) / scale)
    elapsed = time.time() - t0
    report(3, worst < 1e-5 and elapsed < 300,
           f"data-parallel equivalence N in {{1,2,4,8}}, 100 steps: worst "
           f"elementwise rel {worst:.2e} < 1e-5 in {elapsed:.0f}s")


def test_criterion_4_schedule_closed_forms():
    tol = 1e-12
    ok = True

    b5 = preset_config("b5-lars-32768")
    spec5 = b5.schedule(steps_per_epoch=10)
    peak = lr_at(spec5, 50 * 10)  # warmup ends at epoch 50
    ok &= abs(peak - 15.104) <= tol * 15.104
    ok &= abs(peak - base_lr(0.118, 32768)) <= tol
    ok &= lr_at(spec5, 350 * 10) == 0.0

    b2 = preset_config("b2-rmsprop-4096")
    spec2 = b2.schedule(steps_per_epoch=25)
    peak2 = lr_at(spec2, 5 * 25)
    ok &= abs(peak2 - 0.256) <= tol
    for k in range(15):
        got = lr_at(spec2, 125 + 60 * k)  # epoch 5 + 2.4k
        want = peak2 * 0.97**k
        ok &= abs(got - want) <= tol * max(want, 1e-30)
    report(4, ok, "schedule closed forms: peaks 15.104 / 0.256, poly end 0, "
                  "staircase 0.97^k at epochs 5+2.4k, all within 1e-12")


def test_criterion_5_optimizer_oracles():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        w0 = float(rng.standard_normal())
        decay = float(rng.uniform(0.5, 0.999))
        m = float(rng.uniform(0.0, 0.95))
        eps = float(rng.uniform(1e-6, 1e-2))
        lr = float(rng.uniform(1e-4, 0.5))
        g = float(rng.standard_normal())
        p = Parameter("w", np.array([w0]))
        st = OptimizerState.for_params("rmsprop", [p])
        rmsprop_step([p], [np.array([g])], lr, RmsPropConfig(decay, m, eps), st)
        acc = (1 - decay) * g * g
        want = w0 - lr * g / np.sqrt(acc + eps)
        worst = max(worst, abs(float(p.value[0]) - want) / max(abs(want), 1e-8))

        eta = float(rng.uniform(1e-4, 0.1))
        wd = float(rng.uniform(0.0, 0.1))
        w0 = float(rng.uniform(0.2, 3.0))
        p = Parameter("w", np.array([w0]))
        st = OptimizerState.for_params("lars", [p])
        lars_step([p], [np.array([g])], lr,
                  LarsConfig(eta=eta, momentum=m, weight_decay=wd), st)
        denom = abs(g) + wd * abs(w0)
        ratio = eta * abs(w0) / denom if denom > 0 else 1.0
        want = w0 - lr * ratio * (g + wd * w0)
        worst = max(worst, abs(float(p.value[0]) - want) / max(abs(want), 1e-8))
    oracle_ok = worst < 1e-12

    cfg = LarsConfig(eta=0.001, momentum=0.0, weight_decay=0.0)
    w0 = np.random.default_rng(7).standard_normal(32)
    g = np.random.default_rng(8).standard_normal(32)
    invariance = 0.0
    for scale in (1.0, 1e-5, 123.0, 1e7):
        p = Parameter("w", w0.copy())
        st = OptimizerState.for_params("lars", [p])
        lars_step([p], [g * scale], 0.9, cfg, st)
        delta = float(np.linalg.norm(w0 - p.value))
        invariance = max(invariance,
                         abs(delta - 0.9 * cfg.eta * float(np.linalg.norm(w0))))
    rescale_ok = invariance < 1e-10

    report(5, oracle_ok and rescale_ok,
           f"optimizer oracles: 100 scalar cases rel {worst:.1e} < 1e-12, "
           f"LARS rescaling invariance {invariance:.1e} < 1e-10")


def test_criterion_6_bf16():
    pats = (np.arange(2**16, dtype=np.uint32) << np.uint32(16)).view(np.float32)
    roundtrip_ok = to_bf16(pats).view(np.uint32).tobytes() == pats.view(np.uint32).tobytes()

    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2**32, size=1_000_000, dtype=np.uint64).astype(np.uint32)
    x = bits.view(np.float32)
    finite = x[np.isfinite(x)]
    q = to_bf16(finite)
    idem_ok = to_bf16(q).tobytes() == q.tobytes()
    inside = finite[np.abs(finite) < 3.38e38]
    mono_ok = not (np.diff(to_bf16(np.sort(inside))) < 0).any()

    xi = rng.standard_normal((2, 8, 8, 3)).astype(np.float32)
    k = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
    layers = [conv2d("c", 4, 3, stride=2, padding="same"), global_avg_pool("p")]
    engine = eval_forward(layers, [Parameter("c/kernel", k)], {}, xi[None], FP32_ONLY)
    bitwise_ok = (engine.tobytes() == nn.global_avg_pool_forward(
        nn.conv2d_forward(nn.im2col(xi[None], k, 2, "same"), k)).tobytes())

    report(6, roundtrip_ok and idem_ok and mono_ok and bitwise_ok,
           f"bf16: 2^16 round-trip {roundtrip_ok}, idempotent {idem_ok}, "
           f"monotone {mono_ok}, fp32 policy bitwise {bitwise_ok}")


def test_criterion_7_toy_training():
    t0 = time.time()
    rms, _ = run(preset_config("toy-rmsprop-512"))
    rms_top1 = [r.eval_top1 for r in rms if r.eval_top1 is not None][-1]
    rms_elapsed = time.time() - t0

    t0 = time.time()
    lars, _ = run(preset_config("toy-lars-2048"))
    lars_top1 = [r.eval_top1 for r in lars if r.eval_top1 is not None][-1]
    lars_elapsed = time.time() - t0

    ok = (rms_top1 >= 0.95 and rms_elapsed < 600
          and lars_top1 >= rms_top1 - 0.015)
    report(7, ok,
           f"toy training: rmsprop B=512 top1 {rms_top1:.4f} >= 0.95 "
           f"({rms_elapsed:.0f}s), lars B=2048 top1 {lars_top1:.4f} within "
           f"1.5 points ({lars_elapsed:.0f}s)")


def test_criterion_8_cost_model_vs_published_rows():
    b2 = [(128, 4096, 57.57, 2.1), (256, 8192, 113.73, 2.6),
          (512, 16384, 227.13, 2.5), (1024, 32768, 451.35, 2.81)]
    b5 = [(128, 4096, 9.76, 0.89), (256, 8192, 19.48, 1.24),
          (512, 16384, 38.55, 1.24), (1024, 32768, 77.44, 1.03)]
    results = {}
    fracs_ok = True
    for name, rows, target in (("b2", b2, 451.35), ("b5", b5, 77.44)):
        fit = perfmodel.calibrate(rows[:3])
        thr, _ = perfmodel.predict(fit, 1024, 32768)
        results[name] = abs(thr - target) / target
        for n_core, batch, _, _ in rows:
            _, frac = perfmodel.predict(fit, n_core, batch)
            fracs_ok &= frac < 5.0
    ok = results["b2"] < 0.10 and results["b5"] < 0.10 and fracs_ok
    report(8, ok,
           f"cost model: N=1024 prediction err b2 {results['b2']*100:.1f}%, "
           f"b5 {results['b5']*100:.1f}% (< 10%), fractions < 5%: {fracs_ok}")


def test_criterion_9_determinism(tmp_path):
    cfg_text = ("preset = toy-rmsprop-512\ndataset = synthetic\n"
                "total_epochs = 1\neval_every_epochs = 1\nseed = 99\n")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(cfg_text)
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        rc = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    report(9, ok, "determinism: train CSV bitwise identical across two runs")


def test_criterion_10_evaluation_invariance():
    ds = gen_synthetic(10, 10000, 16, 16, 1, seed=5)
    cfg = TrainConfig(model="toy_cnn", dataset="synthetic", num_replicas=1,
                      global_batch=64, optimizer="rmsprop", seed=5,
                      total_epochs=1.0)
    state = init_train_state(cfg, ds.images.shape[1:], ds.num_classes)
    results = [
        distributed_eval(state.layers, state.params, state.bn_moving, ds, n_rep, 25)
        for n_rep in (1, 2, 4, 8)
    ]
    ok = all(r == results[0] for r in results)
    report(10, ok,
           f"evaluation invariance: top1 {results[0]:.6f} identical to 0 ulps "
           f"for N in {{1,2,4,8}} over 10,000 examples")
