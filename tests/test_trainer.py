"""Training loop, sharding, distributed evaluation, and metrics tests."""

import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from minipod import distbn, model, optim, trainer
from minipod.data import Dataset, as_float32, gen_synthetic, load_idx, write_idx
from minipod.model import (
    MODELS,
    build_model,
    eval_forward,
    infer_shapes,
    init_bn_moving,
    init_params,
    prepare_first_conv,
)
from minipod.optim import LarsConfig, RmsPropConfig, lr_at
from minipod.precision import FP32_ONLY, MIXED_BF16_CONV
from minipod.rng import stream
from minipod.trainer import (
    METRICS_HEADER,
    MetricsRecord,
    NonFiniteLossError,
    TrainConfig,
    build_datasets,
    distributed_eval,
    format_metrics_csv,
    init_train_state,
    load_weights,
    run,
    save_weights,
    shard_train_data,
    time_to_peak,
    train_step,
    _weights_arrays,
    write_metrics_csv,
)


def tiny_config(**kw):
    base = dict(model="toy_cnn", dataset="synthetic", num_replicas=2,
                global_batch=128, bn_group_size=2, optimizer="rmsprop",
                lr_per_256=0.03, warmup_epochs=0.5, total_epochs=1.0,
                eval_every_epochs=1.0, seed=3)
    base.update(kw)
    return TrainConfig(**base)


def toy_dataset(n=32, num_classes=4, seed=0):
    return gen_synthetic(num_classes, n, 8, 8, 1, seed=seed)


def idx_dataset(tmp_path, n, num_classes=4, seed=0):
    """toy_dataset's images rounded to u8 pixels, written as an IDX pair and
    loaded back, and the set as load_idx once converted all of it: float32
    p / 255 of every pixel p."""
    ds = toy_dataset(n, num_classes, seed)
    ip, lp = tmp_path / f"{n}-images.idx", tmp_path / f"{n}-labels.idx"
    write_idx(np.rint(ds.images * 255.0), ds.labels, ip, lp)
    u8 = load_idx(ip, lp)
    whole = u8.images.astype(np.float32) / np.float32(255.0)
    return u8, Dataset(whole, u8.labels, u8.num_classes)


# ---------------------------------------------------------------------------
# sharding


def test_shard_single_replica_stream():
    ds = toy_dataset(n=12)
    steps = shard_train_data(ds, 1, 4, seed=0)
    assert len(steps) == 3
    assert all(len(s) == 1 for s in steps)
    assert steps[0][0][0].shape == (4, 8, 8, 1)


def test_shard_too_small_dataset():
    ds = toy_dataset(n=3)
    with pytest.raises(ValueError, match="smaller than one global batch"):
        shard_train_data(ds, 2, 2, seed=0)


def test_shard_drop_remainder():
    ds = toy_dataset(n=10)
    assert len(shard_train_data(ds, 2, 2, seed=0)) == 2  # 8 of 10 used


def test_shard_global_batch_invariant_across_factorizations():
    # the step-t global batch is the same example set for any N*b split of B
    ds = toy_dataset(n=24)
    variants = {}
    for n_rep, b in [(1, 8), (2, 4), (4, 2), (8, 1)]:
        steps = shard_train_data(ds, n_rep, b, seed=5, epoch=2)
        variants[n_rep] = [
            np.concatenate([img for img, _ in step]) for step in steps]
    for n_rep in (2, 4, 8):
        for t, ref in enumerate(variants[1]):
            assert variants[n_rep][t].tobytes() == ref.tobytes()


def test_shard_epochs_reshuffle():
    ds = toy_dataset(n=16)
    a = shard_train_data(ds, 1, 8, seed=1, epoch=0)
    b = shard_train_data(ds, 1, 8, seed=1, epoch=1)
    assert a[0][0][0].tobytes() != b[0][0][0].tobytes()
    c = shard_train_data(ds, 1, 8, seed=1, epoch=0)
    assert a[0][0][0].tobytes() == c[0][0][0].tobytes()


def listed_epoch(ds, num_replicas, per_core_batch, seed, epoch):
    """An epoch's steps built as one list, every step gathered up front."""
    batch = num_replicas * per_core_batch
    perm = stream(seed, "shuffle", epoch).permutation(len(ds))
    out = []
    for t in range(len(ds) // batch):
        idx = perm[t * batch : (t + 1) * batch].reshape(num_replicas, per_core_batch)
        out.append(list(zip(ds.images[idx], ds.labels[idx])))
    return out


def step_bytes(steps):
    return [b"".join(x.tobytes() + y.tobytes() for x, y in step) for step in steps]


@pytest.mark.parametrize("n, num_replicas, b", [(40, 2, 4), (64, 4, 2), (12, 1, 4)])
def test_epoch_steps_gather_the_listed_steps(n, num_replicas, b):
    ds = toy_dataset(n=n)
    steps = shard_train_data(ds, num_replicas, b, seed=7, epoch=3)
    ref = listed_epoch(ds, num_replicas, b, seed=7, epoch=3)
    assert len(steps) == len(ref)
    assert all(len(step) == num_replicas for step in steps)
    assert step_bytes(steps) == step_bytes(ref)
    assert step_bytes(steps) == step_bytes(ref)  # read again, same bytes
    assert step_bytes([steps[-1]]) == step_bytes([ref[-1]])
    for cut in (slice(1, 3), slice(None, 2), slice(-2, None), slice(5, None)):
        assert len(steps[cut]) == len(ref[cut])
        assert step_bytes(steps[cut]) == step_bytes(ref[cut])
    with pytest.raises(IndexError):
        steps[len(ref)]


def test_epoch_steps_read_u8_pixels_as_the_whole_set_converted(tmp_path):
    u8, whole = idx_dataset(tmp_path, 40)
    assert u8.images.dtype == np.uint8
    steps = shard_train_data(u8, 2, 4, seed=7, epoch=3)
    ref = listed_epoch(whole, 2, 4, seed=7, epoch=3)
    assert all(x.dtype == np.float32 for step in steps for x, _ in step)
    assert step_bytes(steps) == step_bytes(ref)


def test_build_datasets_holds_idx_sets_at_one_byte_per_pixel(tmp_path):
    # A train and an eval pair of 16x16 pixels. Converting a whole set to
    # float32 would hold 4 bytes per pixel and peak at 8.
    paths = []
    for split, n, stream_id in (("t", 512, 0), ("e", 256, 1)):
        ds = gen_synthetic(10, n, 16, 16, 1, seed=2, noise_stream=stream_id)
        images, labels = tmp_path / f"{split}i.idx", tmp_path / f"{split}l.idx"
        write_idx(np.rint(ds.images * 255.0), ds.labels, images, labels)
        paths += [str(images), str(labels)]
    cfg = tiny_config(dataset="idx:" + ",".join(paths))
    tracemalloc.start()
    try:
        train, evalset = build_datasets(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pixels = (512 + 256) * 16 * 16
    assert train.images.dtype == evalset.images.dtype == np.uint8
    assert train.images.nbytes + evalset.images.nbytes == pixels
    # Beyond the pixels: 6 KiB of int64 labels, the label files' bytes and
    # small objects.
    assert peak < pixels + 16 * 1024, (peak, pixels)


def test_epoch_steps_hold_two_steps_at_a_time():
    ds = toy_dataset(n=16 * 64)
    tracemalloc.start()
    try:
        steps = shard_train_data(ds, 4, 16, seed=1)
        for step in steps:
            one_step = sum(x.nbytes + y.nbytes for x, y in step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(steps) == 16
    assert peak < 3 * one_step, (peak, one_step)


# ---------------------------------------------------------------------------
# train_step


def test_train_step_single_vs_two_replicas():
    cfg1 = tiny_config(num_replicas=1, global_batch=4, bn_group_size=1)
    cfg2 = tiny_config(num_replicas=2, global_batch=4, bn_group_size=2)
    ds = toy_dataset(n=8)
    s1 = init_train_state(cfg1, ds.images.shape[1:], ds.num_classes)
    s2 = init_train_state(cfg2, ds.images.shape[1:], ds.num_classes)
    b1 = shard_train_data(ds, 1, 4, seed=9)[0]
    b2 = shard_train_data(ds, 2, 2, seed=9)[0]
    l1 = train_step(s1, b1, lr=0.05)
    l2 = train_step(s2, b2, lr=0.05)
    assert abs(l1 - l2) < 1e-6
    for p1, p2 in zip(s1.params, s2.params):
        assert float(np.abs(p1.value - p2.value).max()) < 1e-6, p1.name


def test_mixed_precision_training_runs_and_is_deterministic():
    cfg = tiny_config(precision="mixed_bf16", total_epochs=0.5)
    recs_a, _ = run(cfg)
    recs_b, _ = run(tiny_config(precision="mixed_bf16", total_epochs=0.5))
    assert format_metrics_csv(recs_a) == format_metrics_csv(recs_b)
    assert all(math.isfinite(r.train_loss) for r in recs_a)
    assert recs_a[-1].train_loss < recs_a[0].train_loss
    # rounding the conv path must actually change the numbers
    recs_fp32, _ = run(tiny_config(total_epochs=0.5))
    assert recs_fp32[-1].train_loss != recs_a[-1].train_loss


def test_train_step_zero_gradient_fixed_point():
    # saturated logits make every gradient exactly zero in fp32
    cfg = tiny_config(num_replicas=1, global_batch=4, bn_group_size=1)
    ds = toy_dataset(n=8, num_classes=4)
    labels = np.full(len(ds), 2, dtype=np.int64)
    ds = Dataset(ds.images, labels, ds.num_classes)
    state = init_train_state(cfg, ds.images.shape[1:], ds.num_classes)
    pmap = {p.name: p for p in state.params}
    pmap["fc/kernel"].value[:] = 0.0
    pmap["fc/bias"].value[:] = -200.0
    pmap["fc/bias"].value[2] = 200.0
    before = {p.name: p.value.copy() for p in state.params}
    batches = shard_train_data(ds, 1, 4, seed=0)[0]
    loss = train_step(state, batches, lr=0.05)
    assert loss == 0.0
    for p in state.params:
        assert p.value.tobytes() == before[p.name].tobytes(), p.name


# ---------------------------------------------------------------------------
# distributed evaluation


def constant_predictor_state(num_classes=2, favored=0):
    """Model whose prediction is always `favored`, for counting tests."""
    cfg = tiny_config(num_replicas=1, global_batch=4, bn_group_size=1)
    layers = build_model("toy_cnn", num_classes)
    params = init_params(layers, (8, 8, 1), seed=0)
    pmap = {p.name: p for p in params}
    pmap["fc/kernel"].value[:] = 0.0
    pmap["fc/bias"].value[:] = 0.0
    pmap["fc/bias"].value[favored] = 10.0
    return layers, params, init_bn_moving(layers, (8, 8, 1))


def test_distributed_eval_weighted_counts_hand_case():
    # per-replica counts (3 of 4) and (2 of 4) -> 5/8
    layers, params, moving = constant_predictor_state(num_classes=2, favored=0)
    labels = np.array([0, 0, 0, 1, 0, 0, 1, 1], dtype=np.int64)
    images = toy_dataset(n=8, num_classes=2).images
    ds = Dataset(images, labels, 2)
    top1 = distributed_eval(layers, params, moving, ds, 2, 4)
    assert top1 == 5 / 8


def test_distributed_eval_padding_denominator():
    # 10 examples on 4 replicas at batch 2 pads to 16; dummies never count
    layers, params, moving = constant_predictor_state(num_classes=2, favored=1)
    images = toy_dataset(n=10, num_classes=2).images
    ds = Dataset(images, np.ones(10, dtype=np.int64), 2)
    top1 = distributed_eval(layers, params, moving, ds, 4, 2)
    assert top1 == 1.0  # 10/10, not 10/16 (dummy zero-images also predict 1)


def test_distributed_eval_counts_are_exact():
    # 1 hit among 3 real examples (and 1 dummy) is exactly 1/3; float32
    # counts gave 0.3333333432674408.
    layers, params, moving = constant_predictor_state(num_classes=2, favored=0)
    images = toy_dataset(n=3, num_classes=2).images
    ds = Dataset(images, np.array([0, 1, 1], dtype=np.int64), 2)
    assert distributed_eval(layers, params, moving, ds, 2, 2) == 1 / 3


def test_distributed_eval_replica_count_invariance():
    cfg = tiny_config()
    train, evalset = build_datasets(cfg)
    state = init_train_state(cfg, train.images.shape[1:], train.num_classes)
    small = Dataset(evalset.images[:400], evalset.labels[:400],
                    evalset.num_classes)
    results = [distributed_eval(state.layers, state.params,
                                state.bn_moving, small, n, 25)
               for n in (1, 2, 4, 8)]
    assert all(r == results[0] for r in results)  # identical to 0 ulps


def test_distributed_eval_single_replica_plain():
    layers, params, moving = constant_predictor_state(num_classes=2, favored=0)
    images = toy_dataset(n=6, num_classes=2).images
    ds = Dataset(images, np.zeros(6, dtype=np.int64), 2)
    assert distributed_eval(layers, params, moving, ds, 1, 3) == 1.0


@pytest.mark.parametrize("num_replicas,eval_batch,pattern", [
    (0, 2, "num_replicas must be >= 1, got 0"),
    (-3, 2, "num_replicas must be >= 1, got -3"),
    (2, 0, "eval_batch must be >= 1, got 0")])
def test_distributed_eval_rejects_no_replicas_or_an_empty_batch(num_replicas, eval_batch,
                                                                 pattern):
    layers, params, moving = constant_predictor_state(num_classes=2, favored=0)
    ds = toy_dataset(n=6, num_classes=2)
    with pytest.raises(ValueError, match=pattern):
        distributed_eval(layers, params, moving, ds, num_replicas, eval_batch)


def _eval_case():
    # 37 examples in rows of 3: the last row holds one real example and two
    # dummies, and the 13 rows do not divide among 2, 4 or 8 replicas.
    layers = build_model("b5", 4)
    params = init_params(layers, (8, 8, 1), seed=5)
    return layers, params, init_bn_moving(layers, (8, 8, 1)), toy_dataset(37, 4, seed=5)


@pytest.mark.parametrize("policy", [FP32_ONLY, MIXED_BF16_CONV], ids=lambda p: p.mode)
@pytest.mark.parametrize("num_replicas", [1, 2, 4, 8])
def test_distributed_eval_chunking_changes_no_count(monkeypatch, num_replicas, policy):
    layers, params, moving, ds = _eval_case()
    whole = eval_forward(layers, params, moving, ds.images[None], policy)
    hits = int((whole[0].argmax(axis=1) == ds.labels).sum())
    assert 0 < hits < len(ds)
    top1 = []
    for budget in (1, 2 ** 40):  # one row per chunk; one chunk of every row
        monkeypatch.setattr(model, "CHUNK_BYTES", budget)
        top1.append(distributed_eval(layers, params, moving, ds, num_replicas, 3, policy))
    assert top1 == [hits / len(ds)] * 2


# b5's largest layer output on 8x8x1 inputs is its first conv's, 4x4x8
# floats, so a row of 3 examples holds 3 * 4 * 4 * 8 * 4 bytes. The 13 rows
# are cut into chunks of the budget's rows, not into rounds of 8 replicas.
@pytest.mark.parametrize("budget,rows", [
    (1, [1] * 13), (3 * (3 * 4 * 4 * 8 * 4), [3, 3, 3, 3, 1]), (2 ** 40, [13])],
    ids=["one-replica", "three-replicas", "whole-set"])
def test_distributed_eval_calls_read_each_real_row_once_in_order(monkeypatch, budget, rows):
    layers, params, moving, ds = _eval_case()
    calls = []

    def recorded(layers, params, bn_moving, x, policy):
        calls.append(x)
        return eval_forward(layers, params, bn_moving, x, policy)

    monkeypatch.setattr(trainer, "eval_forward", recorded)
    monkeypatch.setattr(model, "CHUNK_BYTES", budget)
    # Calls are recorded in the order threads start them, so one thread walks
    # the chunks in order; tests/test_chunk_threads.py covers the threads.
    monkeypatch.setattr(model, "worker_count", lambda: 1)
    distributed_eval(layers, params, moving, ds, 8, 3)
    assert [len(x) for x in calls] == rows
    largest = max(map(math.prod, infer_shapes(layers, (8, 8, 1))))
    for x in calls:
        assert x.shape[1:] == (3, 8, 8, 1)
        assert len(x) == 1 or len(x) * 3 * largest * x.itemsize <= budget
    seen = np.concatenate([x.reshape(-1, 8, 8, 1) for x in calls])
    assert len(seen) == 13 * 3  # the 13 rows that hold a real example, no more
    assert seen[:37].tobytes() == ds.images.tobytes()
    assert not seen[37:].any()
    # Only the call that finishes the last row with dummies copies the set.
    views = [np.shares_memory(x, ds.images) for x in calls]
    assert views == [True] * (len(calls) - 1) + [False]


# Three rows per chunk, so no chunk repeats a replica at 6 or 8; one chunk of
# all 13 rows gives replicas 0-4 of 8 two rows each.
@pytest.mark.parametrize("num_replicas,budget", [
    (8, 3 * (3 * 4 * 4 * 8 * 4)), (6, 3 * (3 * 4 * 4 * 8 * 4)), (8, 2 ** 40)],
    ids=["8-three-rows", "6-three-rows", "8-whole-set"])
def test_distributed_eval_gives_each_replica_the_counts_of_its_rows(
        monkeypatch, num_replicas, budget):
    layers, params, moving, ds = _eval_case()
    whole = eval_forward(layers, params, moving, ds.images[None])
    hit = whole[0].argmax(axis=1) == ds.labels
    replica = (np.arange(len(ds)) // 3) % num_replicas  # rows r, r + N, ...
    want = np.stack([np.bincount(replica, hit, num_replicas),
                     np.bincount(replica, minlength=num_replicas)], axis=1)
    reduced, reduce = [], trainer.all_reduce

    def recorded(per_replica, op):
        reduced.append(per_replica.copy())
        return reduce(per_replica, op)

    monkeypatch.setattr(trainer, "all_reduce", recorded)
    monkeypatch.setattr(model, "CHUNK_BYTES", budget)
    distributed_eval(layers, params, moving, ds, num_replicas, 3)
    assert len(reduced) == 1 and reduced[0].shape == (num_replicas, 2)
    assert reduced[0].tolist() == want.astype(np.int64).tolist()
    assert 0 < want[:, 0].sum() < len(ds)


@pytest.mark.parametrize("policy", [FP32_ONLY, MIXED_BF16_CONV], ids=lambda p: p.mode)
@pytest.mark.parametrize("num_replicas", [1, 8])
def test_distributed_eval_of_u8_pixels_is_a_pass_over_their_values(
        monkeypatch, tmp_path, num_replicas, policy):
    # Chunks of three rows of 3 float32 examples (see above): a chunk sized
    # by the u8 pixels' bytes would hold four times the rows.
    layers, params, moving, _ = _eval_case()
    u8, whole = idx_dataset(tmp_path, 37, seed=5)
    monkeypatch.setattr(model, "CHUNK_BYTES", 3 * (3 * 4 * 4 * 8 * 4))
    calls, forward = [], trainer.eval_forward

    def recorded(layers, params, moving, x, policy):
        calls.append((len(x), x.dtype))
        return forward(layers, params, moving, x, policy)

    monkeypatch.setattr(trainer, "eval_forward", recorded)
    top1 = [distributed_eval(layers, params, moving, ds, num_replicas, 3, policy)
            for ds in (u8, whole)]
    assert top1[0] == top1[1] and 0 < top1[0] < 1
    assert sorted(calls) == sorted([(3, np.float32)] * 8 + [(1, np.float32)] * 2)


def test_distributed_eval_peak_is_a_small_part_of_the_set():
    # 16,389 examples of 16x16x1 float32 (16 MiB) on 64 replicas: rows of
    # 257, the last one finished with 59 dummies. A padded copy of the set,
    # or a walk of every row at once, peaks above half of it.
    ds = gen_synthetic(10, 16389, 16, 16, 1, seed=6)
    layers = build_model("toy_cnn", 10)
    params = init_params(layers, (16, 16, 1), seed=6)
    moving = init_bn_moving(layers, (16, 16, 1))
    tracemalloc.start()
    try:
        distributed_eval(layers, params, moving, ds, 64, 257)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (ds.images.nbytes + ds.labels.nbytes) / 2


# ---------------------------------------------------------------------------
# the kept first-layer operand: a prepared model and eval set


@pytest.mark.parametrize("policy", [FP32_ONLY, MIXED_BF16_CONV], ids=lambda p: p.mode)
@pytest.mark.parametrize("num_replicas", [1, 2, 8])
def test_kept_operand_gives_the_plain_passes_top1(monkeypatch, num_replicas, policy):
    layers, params, moving, ds = _eval_case()
    plain = distributed_eval(layers, params, moving, ds, num_replicas, 3, policy)
    prepared, patches = prepare_first_conv(layers, params, ds.images, policy)
    kept = Dataset(patches, ds.labels, ds.num_classes)
    calls, forward = [], trainer.eval_forward

    def recorded(layers, params, moving, x, policy):
        calls.append(x)
        return forward(layers, params, moving, x, policy)

    monkeypatch.setattr(trainer, "eval_forward", recorded)
    top1 = distributed_eval(prepared, params, moving, kept, num_replicas, 3, policy)
    # perfbench's invariance check reruns a pass on one replica, same arguments.
    single = distributed_eval(prepared, params, moving, kept, 1, 3, policy)
    assert top1 == single == plain
    # 13 rows of 3: each pass pads the last in patch space with the patches
    # of two zero images: zeros. Float32 patches are read in place, so that
    # row's slice is the one copy; bf16 patches are widened in every chunk.
    padded = np.concatenate([ds.images, np.zeros((2, 8, 8, 1), ds.images.dtype)])
    want = as_float32(prepare_first_conv(layers, params, padded, policy)[1][-3:])
    assert not want[1:].any()
    assert [x[-1].tobytes() for x in calls if not x[-1, 1:].any()] == [want.tobytes()] * 2
    copies = [x for x in calls if not np.shares_memory(x, kept.images)]
    assert len(copies) == (len(calls) if policy.rounds_conv else 2)


@pytest.mark.parametrize("policy", [FP32_ONLY, MIXED_BF16_CONV], ids=lambda p: p.mode)
def test_patches_of_u8_pixels_are_the_patches_of_their_values(monkeypatch, tmp_path,
                                                              policy):
    # Blocks of five examples' float32 patches (4x4 positions of 3x3 taps): a
    # block sized by the u8 pixels' bytes would hold four times the examples.
    layers, params, _, _ = _eval_case()
    u8, whole = idx_dataset(tmp_path, 37, seed=5)
    monkeypatch.setattr(model, "CHUNK_BYTES", 5 * (4 * 4 * 9 * 4))
    im2col, blocks = model.nn.im2col, []

    def recorded(x, *rest):
        blocks.append(x.shape[1])
        return im2col(x, *rest)

    monkeypatch.setattr(model.nn, "im2col", recorded)
    got = [prepare_first_conv(layers, params, ds.images, policy)[1] for ds in (u8, whole)]
    assert got[0].dtype == got[1].dtype and got[0].tobytes() == got[1].tobytes()
    assert blocks == ([5] * 7 + [2]) * 2


def test_a_build_of_one_block_per_example_is_the_default_build(monkeypatch):
    # Two workers and a one-byte budget: the build still runs on this thread
    # alone, one im2col call per example.
    layers, params, _, ds = _eval_case()
    whole = prepare_first_conv(layers, params, ds.images, MIXED_BF16_CONV)[1]
    monkeypatch.setattr(model, "worker_count", lambda: 2)
    monkeypatch.setattr(model, "CHUNK_BYTES", 1)
    im2col, threads = model.nn.im2col, []

    def recorded(x, *rest):
        threads.append(threading.get_ident())
        return im2col(x, *rest)

    monkeypatch.setattr(model.nn, "im2col", recorded)
    blocks = prepare_first_conv(layers, params, ds.images, MIXED_BF16_CONV)[1]
    assert blocks.tobytes() == whole.tobytes()
    assert threads == [threading.get_ident()] * 37


def test_run_prepares_the_eval_images_once(monkeypatch):
    # Three evals of the 2,048 synthetic eval examples, in rows of 256 on 2
    # replicas. toy_cnn's one conv reads the model input, so every im2col
    # and every rounding of a 5-D array in a pass is its input-only stage.
    cfg = tiny_config(global_batch=512, total_epochs=3.0, precision="mixed_bf16")
    passes, events, in_pass = [], [], []
    prepared = {"im2col": 0, "to_bf16": 0}  # examples an eval pass prepares
    calls = {name: getattr(mod, name) for mod, name in
             ((trainer, "distributed_eval"), (trainer, "prepare_first_conv"),
              (trainer, "train_step"), (model.nn, "im2col"),
              (model.precision, "to_bf16"))}

    def eval_pass(*args):
        passes.append(args[:4])
        in_pass.append(True)
        try:
            return calls["distributed_eval"](*args)
        finally:
            in_pass.pop()

    def logged(name):
        def fn(*args):
            events.append(name)
            return calls[name](*args)
        return fn

    def counted(name):
        def fn(x, *rest):
            if in_pass and np.ndim(x) == 5:
                prepared[name] += len(x) * x.shape[1]  # examples
            return calls[name](x, *rest)
        return fn

    monkeypatch.setattr(trainer, "distributed_eval", eval_pass)
    monkeypatch.setattr(trainer, "prepare_first_conv", logged("prepare_first_conv"))
    monkeypatch.setattr(trainer, "train_step", logged("train_step"))
    monkeypatch.setattr(model.nn, "im2col", counted("im2col"))
    monkeypatch.setattr(model.precision, "to_bf16", counted("to_bf16"))
    records, state = run(cfg)
    # Built once, after the first epoch's 16 steps, before the first pass.
    assert events == ["train_step"] * 16 + ["prepare_first_conv"] + ["train_step"] * 32
    assert len(passes) == 3
    assert all(p[0] is passes[0][0] and p[3] is passes[0][3] for p in passes)
    assert passes[0][0][0].kind == "conv2d_gemm" and passes[0][3].images.shape[1:] == (8, 8, 9)
    assert prepared == {"im2col": 0, "to_bf16": 0}
    # A plain pass over the images prepares them in the pass.
    eval_ds = build_datasets(cfg)[1]
    plain = eval_pass(state.layers, state.params, state.bn_moving, eval_ds, 2, 256,
                      cfg.policy)
    assert prepared == {"im2col": 2048, "to_bf16": 2048}
    assert plain == records[-1].eval_top1


def test_run_drops_the_eval_images_once_they_are_prepared(monkeypatch):
    # Three evals of toy_cnn on 2 replicas: every pass reads the patches and
    # labels, so the images handed to prepare_first_conv are freed before it.
    cfg = tiny_config(global_batch=512, total_epochs=3.0)
    images, alive = [], []
    prepare, eval_pass = trainer.prepare_first_conv, trainer.distributed_eval

    def kept(layers, params, x, policy):
        images.append(weakref.ref(x))
        return prepare(layers, params, x, policy)

    def checked(*args):
        alive.append(images[0]() is not None)
        return eval_pass(*args)

    monkeypatch.setattr(trainer, "prepare_first_conv", kept)
    monkeypatch.setattr(trainer, "distributed_eval", checked)
    run(cfg)
    assert len(images) == 1 and alive == [False] * 3


@pytest.mark.parametrize("replicas,global_batch,n_eval,eval_batch", [
    (1024, 65536, 2048, 2),  # one round of exactly 2,048: no padding
    (8, 512, 2048, 64),  # train-8x64-fp32: the per-core batch, below a share of 256
    (64, 512, 2000, 8),  # train-64x8-bf16: the per-core batch, below a share of 32
    (16, 256, 64, 4),  # a share of 4, below the per-core 16
])
def test_eval_batch_is_the_per_core_batch_capped_at_one_share(
        replicas, global_batch, n_eval, eval_batch):
    cfg = TrainConfig(num_replicas=replicas, global_batch=global_batch)
    assert cfg.eval_batch_for(n_eval) == eval_batch


def test_run_evaluates_at_one_replicas_share(tmp_path, monkeypatch):
    # 64 eval examples over 16 replicas x 16: eval batch 4, one round, no
    # padding, where the per-core batch of 16 would pad 64 examples to 256.
    paths = []
    for split, n in (("t", 256), ("e", 64)):
        ds = gen_synthetic(10, n, 8, 8, 1, seed=len(paths))
        images, labels = tmp_path / f"{split}i.idx", tmp_path / f"{split}l.idx"
        write_idx((ds.images * 255).round().astype(np.uint8), ds.labels, images, labels)
        paths += [str(images), str(labels)]
    cfg = tiny_config(dataset="idx:" + ",".join(paths), num_replicas=16,
                      global_batch=256, bn_group_size=16)
    calls = []

    def spy(*args):
        calls.append(args[5])
        return distributed_eval(*args)

    monkeypatch.setattr(trainer, "distributed_eval", spy)
    records, state = run(cfg)
    assert calls == [4]
    eval_ds = build_datasets(cfg)[1]
    assert records[-1].eval_top1 == distributed_eval(
        state.layers, state.params, state.bn_moving, eval_ds, 16, 16)


# ---------------------------------------------------------------------------
# run loop and metrics


def test_run_zero_epochs_single_eval_record():
    cfg = tiny_config(total_epochs=0.0)
    records, _ = run(cfg)
    assert len(records) == 1
    assert records[0].eval_top1 is not None
    assert math.isnan(records[0].train_loss)


def test_run_metrics_deterministic():
    csv_a = format_metrics_csv(run(tiny_config())[0])
    csv_b = format_metrics_csv(run(tiny_config())[0])
    assert csv_a == csv_b


def test_run_records_structure(tmp_path):
    cfg = tiny_config(total_epochs=2.0, eval_every_epochs=1.0)
    records, _ = run(cfg)
    spe = 8192 // cfg.global_batch
    assert len(records) == 2 * spe
    assert records[0].lr == lr_at(cfg.schedule(spe), 0)
    evals = [r for r in records if r.eval_top1 is not None]
    assert [r.epoch for r in evals] == [1.0, 2.0]
    assert all(r.modeled_step_ms > 0 for r in records)
    assert records[3].elapsed_s == pytest.approx(
        4 * records[0].modeled_step_ms / 1000.0)

    path = tmp_path / "m.csv"
    write_metrics_csv(records, path)
    text = path.read_text().splitlines()
    assert text[0] == METRICS_HEADER
    first = text[1].split(",")
    assert first[0] == "0" and first[4] == ""  # no eval on the first step
    assert len(text) == 1 + len(records)


def test_run_nonfinite_loss_aborts_with_records():
    # BN makes the net scale-invariant, so RMSProp blowups stay finite; the
    # LARS trust ratio multiplies weight norms per step and overflows fast.
    cfg = tiny_config(optimizer="lars", lr_per_256=1e9, lars_eta=1.0,
                      warmup_epochs=0.0)
    with pytest.raises(NonFiniteLossError) as exc_info:
        run(cfg)
    assert len(exc_info.value.records) >= 1
    assert not math.isfinite(exc_info.value.records[-1].train_loss)


def test_time_to_peak():
    def rec(step, top1, elapsed):
        return MetricsRecord(step, float(step), 0.1, 1.0, top1, 1.0, 1.0, elapsed)

    assert time_to_peak([rec(0, 0.8, 600.0)]) == (0.8, 10.0)
    records = [rec(0, 0.5, 60.0), rec(1, 0.9, 120.0), rec(2, 0.9, 180.0)]
    assert time_to_peak(records) == (0.9, 2.0)
    with pytest.raises(ValueError, match="no evaluation"):
        time_to_peak([MetricsRecord(0, 0.0, 0.1, 1.0, None, 1.0, 1.0, 0.0)])


def test_save_load_weights_roundtrip(tmp_path):
    cfg = tiny_config(total_epochs=1.0)
    records, state = run(cfg)
    path = tmp_path / "w.npz"
    save_weights(state, path)
    params, moving = load_weights(path, state.layers, (16, 16, 1))
    want = {p.name: p for p in state.params}
    assert {p.name for p in params} == set(want)
    for p in params:
        assert p.value.tobytes() == want[p.name].value.tobytes()
        assert p.tag == want[p.name].tag
    for lname, (mm, mv) in state.bn_moving.items():
        assert moving[lname][0].tobytes() == mm.tobytes()
        assert moving[lname][1].tobytes() == mv.tobytes()


def _bn_keys(i, kernel):
    return [f"param/kernel/{kernel}/kernel", f"param/bn_gamma/bn{i}/gamma",
            f"param/bn_beta/bn{i}/beta"]


_FC_KEYS = ["param/kernel/fc/kernel", "param/bias/fc/bias"]
_TOY_KEYS = _bn_keys(1, "conv1") + _FC_KEYS + ["bn_mean/bn1", "bn_var/bn1"]
# The npz format: the archive keys of each model, in file order.
WEIGHTS_KEYS = {
    "toy_cnn": _TOY_KEYS,
    "toy_cnn_pool": _TOY_KEYS,
    "b2": _bn_keys(1, "conv1") + _bn_keys(2, "conv2") + _FC_KEYS
          + ["bn_mean/bn1", "bn_var/bn1", "bn_mean/bn2", "bn_var/bn2"],
    "b5": _bn_keys(1, "conv1") + _bn_keys(2, "dwconv2") + _bn_keys(3, "conv3")
          + _FC_KEYS + ["bn_mean/bn1", "bn_var/bn1", "bn_mean/bn2", "bn_var/bn2",
                        "bn_mean/bn3", "bn_var/bn3"],
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_weights_archive_keys_of_every_model(name):
    layers = build_model(name, 10)
    arrays = _weights_arrays(init_params(layers, (16, 16, 1), seed=0),
                             init_bn_moving(layers, (16, 16, 1)))
    assert list(arrays) == WEIGHTS_KEYS[name]
    assert infer_shapes(layers, (16, 16, 1))[-1] == (10,)  # one logit per class


def test_load_weights_rejects_a_negative_bn_variance(tmp_path):
    cfg = tiny_config(total_epochs=0.0)
    _, state = run(cfg)
    lname = next(iter(state.bn_moving))
    mv = state.bn_moving[lname][1]
    mv[1] = -1.0
    path = tmp_path / "w.npz"
    save_weights(state, path)
    with pytest.raises(ValueError, match=f"bn_var/{lname} with a negative variance"):
        load_weights(path, state.layers, (16, 16, 1))


def test_config_validation_errors():
    with pytest.raises(ValueError, match="multiple"):
        tiny_config(num_replicas=3, global_batch=16)
    with pytest.raises(ValueError, match="divide"):
        tiny_config(num_replicas=8, global_batch=64, bn_group_size=3)
    with pytest.raises(ValueError, match="optimizer"):
        tiny_config(optimizer="adam")
    with pytest.raises(ValueError, match="tile"):
        tiny_config(bn_grouping="2d")
    with pytest.raises(ValueError, match="contradicts"):
        tiny_config(num_replicas=8, global_batch=64, bn_grouping="2d",
                    bn_group_size=8, tile_rows=2, tile_cols=2)


def test_config_builds_the_papers_fixed_hyperparameters():
    # The optimizer constants are the optim defaults, which hold the
    # EfficientNet recipe's values; only lars_eta is a key. The decay follows
    # the optimizer, with optim's constants.
    rms = tiny_config(optimizer="rmsprop")
    lars = tiny_config(optimizer="lars", lars_eta=0.02)
    assert rms.optimizer_config == RmsPropConfig() == RmsPropConfig(0.9, 0.9, 1e-3)
    assert lars.optimizer_config == LarsConfig(eta=0.02) == LarsConfig(0.02, 0.9, 1e-5)
    assert rms.schedule(1).decay == "exponential"
    assert lars.schedule(1).decay == "polynomial"
    assert (optim.EXP_DECAY_RATE, optim.EPOCHS_PER_DECAY, optim.POLY_POWER) == (0.97, 2.4, 2.0)
    assert (distbn.DEFAULT_MOMENTUM, distbn.DEFAULT_EPS) == (0.99, 1e-3)


def test_config_2d_grouping_assignment():
    cfg = tiny_config(num_replicas=8, global_batch=64, bn_grouping="2d",
                      bn_group_size=4, tile_rows=2, tile_cols=2)
    assert cfg.bn_groups.tolist() == [[0, 1, 4, 5], [2, 3, 6, 7]]


def test_run_with_2d_groups_and_mixed_precision():
    cfg = tiny_config(num_replicas=8, global_batch=256, bn_grouping="2d",
                      bn_group_size=4, tile_rows=2, tile_cols=2,
                      precision="mixed_bf16", total_epochs=0.5)
    records, _ = run(cfg)
    assert all(math.isfinite(r.train_loss) for r in records)
    assert records[-1].train_loss < records[0].train_loss
    assert records[-1].eval_top1 is not None
    # tiled groups genuinely change BN statistics vs full-pod grouping
    full, _ = run(tiny_config(num_replicas=8, global_batch=256, bn_group_size=8,
                              precision="mixed_bf16", total_epochs=0.5))
    assert records[0].train_loss != full[0].train_loss
