"""Model pipeline, initialization, engine, and gradient-checker tests."""

import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from minipod import model
from minipod.data import as_float32, gen_synthetic
from minipod.distbn import assign_groups_1d, assign_groups_2d
from minipod.precision import FP32_ONLY, MIXED_BF16_CONV, to_bf16
from minipod.model import (
    batchnorm,
    build_model,
    conv2d,
    dense,
    EngineResult,
    distributed_forward_backward,
    eval_forward,
    global_avg_pool,
    grad_check,
    infer_shapes,
    init_bn_moving,
    init_params,
    prepare_first_conv,
    swish,
)


@pytest.fixture(scope="module")
def small_data():
    ds = gen_synthetic(4, 8, 8, 8, 1, seed=3)
    return ds.images, ds.labels


def test_infer_shapes_toy_model():
    layers = build_model("toy_cnn_pool", 10)
    shapes = infer_shapes(layers, (16, 16, 1))
    assert shapes[0] == (16, 16, 8)   # conv, stride 1, same
    assert shapes[3] == (8,)          # pooled channels
    assert shapes[4] == (10,)         # classifier


def test_duplicate_layer_names_rejected():
    layers = [conv2d("x", 4, 3), batchnorm("x")]
    with pytest.raises(ValueError, match="unique"):
        infer_shapes(layers, (8, 8, 1))


def test_init_params_deterministic_and_tagged():
    layers = build_model("toy_cnn_pool", 4)
    a = init_params(layers, (8, 8, 1), seed=42)
    b = init_params(layers, (8, 8, 1), seed=42)
    assert [p.name for p in a] == [p.name for p in b]
    for pa, pb in zip(a, b):
        assert pa.value.tobytes() == pb.value.tobytes()
    tags = {p.name: p.tag for p in a}
    assert tags["conv1/kernel"] == "kernel"
    assert tags["bn1/gamma"] == "bn_gamma"
    assert tags["fc/bias"] == "bias"
    # kernel draws are truncated at two standard deviations
    k = next(p for p in a if p.name == "conv1/kernel")
    std = np.sqrt(2.0 / (3 * 3 * 1))
    assert np.abs(k.value).max() <= 2.0 * std + 1e-6


def test_init_independent_of_param_order_stream():
    # each parameter has its own stream: adding a layer leaves others unchanged
    small = [conv2d("conv1", 4, 3), batchnorm("bn1"),
             global_avg_pool("p"), dense("fc", 2)]
    big = [conv2d("conv1", 4, 3), batchnorm("bn1"), swish("s"),
           global_avg_pool("p"), dense("fc", 2)]
    pa = {p.name: p for p in init_params(small, (8, 8, 1), seed=7)}
    pb = {p.name: p for p in init_params(big, (8, 8, 1), seed=7)}
    assert pa["conv1/kernel"].value.tobytes() == pb["conv1/kernel"].value.tobytes()


def test_mean_loss_adds_the_losses_left_to_right_from_zero():
    # Python 3.12's compensated sum() gives 1.0 for ten 0.1s; the plain
    # ascending sum of 3.10 and 3.11, which the metrics keep, gives
    # 0.9999999999999999.
    assert EngineResult([0.1] * 10, None, {}).mean_loss == 0.9999999999999999 / 10
    zero = EngineResult([-0.0, -0.0], None, {}).mean_loss
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0


def test_engine_mean_loss_matches_replica_mean(small_data):
    x, labels = small_data
    layers = build_model("toy_cnn_pool", 4)
    params = init_params(layers, x.shape[1:], seed=0)
    res = distributed_forward_backward(
        layers, params, x.reshape(2, 4, *x.shape[1:]), labels.reshape(2, 4),
        assign_groups_1d(2, 2))
    assert res.mean_loss == sum(res.losses) / 2
    assert len(res.losses) == 2
    assert [g.shape for g in res.grads] == [(2,) + p.value.shape for p in params]


def test_engine_skips_only_the_model_input_gradient(monkeypatch):
    # b5: conv1 reads the model input; dwconv2 and conv3 feed layers below.
    calls = []
    for kind in ("conv2d", "depthwise_conv2d"):
        def record(*args, fn=getattr(model.nn, f"{kind}_backward"), kind=kind, **kw):
            calls.append((kind, kw.get("input_grad", True)))
            return fn(*args, **kw)
        monkeypatch.setattr(model.nn, f"{kind}_backward", record)
    ds = gen_synthetic(10, 8, 8, 8, 1, seed=4)
    layers = build_model("b5", 10)
    params = init_params(layers, (8, 8, 1), seed=4)
    distributed_forward_backward(
        layers, params, ds.images.reshape(2, 4, 8, 8, 1), ds.labels.reshape(2, 4),
        assign_groups_1d(2, 2))
    assert calls == [("conv2d", True), ("depthwise_conv2d", True), ("conv2d", False)]


def test_engine_frees_each_patch_matrix_once_its_layer_is_done(monkeypatch):
    # b2: conv1, bn1, act1, conv2, bn2, act2, pool, fc. conv2's backward
    # consumes its patch matrix before act1, the layer below, runs its own.
    patches, alive = [], []

    def im2col(*args, fn=model.nn.im2col, **kw):
        out = fn(*args, **kw)
        patches.append(weakref.ref(out))
        return out

    def swish_backward(*args, fn=model.nn.swish_backward):
        alive.append([ref() is not None for ref in patches])
        return fn(*args)

    monkeypatch.setattr(model.nn, "im2col", im2col)
    monkeypatch.setattr(model.nn, "swish_backward", swish_backward)
    ds = gen_synthetic(10, 8, 8, 8, 1, seed=4)
    layers = build_model("b2", 10)
    params = init_params(layers, (8, 8, 1), seed=4)
    distributed_forward_backward(
        layers, params, ds.images.reshape(2, 4, 8, 8, 1), ds.labels.reshape(2, 4),
        assign_groups_1d(2, 2))
    # act2, then act1; patches of conv1, conv2
    assert alive == [[True, True], [True, False]]
    assert [ref() for ref in patches] == [None, None]


def test_engine_makes_one_bn_all_reduce_per_layer_and_pass(monkeypatch):
    # b5 has three BN layers: three forward and three backward reductions,
    # each over all groups of a chunk at once. Its 4 replicas fit one chunk.
    # Chunks may run on two threads, so reductions are recorded per thread.
    shapes, reduce = {}, model.distbn.all_reduce

    def counted(per_replica, op="sum"):
        shapes.setdefault(threading.get_ident(), []).append(per_replica.shape)
        return reduce(per_replica, op)

    monkeypatch.setattr(model.distbn, "all_reduce", counted)
    monkeypatch.setattr(model, "worker_count", lambda: 2)
    ds = gen_synthetic(10, 16, 8, 8, 1, seed=5)
    layers = build_model("b5", 10)
    params = init_params(layers, (8, 8, 1), seed=5)

    def step(forward):
        # Each thread's reductions are whole chunks, each chunk's forward
        # reductions and then its backward ones in reverse; returns how many
        # chunks all threads walked.
        shapes.clear()
        distributed_forward_backward(
            layers, params, ds.images.reshape(4, 4, 8, 8, 1), ds.labels.reshape(4, 4),
            assign_groups_1d(4, 2))
        chunk = forward + forward[::-1]
        walked = [len(s) // len(chunk) for s in shapes.values()]
        assert all(s == k * chunk for s, k in zip(shapes.values(), walked))
        return sum(walked)

    assert step([(2, 2, 2, 8), (2, 2, 2, 8), (2, 2, 2, 16)]) == 1  # [group size, G, 2, C]
    # A one-byte budget puts each group in a chunk of its own: one reduction
    # per BN layer, pass and chunk.
    monkeypatch.setattr(model, "CHUNK_BYTES", 1)
    assert step([(2, 1, 2, 8), (2, 1, 2, 8), (2, 1, 2, 16)]) == 2


@pytest.mark.parametrize("forward_only", [False, True], ids=["full", "forward_only"])
@pytest.mark.parametrize("policy", [FP32_ONLY, MIXED_BF16_CONV], ids=lambda p: p.mode)
def test_engine_chunks_of_one_group_match_one_chunk_bitwise(monkeypatch, policy,
                                                            forward_only):
    # 2x2 tiles of a 4x4 grid: groups {0, 1, 4, 5}, {2, 3, 6, 7}, ... are no
    # contiguous range of replicas.
    ds = gen_synthetic(10, 32, 8, 8, 1, seed=13)
    layers = build_model("b5", 10)
    params = init_params(layers, (8, 8, 1), seed=13)
    x, labels = ds.images.reshape(16, 2, 8, 8, 1), ds.labels.reshape(16, 2)
    groups = assign_groups_2d(16, (2, 2))
    plans, plan = [], model.distbn.plan_chunks

    def recorded(*args):
        plans.append(plan(*args))
        return plans[-1]

    monkeypatch.setattr(model.distbn, "plan_chunks", recorded)

    def step(budget):
        monkeypatch.setattr(model, "CHUNK_BYTES", budget)
        return distributed_forward_backward(layers, params, x, labels, groups,
                                            policy=policy, forward_only=forward_only)

    one, chunked = step(2 ** 40), step(1)
    assert [len(p) for p in plans] == [1, 4]
    assert [c.replicas.tolist() for c in plans[1]][0] == [0, 1, 4, 5]
    assert np.array(chunked.losses).tobytes() == np.array(one.losses).tobytes()
    if forward_only:
        assert chunked.grads is one.grads is None
    else:
        for g_one, g_chunked in zip(one.grads, chunked.grads):
            assert g_chunked.shape == g_one.shape
            assert g_chunked.tobytes() == g_one.tobytes()
    assert list(chunked.bn_saved) == list(one.bn_saved) == ["bn1", "bn2", "bn3"]
    for name, stats in one.bn_saved.items():
        for a, b in zip(stats, chunked.bn_saved[name]):
            assert a.shape == b.shape == (4, a.shape[1])
            assert a.tobytes() == b.tobytes()


def test_engine_chunks_keep_the_step_peak_small(monkeypatch):
    # toy_cnn on 64 replicas x 64 with groups of 8: a group's conv output is
    # 1 MiB, so the default budget walks one group at a time on each thread.
    layers = build_model("toy_cnn", 10)
    params = init_params(layers, (16, 16, 1), seed=14)

    def peak(replicas, workers, budget=model.CHUNK_BYTES):
        ds = gen_synthetic(10, replicas * 64, 16, 16, 1, seed=14)
        x, labels = ds.images.reshape(replicas, 64, 16, 16, 1), ds.labels.reshape(-1, 64)
        monkeypatch.setattr(model, "CHUNK_BYTES", budget)
        monkeypatch.setattr(model, "worker_count", lambda: workers)
        tracemalloc.start()
        try:
            distributed_forward_backward(layers, params, x, labels,
                                         assign_groups_1d(replicas, 8))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_chunk = peak(64, 1)  # one chunk's activations live at a time
    assert one_chunk < peak(64, 1, 2 ** 40) / 4
    # W threads hold at most W chunks; doubling the replicas adds chunks,
    # not live activations (the [N, ...] gradients do grow with N).
    two = peak(64, 2)
    assert two <= 2 * one_chunk
    assert peak(128, 2) < 1.5 * two


@pytest.mark.parametrize("policy", [FP32_ONLY, MIXED_BF16_CONV], ids=lambda p: p.mode)
def test_engine_stacked_replicas_match_single_replica_calls(policy):
    # With groups of one, replica r of a stacked call computes exactly what a
    # one-replica call on its batch computes, down to the last bit.
    ds = gen_synthetic(10, 20, 8, 8, 1, seed=12)
    layers = build_model("b5", 10)
    params = init_params(layers, (8, 8, 1), seed=12)
    x, labels = ds.images.reshape(4, 5, 8, 8, 1), ds.labels.reshape(4, 5)
    stacked = distributed_forward_backward(
        layers, params, x, labels, assign_groups_1d(4, 1), policy=policy)
    for r in range(4):
        one = distributed_forward_backward(
            layers, params, x[r:r + 1], labels[r:r + 1],
            assign_groups_1d(1, 1), policy=policy)
        assert one.losses == [stacked.losses[r]]
        for g_all, g_one in zip(stacked.grads, one.grads):
            assert g_all[r].tobytes() == g_one[0].tobytes()
        for name, (mean, var) in stacked.bn_saved.items():
            assert mean[r].tobytes() == one.bn_saved[name][0][0].tobytes()
            assert var[r].tobytes() == one.bn_saved[name][1][0].tobytes()


def test_engine_loss_is_softmax_xent_of_eval_logits(small_data):
    # Without BN, training and inference run the same layers, so the engine's
    # losses are nn.softmax_xent of eval_forward's logits, bit for bit.
    x, labels = small_data
    layers = [conv2d("c", 4, 3), global_avg_pool("p")]
    params = init_params(layers, x.shape[1:], seed=9)
    x, labels = x.reshape(2, 4, *x.shape[1:]), labels.reshape(2, 4)
    res = distributed_forward_backward(layers, params, x, labels,
                                       assign_groups_1d(2, 1))
    losses, _ = model.nn.softmax_xent(eval_forward(layers, params, {}, x), labels)
    assert np.array(res.losses, np.float32).tobytes() == losses.tobytes()


def test_layer_ops_map_activations_only():
    assert sorted(model.LAYER_OPS) == ["batchnorm", "conv2d", "conv2d_gemm", "dense",
                                       "depthwise_conv2d", "global_avg_pool", "swish"]
    with pytest.raises(ValueError, match="at least one layer"):
        infer_shapes([], (8, 8, 1))


def test_gradcheck_linear_model(small_data):
    x, labels = small_data
    layers = [dense("fc", 4)]
    params = init_params(layers, x.shape[1:], seed=5)
    assert grad_check(layers, params, x, labels, eps=1e-4) < 1e-6


def test_gradcheck_two_layer_cnn_with_bn(small_data):
    x, labels = small_data
    layers = build_model("toy_cnn_pool", 4)
    params = init_params(layers, x.shape[1:], seed=6)
    assert grad_check(layers, params, x, labels, eps=1e-3) < 1e-3


def test_gradcheck_distributed_group_bn(small_data):
    x, labels = small_data
    layers = build_model("toy_cnn_pool", 4)
    params = init_params(layers, x.shape[1:], seed=8)
    err = grad_check(layers, params, x, labels, eps=1e-3,
                     num_replicas=4, group_size=2)
    assert err < 1e-3


def test_gradcheck_depthwise_standin(small_data):
    x, labels = small_data
    layers = build_model("b5", 4)
    params = init_params(layers, x.shape[1:], seed=4)
    assert grad_check(layers, params, x, labels, eps=1e-3) < 1e-3


def test_gradcheck_zero_eps_rejected(small_data):
    x, labels = small_data
    layers = build_model("toy_cnn_pool", 4)
    params = init_params(layers, x.shape[1:], seed=6)
    with pytest.raises(ValueError, match="eps"):
        grad_check(layers, params, x, labels, eps=0.0)


def test_eval_forward_uses_moving_stats(small_data):
    x, _ = small_data
    layers = build_model("toy_cnn_pool", 4)
    params = init_params(layers, x.shape[1:], seed=9)
    moving = init_bn_moving(layers, x.shape[1:])
    logits_a = eval_forward(layers, params, moving, x[None])
    assert logits_a.shape == (1, len(x), 4)
    moving["bn1"] = (moving["bn1"][0] + 1.0, moving["bn1"][1])
    logits_b = eval_forward(layers, params, moving, x[None])
    assert logits_a.tobytes() != logits_b.tobytes()


def test_eval_forward_per_sample_independent_of_batch(small_data):
    x, _ = small_data
    layers = build_model("toy_cnn_pool", 4)
    params = init_params(layers, x.shape[1:], seed=10)
    moving = init_bn_moving(layers, x.shape[1:])
    whole = eval_forward(layers, params, moving, x[None])
    halves = eval_forward(layers, params, moving, x.reshape(2, 4, *x.shape[1:]))
    np.testing.assert_allclose(whole.reshape(halves.shape), halves, rtol=1e-6)


@pytest.mark.parametrize("policy", [FP32_ONLY, MIXED_BF16_CONV], ids=lambda p: p.mode)
@pytest.mark.parametrize("name", sorted(model.MODELS))
def test_eval_forward_from_the_prepared_operand_gives_the_same_logits(small_data, name,
                                                                       policy):
    x, _ = small_data
    layers = build_model(name, 4)
    params = init_params(layers, x.shape[1:], seed=11)
    moving = init_bn_moving(layers, x.shape[1:])
    prepared, patches = prepare_first_conv(layers, params, x, policy)
    assert prepared[0].kind == "conv2d_gemm" and prepared[1:] == layers[1:]
    ho, wo, _ = infer_shapes(layers, x.shape[1:])[0]
    assert patches.shape == (len(x), ho, wo, math.prod(layers[0].kernel_hw) * x.shape[-1])
    # bf16 patches are kept as their high 16 bits, half the float32 bytes.
    assert patches.dtype == (np.uint16 if policy.rounds_conv else np.float32)
    patches = as_float32(patches)
    plain = eval_forward(layers, params, moving, x.reshape(2, 4, *x.shape[1:]), policy)
    from_patches = eval_forward(prepared, params, moving,
                                patches.reshape(2, 4, *patches.shape[1:]), policy)
    assert from_patches.tobytes() == plain.tobytes()
    # The model itself rejects the patches: they have kh*kw times its channels.
    with pytest.raises(ValueError, match="channel mismatch"):
        eval_forward(layers, params, moving, patches[None], policy)


def test_a_nan_pixel_reads_as_nan_from_bf16_patches(small_data):
    # NaNs whose payload lies in the low 16 bits alone: to_bf16 keeps them,
    # and their high 16 bits alone would read as infinities.
    x = small_data[0].copy()
    x.view(np.uint32)[0, 3, 3, 0] = 0x7F800001
    x.view(np.uint32)[5, 1, 2, 0] = 0xFF800001
    layers = build_model("b5", 4)
    params = init_params(layers, x.shape[1:], seed=4)
    moving = init_bn_moving(layers, x.shape[1:])
    fp32 = prepare_first_conv(layers, params, x, FP32_ONLY)[1]
    prepared, bits = prepare_first_conv(layers, params, x, MIXED_BF16_CONV)
    patches, want = as_float32(bits), to_bf16(fp32)
    nan = np.isnan(want)
    assert nan.any() and (np.isnan(patches) == nan).all()
    assert (np.signbit(patches) == np.signbit(want)).all()
    assert patches[~nan].tobytes() == want[~nan].tobytes()
    with np.errstate(invalid="ignore"):  # NaN in the GEMMs
        plain = eval_forward(layers, params, moving, x[None], MIXED_BF16_CONV)
        from_patches = eval_forward(prepared, params, moving, patches[None],
                                    MIXED_BF16_CONV)
    assert np.isnan(plain[0, [0, 5]]).all()
    assert (np.isnan(from_patches) == np.isnan(plain)).all()
    assert from_patches[~np.isnan(plain)].tobytes() == plain[~np.isnan(plain)].tobytes()


@pytest.mark.parametrize("name", sorted(model.MODELS))
def test_a_prepared_model_inits_the_models_params(name):
    layers = build_model(name, 4)
    prepared, patches = prepare_first_conv(
        layers, init_params(layers, (8, 8, 1), seed=0), np.zeros((1, 8, 8, 1), np.float32))
    assert not patches.any()  # a zero image has zero patches
    want = init_params(layers, (8, 8, 1), seed=13)
    got = init_params(prepared, patches.shape[1:], seed=13)
    assert [(p.name, p.tag, p.value.tobytes()) for p in got] == [
        (p.name, p.tag, p.value.tobytes()) for p in want]
    assert infer_shapes(prepared, patches.shape[1:]) == infer_shapes(layers, (8, 8, 1))


def test_training_a_conv2d_gemm_layer_raises(small_data):
    x, labels = small_data
    layers = build_model("toy_cnn", 4)
    params = init_params(layers, x.shape[1:], seed=14)
    prepared, patches = prepare_first_conv(layers, params, x)
    step = (prepared, params, patches.reshape(2, 4, *patches.shape[1:]),
            labels.reshape(2, 4), assign_groups_1d(2, 1))
    assert np.isfinite(distributed_forward_backward(*step, forward_only=True).mean_loss)
    with pytest.raises(ValueError, match="conv1: a conv2d_gemm layer is for evaluation"):
        distributed_forward_backward(*step)


def test_only_a_conv2d_first_layer_has_a_prepared_operand(small_data):
    x, _ = small_data
    layers = [dense("fc", 4)]
    params = init_params(layers, x.shape[1:], seed=12)
    with pytest.raises(ValueError, match="fc: only a conv2d first layer can be prepared"):
        prepare_first_conv(layers, params, x)


def test_model_registry():
    assert sorted(model.MODELS) == ["b2", "b5", "toy_cnn", "toy_cnn_pool"]
    with pytest.raises(ValueError, match="unknown model"):
        build_model("resnet", 10)
