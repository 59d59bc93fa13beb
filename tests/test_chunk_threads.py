"""Chunks of the step and the eval pass walked on helper threads.

model.map_chunks runs a pass's independent chunks on the calling thread and
its helpers. Every test here forces two workers, so it runs the threaded path
on a one-core host too.
"""

import math
import sys
import threading
import warnings

import numpy as np
import pytest

from minipod import model, trainer
from minipod.data import gen_synthetic
from minipod.distbn import assign_groups_1d, assign_groups_2d
from minipod.model import build_model, distributed_forward_backward, init_params, map_chunks
from minipod.precision import FP32_ONLY, MIXED_BF16_CONV
from minipod.trainer import EvalOperand, NonFiniteLossError, TrainConfig, distributed_eval

WAIT_S = 30  # a bound on every wait, so a broken pool fails instead of hanging


@pytest.fixture
def workers(monkeypatch):
    """Sets the worker count; 2 unless a test sets it again."""
    def use(n):
        monkeypatch.setattr(model, "worker_count", lambda: n)
    use(2)
    return use


def test_map_chunks_keeps_item_order(workers):
    items = list(range(50))
    assert map_chunks(lambda i: i * i, items) == [i * i for i in items]
    assert map_chunks(lambda i: i, []) == []


def test_map_chunks_runs_items_on_the_caller_and_a_helper_at_once(workers):
    # Each item waits until both threads hold one, so one thread alone fails.
    both = threading.Barrier(2, timeout=WAIT_S)

    def where(item):
        both.wait()
        return item, threading.get_ident()

    (first, a), (second, b) = map_chunks(where, [0, 1])
    assert (first, second) == (0, 1)
    assert a != b and threading.get_ident() in (a, b)


def test_map_chunks_starts_no_thread_for_one_item_or_one_worker(workers):
    caller = threading.get_ident()
    assert map_chunks(lambda i: threading.get_ident(), [0]) == [caller]
    workers(1)
    assert map_chunks(lambda i: threading.get_ident(), [0, 1, 2]) == [caller] * 3


def test_map_chunks_raises_a_helpers_exception_in_the_caller(workers):
    both = threading.Barrier(2, timeout=WAIT_S)
    caller = threading.get_ident()

    def fail_on_helper(item):
        both.wait()
        if threading.get_ident() != caller:
            raise ValueError(f"chunk {item} failed on a helper thread")
        return item

    with pytest.raises(ValueError, match=r"chunk [01] failed on a helper thread"):
        map_chunks(fail_on_helper, [0, 1])


def _b5_step_inputs(seed):
    ds = gen_synthetic(10, 32, 8, 8, 1, seed=seed)
    layers = build_model("b5", 10)
    return (layers, init_params(layers, (8, 8, 1), seed=seed),
            ds.images.reshape(16, 2, 8, 8, 1), ds.labels.reshape(16, 2))


def _step_bytes(res):
    out = [np.array(res.losses).tobytes()]
    out += [g.tobytes() for g in res.grads or []]
    out += [a.tobytes() for name in sorted(res.bn_saved) for a in res.bn_saved[name]]
    return out


# 1D groups of 2 and the 2x2 tiles of a 4x4 grid, whose groups {0, 1, 4, 5},
# {2, 3, 6, 7}, ... are no contiguous range of replicas.
GROUPS = {"1d": assign_groups_1d(16, 2), "tiles": assign_groups_2d(16, (2, 2))}


@pytest.mark.parametrize("forward_only", [False, True], ids=["full", "forward_only"])
@pytest.mark.parametrize("grouping", sorted(GROUPS))
@pytest.mark.parametrize("policy", [FP32_ONLY, MIXED_BF16_CONV], ids=lambda p: p.mode)
def test_step_gives_the_same_bytes_on_one_and_two_workers(monkeypatch, workers, policy,
                                                          grouping, forward_only):
    layers, params, x, labels = _b5_step_inputs(13)
    monkeypatch.setattr(model, "CHUNK_BYTES", 1)  # one group per chunk

    def step():
        return _step_bytes(distributed_forward_backward(
            layers, params, x, labels, GROUPS[grouping], policy=policy,
            forward_only=forward_only))

    two = step()
    workers(1)
    assert step() == two


@pytest.mark.parametrize("policy", [FP32_ONLY, MIXED_BF16_CONV], ids=lambda p: p.mode)
def test_eval_pass_gives_the_same_counts_on_one_and_two_workers(monkeypatch, workers,
                                                                policy):
    # 50 examples in rows of 4 on 4 replicas: 13 rows in 4 rounds, the last
    # row finished with dummies; a budget of one byte walks each replica alone.
    layers, params, _, _ = _b5_step_inputs(17)
    moving = model.init_bn_moving(layers, (8, 8, 1))
    ds = gen_synthetic(10, 50, 8, 8, 1, seed=18)
    monkeypatch.setattr(model, "CHUNK_BYTES", 1)
    counts, reduce = [], trainer.all_reduce

    def recorded(per_replica, op):
        counts.append(per_replica.tobytes())
        return reduce(per_replica, op)

    monkeypatch.setattr(trainer, "all_reduce", recorded)
    two = distributed_eval(layers, params, moving, ds, 4, 4, policy)
    workers(1)
    assert distributed_eval(layers, params, moving, ds, 4, 4, policy) == two
    assert counts[0] == counts[1]


@pytest.mark.parametrize("policy", [FP32_ONLY, MIXED_BF16_CONV], ids=lambda p: p.mode)
def test_kept_eval_operand_is_filled_the_same_on_one_and_two_workers(monkeypatch, workers,
                                                                     policy):
    # As above, one replica per slice: the helper reads some of the 13 rows.
    layers, params, _, _ = _b5_step_inputs(19)
    moving = model.init_bn_moving(layers, (8, 8, 1))
    ds = gen_synthetic(10, 50, 8, 8, 1, seed=20)
    monkeypatch.setattr(model, "CHUNK_BYTES", 1)
    kept = [EvalOperand(ds, layers, policy, 4) for _ in range(2)]
    top1 = [distributed_eval(layers, params, moving, kept[0], 4, 4, policy)]
    top1.append(distributed_eval(layers, params, moving, kept[0], 4, 4, policy))
    workers(1)
    top1.append(distributed_eval(layers, params, moving, kept[1], 4, 4, policy))
    assert top1 == [distributed_eval(layers, params, moving, ds, 4, 4, policy)] * 3
    assert kept[0].operand.tobytes() == kept[1].operand.tobytes()


def test_engine_called_from_several_threads_matches_sequential_calls(monkeypatch,
                                                                     workers):
    # More callers than cores, each with its own inputs, and a short switch
    # interval: scratch shared between calls in nn, distbn or precision would
    # mix one caller's values into another's.
    monkeypatch.setattr(model, "CHUNK_BYTES", 1)
    inputs = [_b5_step_inputs(seed) for seed in (21, 22, 23, 24)]

    def step(i):
        layers, params, x, labels = inputs[i]
        return _step_bytes(distributed_forward_backward(
            layers, params, x, labels, GROUPS["tiles"], policy=MIXED_BF16_CONV))

    expected = [step(i) for i in range(len(inputs))]
    got, errors = {}, []

    def call(i):
        try:
            got[i] = [step(i) for _ in range(2)]
        except Exception as e:  # reported below, in the test's thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert got == {i: [e, e] for i, e in enumerate(expected)}


def test_diverging_step_on_helpers_reaches_the_finite_loss_check(monkeypatch, workers):
    # The LARS trust ratio multiplies weight norms each step until the forward
    # pass overflows. The helpers run inside train_step's np.errstate, so
    # they raise no RuntimeWarning (an error here) and run reports the loss.
    monkeypatch.setattr(model, "CHUNK_BYTES", 1)  # 4 chunks of one group
    cfg = TrainConfig(model="toy_cnn", dataset="synthetic", num_replicas=8,
                      global_batch=128, bn_group_size=2, optimizer="lars",
                      lr_per_256=1e9, lars_eta=1.0, warmup_epochs=0.0,
                      total_epochs=1.0, eval_every_epochs=1.0, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteLossError) as exc_info:
            trainer.run(cfg)
    assert not math.isfinite(exc_info.value.records[-1].train_loss)
