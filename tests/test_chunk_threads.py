"""Chunks of the step and the eval pass walked on helper threads.

model.map_chunks runs a pass's independent chunks on its helpers and on the
calling thread. Every test here forces two workers, so it runs the threaded
path on a one-core host too.
"""

import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from minipod import model, trainer
from minipod.data import Dataset, gen_synthetic
from minipod.distbn import assign_groups_1d, assign_groups_2d
from minipod.model import build_model, distributed_forward_backward, init_params, map_chunks
from minipod.precision import FP32_ONLY, MIXED_BF16_CONV
from minipod.trainer import NonFiniteLossError, TrainConfig, distributed_eval

SRC = Path(__file__).resolve().parents[1] / "src"
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


def test_map_chunks_runs_every_other_item_after_a_helpers_exception(workers):
    # Every other item waits until a thread has taken item 0, the first at
    # the front, so the helper takes it while the caller waits on item 7.
    taken, ran = threading.Event(), []

    def item(i):
        if i == 0:
            taken.set()
            raise ValueError(f"chunk 0 failed on thread {threading.get_ident()}")
        assert taken.wait(WAIT_S)
        ran.append(i)

    with pytest.raises(ValueError, match="chunk 0 failed") as exc_info:
        map_chunks(item, list(range(8)))
    assert str(threading.get_ident()) not in str(exc_info.value)
    assert sorted(ran) == list(range(1, 8))  # all finished before the raise


def test_map_chunks_submits_at_most_one_task_per_helper(monkeypatch, workers):
    submitted, submit = [], ThreadPoolExecutor.submit

    def counted(pool, *args, **kwargs):
        submitted.append(pool)
        return submit(pool, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
    assert map_chunks(lambda i: i, list(range(8))) == list(range(8))
    assert len(submitted) <= 1  # W - 1 at W = 2


def test_map_chunks_after_a_wider_call_runs_on_at_most_its_own_threads(workers):
    # A three-worker call whose items wait for each other leaves two pool
    # threads; a two-worker call after it must still use one helper only.
    three = threading.Barrier(3, timeout=WAIT_S)

    def together(i):
        three.wait()
        return threading.get_ident()

    def where(i):
        time.sleep(0.01)  # long enough for every idle pool thread to wake
        return threading.get_ident()

    workers(3)
    assert len(set(map_chunks(together, [0, 1, 2]))) == 3
    workers(2)
    assert len(set(map_chunks(where, list(range(8))))) <= 2


def test_map_chunks_leaves_unstarted_items_unrun_when_the_caller_raises(workers):
    # The helper holds item 0 while the caller raises on item 5, the first it
    # walks; items 1-4 were started by no thread and never run.
    caller = threading.get_ident()
    started, raised, ran = threading.Event(), threading.Event(), []

    def item(i):
        if threading.get_ident() == caller:
            assert started.wait(WAIT_S)
            raised.set()
            raise ValueError(f"chunk {i} failed on the calling thread")
        started.set()
        assert raised.wait(WAIT_S)
        time.sleep(0.5)  # still running as the caller's exception unwinds
        ran.append(i)

    with pytest.raises(ValueError, match="chunk 5 failed on the calling thread"):
        map_chunks(item, list(range(6)))
    assert ran == [0]  # finished before map_chunks raised


# Two workers; four outer items each map three inner items.
NESTED = """
from minipod import model
model.worker_count = lambda: 2
print(model.map_chunks(lambda i: model.map_chunks(lambda j: (i, j), [0, 1, 2]), [0, 1, 2, 3]))
"""


def test_map_chunks_inside_an_item_returns_the_nested_results():
    # An outer item on the one helper queues its inner items behind itself,
    # so its own thread must run them. The probe has a process of its own,
    # so a deadlock ends with it.
    proc = subprocess.run([sys.executable, "-W", "error", "-c", NESTED],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=WAIT_S)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[[(i, j) for j in range(3)] for i in range(4)]}\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helpers(monkeypatch, workers):
    # The parent's pass starts the pool's helper; a child inherits the pool
    # but not the thread, and its pass must not wait on it.
    layers, params, _, _ = _b5_step_inputs(25)
    moving = model.init_bn_moving(layers, (8, 8, 1))
    ds = gen_synthetic(10, 50, 8, 8, 1, seed=26)
    monkeypatch.setattr(model, "CHUNK_BYTES", 1)  # one replica per chunk
    top1 = distributed_eval(layers, params, moving, ds, 4, 4)
    with warnings.catch_warnings():
        # Python 3.12+ warns that a child forked from a threaded process may
        # deadlock; that is the case under test.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child exits 0 only with the parent's top-1
        code = 1
        try:
            code = 0 if distributed_eval(layers, params, moving, ds, 4, 4) == top1 else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + WAIT_S
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail(f"the forked child's pass did not end within {WAIT_S} s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


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
    # 50 examples in rows of 4 on 4 replicas: 13 rows, replica 0 holding 4,
    # the last row finished with dummies; a budget of one byte walks each row
    # alone.
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
    # As above, one replica per slice: the helper reads some of the 13 rows
    # of the prepared set, built one example per block.
    layers, params, _, _ = _b5_step_inputs(19)
    moving = model.init_bn_moving(layers, (8, 8, 1))
    ds = gen_synthetic(10, 50, 8, 8, 1, seed=20)
    monkeypatch.setattr(model, "CHUNK_BYTES", 1)
    built, top1 = [], []
    for _ in range(2):
        prepared, patches = model.prepare_first_conv(layers, params, ds.images, policy)
        kept = Dataset(patches, ds.labels, ds.num_classes)
        built.append(patches.tobytes())
        top1 += [distributed_eval(prepared, params, moving, kept, 4, 4, policy)
                 for _ in range(2)]
        workers(1)
    assert top1 == [distributed_eval(layers, params, moving, ds, 4, 4, policy)] * 4
    assert built[0] == built[1]


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
