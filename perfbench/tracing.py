"""Spans recorded around minipod's layer functions, from outside the package.

A ``Recorder`` replaces a function at the module attribute its callers look
up (``trainer.train_step``, ``distbn.all_reduce``, ``nn.swish_forward``, ...)
with a wrapper that records one span per call: name, parent span, start, end
and an optional work count computed from the call's shapes. Spans stay in
memory until the benchmark writes them out. The wrappers pass arguments and
results through untouched, so a traced run computes the same bytes as an
untraced one.

``BOUNDARY`` wraps only the train step and the eval pass; the untraced runs
use it to time steps, passes and set-up. ``LAYERS`` wraps every layer the
per-layer metrics name.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

import numpy as np

from minipod import data, distbn, model, nn, precision, trainer

STEP = "trainer.train_step"
EVAL = "trainer.distributed_eval"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _conv_flops(args, kwargs, out):
    # 2 flops per multiply-add: output elements x kh x kw x Cin.
    k = _arg(args, kwargs, 1, "kernel")
    return (2.0 * out.size * k.shape[0] * k.shape[1] * k.shape[2],)


def _conv_backward_flops(args, kwargs, out):
    # Input gradient and kernel gradient each cost one forward pass.
    k = _arg(args, kwargs, 1, "kernel")
    g = _arg(args, kwargs, 2, "grad_out")
    return (4.0 * g.size * k.shape[0] * k.shape[1] * k.shape[2],)


def _input_elements(args, kwargs, out):
    return (float(np.size(_arg(args, kwargs, 0, "x"))),)


def _reduce_bytes(args, kwargs, out):
    ins = _arg(args, kwargs, 0, "per_replica")
    return (float(sum(t.nbytes for t in ins)), float(sum(t.nbytes for t in out)))


def _shard_bytes(args, kwargs, out):
    return (float(sum(x.nbytes + y.nbytes for step in out for x, y in step)),)


def _eval_examples(args, kwargs, out):
    """(real examples, padded dummies) of one distributed_eval pass."""
    n = len(_arg(args, kwargs, 3, "dataset"))
    per_round = _arg(args, kwargs, 4, "num_replicas") * _arg(args, kwargs, 5, "eval_batch")
    padded = -(-n // per_round) * per_round
    return (float(n), float(padded - n))


def _all_reduce_scope(parent: str) -> str:
    # trainer reduces gradients inside a step and hit counts inside an eval pass.
    return "collectives.all_reduce.grad" if parent == STEP else "collectives.all_reduce.eval"


@dataclass(frozen=True)
class Site:
    """One function, patched at ``module.attr``, recorded as ``name``."""

    module: object
    attr: str
    name: str | Callable[[str], str]
    work: Callable | None = None


BOUNDARY = (
    Site(trainer, "train_step", STEP),
    Site(trainer, "distributed_eval", EVAL, _eval_examples),
)

LAYERS = BOUNDARY + (
    Site(trainer, "shard_train_data", "trainer.shard_train_data", _shard_bytes),
    Site(trainer, "build_datasets", "trainer.build_datasets"),
    Site(trainer, "init_train_state", "trainer.init_train_state"),
    Site(trainer, "distributed_forward_backward", "model.distributed_forward_backward"),
    Site(trainer, "eval_forward", "model.eval_forward"),
    Site(trainer, "rmsprop_step", "optim.rmsprop_step"),
    Site(trainer, "lars_step", "optim.lars_step"),
    Site(trainer, "all_reduce", _all_reduce_scope, _reduce_bytes),
    Site(trainer, "gen_synthetic", "data.gen_synthetic"),
    Site(trainer, "load_idx", "data.load_idx"),
    Site(trainer, "stream", "rng.stream"),
    Site(model, "stream", "rng.stream"),
    Site(data, "stream", "rng.stream"),
    Site(distbn, "group_bn_forward", "distbn.group_bn_forward"),
    Site(distbn, "group_bn_backward", "distbn.group_bn_backward"),
    Site(distbn, "update_moving_stats", "distbn.update_moving_stats"),
    Site(distbn, "bn_inference", "distbn.bn_inference"),
    Site(distbn, "all_reduce", "collectives.all_reduce.bn", _reduce_bytes),
    Site(precision, "to_bf16", "precision.to_bf16", _input_elements),
    Site(nn, "conv2d_forward", "nn.conv2d_forward", _conv_flops),
    Site(nn, "conv2d_backward", "nn.conv2d_backward", _conv_backward_flops),
    Site(nn, "depthwise_conv2d_forward", "nn.depthwise_conv2d_forward", _input_elements),
    Site(nn, "depthwise_conv2d_backward", "nn.depthwise_conv2d_backward",
         _input_elements),
    Site(nn, "swish_forward", "nn.swish_forward"),
    Site(nn, "swish_backward", "nn.swish_backward"),
    Site(nn, "dense_forward", "nn.dense_forward"),
    Site(nn, "dense_backward", "nn.dense_backward"),
    Site(nn, "softmax_xent", "nn.softmax_xent"),
    Site(nn, "global_avg_pool_forward", "nn.global_avg_pool_forward"),
    Site(nn, "global_avg_pool_backward", "nn.global_avg_pool_backward"),
)


class Recorder:
    """In-memory spans of one run. Each span is
    ``[name, parent index or -1, start_ns, end_ns, work tuple]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.last_eval = None  # (args, kwargs, result) of the latest eval pass

    def _wrap(self, fn, site: Site):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            name = site.name
            if callable(name):
                name = name(spans[parent][0] if parent >= 0 else "")
            span = [name, parent, 0, 0, ()]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if site.work is not None:
                span[4] = site.work(args, kwargs, out)
            if name == EVAL:
                self.last_eval = (args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def patched(self, sites):
        """Install wrappers at every site; restore the originals on exit."""
        saved = []
        try:
            for site in sites:
                fn = getattr(site.module, site.attr)
                saved.append((site.module, site.attr, fn))
                setattr(site.module, site.attr, self._wrap(fn, site))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def durations_s(self, name: str) -> list[float]:
        return [(s[3] - s[2]) / 1e9 for s in self.spans if s[0] == name]

    def first_start_ns(self, names) -> int | None:
        return next((s[2] for s in self.spans if s[0] in names), None)


def groups(spans) -> list[tuple[str, int]]:
    """(phase, group id) of each span. The group is the enclosing train step
    ('step') or eval pass ('eval'), itself included, identified by its span
    index; spans outside both are set-up ('run', -1). Parents precede
    children."""
    out: list[tuple[str, int]] = []
    for i, (name, parent, *_) in enumerate(spans):
        if name == STEP:
            out.append(("step", i))
        elif name == EVAL:
            out.append(("eval", i))
        else:
            out.append(out[parent] if parent >= 0 else ("run", -1))
    return out


@dataclass
class Totals:
    ns: int = 0
    self_ns: int = 0
    calls: int = 0
    work: tuple = ()


def aggregate(runs) -> dict[tuple[str, str], Totals]:
    """Inclusive time, self time, calls and summed work per (phase, name),
    over the span lists of several runs.

    Self time is a span's duration minus its direct children's durations;
    the program is single-threaded, so children never overlap.
    """
    out: dict[tuple[str, str], Totals] = {}
    for spans in runs:
        child_ns = [0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, ((phase, _), (name, _, start, end, work)) in enumerate(
                zip(groups(spans), spans)):
            t = out.setdefault((phase, name), Totals())
            t.ns += end - start
            t.self_ns += end - start - child_ns[i]
            t.calls += 1
            t.work = tuple(map(sum, zip(t.work, work))) if t.work else work
    return out
