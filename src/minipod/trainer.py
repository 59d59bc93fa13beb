"""Synchronized data-parallel training and evaluation loop.

TrainConfig is where every config key is defined and checked: constructing one
builds the BN replica groups, optimizer config and precision policy that
training reads, so a bad key fails before any data is read. The
hyperparameters the paper holds fixed are no keys: the optimizer constants
are the defaults of the optim configs, the decay is the optimizer's
(optim.DECAYS) with optim's decay constants, and BN's momentum and
epsilon are distbn.DEFAULT_MOMENTUM and DEFAULT_EPS. The run loop goes
over whole epochs and evaluates every eval_every_epochs of them and after the
last step. An epoch is a shuffled [steps, N, b] index array; each step's
examples are gathered from the one copy of the train set as the loop reads it.

Every step: forward/backward of all replicas stacked on one leading axis
(group BN, optional bf16 convs), all-reduce mean of the per-replica
gradients, then one optimizer step. Synchronous replicas apply the same
update to the same reduced gradient, so the state holds a single copy of the
parameters, optimizer slots and BN moving statistics.
Evaluation cuts the eval set into rows of eval_batch examples, gives row k to
replica k mod num_replicas, and all-reduces integer counts of hits among the
real examples, so the result is exact and independent of the replica count.
The rows are walked in the engine's chunks of consecutive rows
(model.replica_chunks on groups of one row), each one forward call on a
slice of the set, never a gather, on the engine's worker threads
(model.map_chunks); only the last row is finished with dummies. The eval
batch is the per-core batch, capped at one replica's share of the eval set
(TrainConfig.eval_batch_for). A run's first evaluation prepares its model
and eval set (model.prepare_first_conv) and drops the images, so every pass
reads the eval images' first-layer patches: 2.25x the images for the 3x3
stride-2 first conv of toy_cnn, b2 and b5, 4.5 MiB at 2,048 examples and
110 MiB at 50,000 (9x for toy_cnn_pool's stride 1). The train set's
patches are not kept: they would cost 2.25x the train set, and building them
before the first step would lengthen the set-up.

Records carry modeled timing from the cost model; elapsed_s is cumulative
*modeled* seconds so that metric streams are bitwise reproducible (wall clock
is not, and desk-scale wall clock says nothing about pod-scale behavior).
"""

from __future__ import annotations

import dataclasses
import math
import zipfile
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import distbn, perfmodel
from .collectives import all_reduce
from .data import Dataset, gen_synthetic, load_idx
from .model import (
    LayerSpec,
    build_model,
    distributed_forward_backward,
    eval_forward,
    init_bn_moving,
    init_params,
    map_chunks,
    prepare_first_conv,
    replica_chunks,
)
from .nn import DTYPE, Parameter
from .optim import (
    DECAYS,
    LarsConfig,
    OptimizerState,
    RmsPropConfig,
    ScheduleSpec,
    lars_step,
    lr_at,
    rmsprop_step,
)
from .precision import FP32_ONLY, PrecisionPolicy
from .rng import stream

SYNTHETIC_DEFAULTS = dict(num_classes=10, n=8192, height=16, width=16, channels=1)
SYNTHETIC_EVAL_N = 2048
# 64x the paper's largest pod (1,024 replicas); far beyond it, the replica
# arrays of the BN groups alone would not fit in memory.
MAX_REPLICAS = 65536


class NonFiniteLossError(RuntimeError):
    def __init__(self, message, records=None):
        super().__init__(message)
        self.records = records or []


@dataclass
class TrainConfig:
    """Everything one experiment needs; field names double as config keys.

    The learning-rate decay is no key: it follows the optimizer
    (optim.DECAYS), exponential for RMSProp and polynomial for LARS.
    """

    model: str = "toy_cnn"
    dataset: str = "synthetic"
    num_replicas: int = 1
    global_batch: int = 64
    bn_group_size: int = 1
    bn_grouping: str = "1d"
    tile_rows: int | None = None
    tile_cols: int | None = None
    optimizer: str = "rmsprop"
    lr_per_256: float = 0.016
    warmup_epochs: float = 0.0
    lars_eta: float = 0.001
    precision: str = "fp32"
    total_epochs: float = 350.0
    eval_every_epochs: float = 1.0
    seed: int = 0

    def __post_init__(self):
        """Check every key, and build what training reads from them once.

        The BN groups, optimizer config, precision policy and schedule
        check their own keys as they are built, so a bad value is rejected
        here, before any data is read. They are plain attributes, not fields,
        so the config keys, equality and serialization stay the fields' own.
        """
        if not 1 <= self.num_replicas <= MAX_REPLICAS:
            raise ValueError(
                f"num_replicas must lie in [1, {MAX_REPLICAS}], got {self.num_replicas}")
        if self.global_batch < 1 or self.global_batch % self.num_replicas != 0:
            raise ValueError(
                f"global_batch {self.global_batch} must be a positive multiple "
                f"of num_replicas {self.num_replicas}"
            )
        if self.bn_grouping == "1d":
            tiled = [k for k in ("tile_rows", "tile_cols") if getattr(self, k) is not None]
            if tiled:
                raise ValueError(
                    f"{' and '.join(tiled)} given, but only bn_grouping = 2d "
                    "reads a tile; 1d groups are blocks of bn_group_size")
            self.bn_groups = distbn.assign_groups_1d(self.num_replicas, self.bn_group_size)
        elif self.bn_grouping == "2d":
            if self.tile_rows is None or self.tile_cols is None:
                raise ValueError("2d grouping requires tile_rows and tile_cols")
            # Tiles of the most-square replica grid, checked before the size.
            self.bn_groups = distbn.assign_groups_2d(
                self.num_replicas, (self.tile_rows, self.tile_cols))
            tile_area = self.tile_rows * self.tile_cols
            if self.bn_group_size not in (1, tile_area):
                raise ValueError(
                    f"bn_group_size {self.bn_group_size} contradicts the "
                    f"{self.tile_rows}x{self.tile_cols} tile ({tile_area} replicas)"
                )
        else:
            raise ValueError(f"bn_grouping must be 1d or 2d, got {self.bn_grouping!r}")
        # Evaluation runs only at epoch ends, so a fractional period cannot be met.
        every = self.eval_every_epochs
        if not (every >= 1 and float(every).is_integer()):
            raise ValueError(
                f"eval_every_epochs must be a whole number >= 1, got {every}")
        if not (math.isfinite(self.total_epochs) and self.total_epochs >= 0):
            raise ValueError(
                f"total_epochs must be a finite number >= 0, got {self.total_epochs}")
        if not math.isfinite(self.warmup_epochs):
            raise ValueError(f"warmup_epochs must be finite, got {self.warmup_epochs}")
        # LarsConfig is built under RMSProp too, so lars_eta is always checked.
        optimizers = {"rmsprop": RmsPropConfig(), "lars": LarsConfig(eta=self.lars_eta)}
        if self.optimizer not in optimizers:
            raise ValueError(f"optimizer must be rmsprop or lars, got {self.optimizer!r}")
        self.optimizer_config = optimizers[self.optimizer]
        self.policy = PrecisionPolicy(self.precision)
        # The run builds the schedule again once it knows steps_per_epoch.
        self.schedule(steps_per_epoch=1)

    @property
    def per_core_batch(self) -> int:
        return self.global_batch // self.num_replicas

    def eval_batch_for(self, n_eval: int) -> int:
        """Per-replica eval batch for an eval set of n_eval examples: the
        per-core batch, or one replica's share of the set if that is smaller.
        Top-1 is an exact count at any eval batch; a larger one only adds
        padding."""
        return min(self.per_core_batch, math.ceil(n_eval / self.num_replicas))

    def schedule(self, steps_per_epoch: int) -> ScheduleSpec:
        return ScheduleSpec(
            lr_per_256=self.lr_per_256,
            global_batch=self.global_batch,
            # A finite warmup longer than the run covers all of it (the
            # total_epochs = 0 case needs this).
            warmup_epochs=min(self.warmup_epochs, self.total_epochs),
            steps_per_epoch=steps_per_epoch,
            total_epochs=self.total_epochs,
            decay=DECAYS[self.optimizer],
        )


@dataclass
class MetricsRecord:
    step: int
    epoch: float
    lr: float
    train_loss: float
    eval_top1: float | None
    modeled_step_ms: float
    allreduce_frac: float
    elapsed_s: float


METRICS_HEADER = "step,epoch,lr,train_loss,eval_top1,modeled_step_ms,allreduce_frac,elapsed_s"


def format_metrics_csv(records: list[MetricsRecord]) -> str:
    lines = [METRICS_HEADER]
    for r in records:
        eval_field = "" if r.eval_top1 is None else repr(float(r.eval_top1))
        lines.append(
            f"{r.step},{float(r.epoch)!r},{float(r.lr)!r},{float(r.train_loss)!r},"
            f"{eval_field},{float(r.modeled_step_ms)!r},"
            f"{float(r.allreduce_frac)!r},{float(r.elapsed_s)!r}"
        )
    return "\n".join(lines) + "\n"


def write_metrics_csv(records: list[MetricsRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(format_metrics_csv(records))


# ---------------------------------------------------------------------------
# sharding


def shard_train_data(
    dataset: Dataset, num_replicas: int, per_core_batch: int, seed: int, epoch: int = 0
) -> EpochSteps:
    """Deterministic per-epoch shard: shuffle, chunk into global batches,
    split each chunk contiguously across replicas.

    The step-t global batch is perm[t*B:(t+1)*B] regardless of how B factors
    into replicas, which is what makes runs with different replica counts
    comparable. Trailing examples that do not fill a global batch are dropped.
    The epoch's steps gather their examples when read (EpochSteps), so an
    epoch holds no second copy of the set.
    """
    n = len(dataset)
    batch = num_replicas * per_core_batch
    steps = n // batch
    if steps < 1:
        raise ValueError(
            f"dataset of {n} examples is smaller than one global batch ({batch})"
        )
    perm = stream(seed, "shuffle", epoch).permutation(n)
    idx = perm[: steps * batch].reshape(steps, num_replicas, per_core_batch)
    return EpochSteps(dataset, idx)


class EpochSteps(Sequence):
    """One epoch's steps over the `[steps, N, b]` example indices `idx`.

    Reading step t gathers it: a list of one (images, labels) pair per
    replica, views of one fancy-indexed array. A slice is the same kind of
    sequence, and the steps can be read any number of times.
    """

    def __init__(self, dataset: Dataset, idx: np.ndarray):
        self.dataset = dataset
        self.idx = idx

    def __len__(self) -> int:
        return len(self.idx)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return EpochSteps(self.dataset, self.idx[t])
        idx = self.idx[t]
        return list(zip(self.dataset.images[idx], self.dataset.labels[idx]))


# ---------------------------------------------------------------------------
# training state


@dataclass
class TrainState:
    layers: list[LayerSpec]
    params: list[Parameter]
    bn_moving: dict
    opt_state: OptimizerState
    config: TrainConfig

    def param_count(self) -> int:
        return int(sum(p.value.size for p in self.params))


def init_train_state(
    config: TrainConfig, input_shape: tuple[int, ...], num_classes: int
) -> TrainState:
    layers = build_model(config.model, num_classes)
    params = init_params(layers, input_shape, config.seed)
    return TrainState(
        layers, params, init_bn_moving(layers, input_shape),
        OptimizerState.for_params(config.optimizer, params), config)


def train_step(state: TrainState, batches, lr: float) -> float:
    """One synchronized step over per-replica (images, labels) batches,
    stacked on a leading replica axis for the engine."""
    cfg = state.config
    # A diverging step is reported once, by run's check of the loss.
    with np.errstate(over="ignore", invalid="ignore"):
        res = distributed_forward_backward(
            state.layers,
            state.params,
            np.stack([b[0] for b in batches]),
            np.stack([b[1] for b in batches]),
            cfg.bn_groups,
            policy=cfg.policy,
        )
        grads = [all_reduce(g, "mean") for g in res.grads]
        step_fn = rmsprop_step if cfg.optimizer == "rmsprop" else lars_step
        step_fn(state.params, grads, lr, cfg.optimizer_config, state.opt_state)
        for lname, (means, variances) in res.bn_saved.items():
            state.bn_moving[lname] = distbn.update_moving_stats(
                *state.bn_moving[lname], means, variances, distbn.DEFAULT_MOMENTUM)
    return res.mean_loss


# ---------------------------------------------------------------------------
# distributed evaluation


def distributed_eval(
    layers: list[LayerSpec],
    params: list[Parameter],
    bn_moving: dict,
    dataset: Dataset,
    num_replicas: int,
    eval_batch: int,
    policy: PrecisionPolicy = FP32_ONLY,
) -> float:
    """Top-1 accuracy over the dataset, sharded across all replicas.

    The eval set is cut into rows of eval_batch consecutive examples, and
    row k goes to replica k mod num_replicas; dummy examples finish the last
    row. The rows are walked in chunks of consecutive rows
    (model.replica_chunks on groups of one row, as BN reads moving
    statistics and nothing couples rows), each one eval_forward call on a
    slice of the set. The chunks run on model.map_chunks's threads, and this
    thread adds each row's counts to its replica in chunk order. Each
    replica counts its hits and its real examples as integers; the
    all-reduced counts give hits / n, which counts exactly the real
    examples, is the correctly rounded quotient at any eval-set size, and
    depends neither on the replica count, nor on the chunking, nor on
    the threads. The images may be patches for a model.prepare_first_conv
    model; a dummy's patches are zeros, as a zero image's are.
    """
    for name, value in (("num_replicas", num_replicas), ("eval_batch", eval_batch)):
        if value < 1:
            raise ValueError(f"distributed_eval {name} must be >= 1, got {value}")
    n, b = len(dataset), eval_batch
    rows = math.ceil(n / b)  # the rows that hold a real example
    chunks = replica_chunks(layers, distbn.assign_groups_1d(rows, 1),
                            (rows, b) + dataset.images.shape[1:], dataset.images.dtype)

    def shaped(a, lo, hi):  # rows lo:hi of the set, [hi - lo, b, ...]
        return _rows(a, lo * b, hi * b).reshape((hi - lo, b) + a.shape[1:])

    def count(chunk):  # [hi - lo, 2] hits and real examples of one chunk's rows
        lo, hi = chunk.rows.start, chunk.rows.stop
        y = shaped(dataset.labels, lo, hi)
        real = (np.arange(lo * b, hi * b) < n).reshape(hi - lo, b)
        logits = eval_forward(layers, params, bn_moving,
                              shaped(dataset.images, lo, hi), policy)
        hit = (logits.argmax(axis=2) == y) & real
        return np.stack([hit.sum(axis=1), real.sum(axis=1)], axis=1)

    counts = np.zeros((num_replicas, 2), dtype=np.int64)  # hits, real examples
    for chunk, c in zip(chunks, map_chunks(count, chunks)):
        # A chunk of more rows than replicas repeats one; np.add.at adds each.
        np.add.at(counts, chunk.replicas % num_replicas, c)
    hits, total = all_reduce(counts, "sum")
    return int(hits) / int(total)


def _rows(a, lo, hi):
    """a[lo:hi]: a view, or a copy finished with zeros where hi passes a's end."""
    if hi <= len(a):
        return a[lo:hi]
    return np.concatenate([a[lo:], np.zeros((hi - len(a),) + a.shape[1:], a.dtype)])


# ---------------------------------------------------------------------------
# run loop


def build_datasets(config: TrainConfig) -> tuple[Dataset, Dataset]:
    spec = config.dataset
    if spec == "synthetic":
        train = gen_synthetic(seed=config.seed, noise_stream=0, **SYNTHETIC_DEFAULTS)
        eval_kw = dict(SYNTHETIC_DEFAULTS)
        eval_kw["n"] = SYNTHETIC_EVAL_N
        evalset = gen_synthetic(seed=config.seed, noise_stream=1, **eval_kw)
    elif spec.startswith("idx:"):
        paths = spec[len("idx:"):].split(",")
        if len(paths) not in (2, 4):
            raise ValueError(
                "idx dataset must be idx:train_images,train_labels"
                "[,eval_images,eval_labels]"
            )
        train = load_idx(paths[0], paths[1])
        evalset = train if len(paths) == 2 else load_idx(paths[2], paths[3])
        # The train split sets the class count; eval classes beyond it could
        # never be hits.
        if evalset.num_classes > train.num_classes:
            raise ValueError(
                f"eval labels {paths[3]} reach class {evalset.num_classes - 1}, "
                f"but train labels {paths[1]} have {train.num_classes} classes "
                f"(0..{train.num_classes - 1})")
    else:
        raise ValueError(f"unknown dataset spec {spec!r}")
    return train, evalset


def run(config: TrainConfig) -> tuple[list[MetricsRecord], TrainState]:
    """Train per the config, interleaving distributed evaluation; returns the
    metrics records and the final TrainState (for weights dumps).

    Fully deterministic for a fixed (config, seed), including the modeled
    timing fields. A non-finite loss aborts with the records collected so far
    attached to the raised error.
    """
    train_ds, eval_ds = build_datasets(config)
    input_shape = train_ds.images.shape[1:]
    state = init_train_state(config, input_shape, train_ds.num_classes)
    steps_per_epoch = len(train_ds) // config.global_batch
    if steps_per_epoch < 1:
        raise ValueError(
            f"dataset of {len(train_ds)} examples is smaller than one "
            f"global batch ({config.global_batch})"
        )
    # A finite total_epochs can still overflow the step count.
    if not math.isfinite(config.total_epochs * steps_per_epoch):
        raise ValueError(
            f"total_epochs {config.total_epochs} at {steps_per_epoch} steps per "
            f"epoch is {config.total_epochs * steps_per_epoch} steps, which overflows")
    schedule = config.schedule(steps_per_epoch)
    cost = dataclasses.replace(
        perfmodel.DEFAULT_COST_PARAMS, param_bytes=4 * state.param_count())
    step_ms = perfmodel.step_time(config.per_core_batch, config.num_replicas, cost)
    ar_frac = perfmodel.allreduce_fraction(
        config.per_core_batch, config.num_replicas, cost)
    eval_batch = config.eval_batch_for(len(eval_ds))
    prepared = None  # (model, eval set) that every pass reads, made by the first

    def evaluate() -> float:
        nonlocal prepared, eval_ds
        if prepared is None:
            layers, patches = prepare_first_conv(
                state.layers, state.params, eval_ds.images, config.policy)
            prepared = layers, Dataset(patches, eval_ds.labels, eval_ds.num_classes)
            eval_ds = None  # the passes read only the patches and labels
        return distributed_eval(
            prepared[0], state.params, state.bn_moving, prepared[1],
            config.num_replicas, eval_batch, config.policy)

    records: list[MetricsRecord] = []
    total_steps = int(round(config.total_epochs * steps_per_epoch))
    if total_steps == 0:
        records.append(MetricsRecord(
            step=0, epoch=0.0, lr=lr_at(schedule, 0), train_loss=float("nan"),
            eval_top1=evaluate(), modeled_step_ms=step_ms,
            allreduce_frac=ar_frac, elapsed_s=0.0))
        return records, state

    gstep = 0
    elapsed_ms = 0.0
    for epoch in range(1, math.ceil(total_steps / steps_per_epoch) + 1):
        for batches in shard_train_data(
            train_ds, config.num_replicas, config.per_core_batch,
            config.seed, epoch - 1,
        )[: total_steps - gstep]:
            lr = lr_at(schedule, gstep)
            loss = train_step(state, batches, lr)
            gstep += 1
            elapsed_ms += step_ms
            records.append(MetricsRecord(
                step=gstep - 1, epoch=gstep / steps_per_epoch, lr=lr,
                train_loss=loss, eval_top1=None, modeled_step_ms=step_ms,
                allreduce_frac=ar_frac, elapsed_s=elapsed_ms / 1000.0))
            if not math.isfinite(loss):
                raise NonFiniteLossError(
                    f"non-finite loss {loss} at step {gstep - 1}", records)
        if epoch % config.eval_every_epochs == 0 or gstep == total_steps:
            records[-1].eval_top1 = evaluate()
    return records, state


def _weights_arrays(params: list[Parameter], bn_moving: dict) -> dict:
    arrays = {f"param/{p.tag}/{p.name}": p.value for p in params}
    for lname, (mm, mv) in bn_moving.items():
        arrays[f"bn_mean/{lname}"] = mm
        arrays[f"bn_var/{lname}"] = mv
    return arrays


def save_weights(state: TrainState, path) -> None:
    """Final-weights dump: parameters plus BN moving statistics, an npz
    archive at `path` as given (np.savez would add .npz to a path)."""
    with open(path, "wb") as f:
        np.savez(f, **_weights_arrays(state.params, state.bn_moving))


def load_weights(
    path, layers: list[LayerSpec], input_shape: tuple[int, ...]
) -> tuple[list[Parameter], dict]:
    """Inverse of save_weights for the model `layers` on `input_shape` inputs.

    Raises ValueError naming the first array that does not load (an object
    array, or a damaged, encrypted or unknown-compressed one), the first
    array the model needs that the archive lacks or holds in another shape
    or dtype, or with a non-finite value or a BN variance below zero, or the
    first array it does not need.
    Each member's npy header is read first, and its data only if the header
    gives the shape and dtype the model needs, so a header that claims more
    than that allocates nothing.
    """
    params = init_params(layers, input_shape, seed=0)
    bn_moving = init_bn_moving(layers, input_shape)
    want = _weights_arrays(params, bn_moving)
    try:
        archive = zipfile.ZipFile(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as e:
        raise ValueError(f"weights file {path} is not an npz archive") from e
    fmt = np.lib.format
    read_header = {(1, 0): fmt.read_array_header_1_0, (2, 0): fmt.read_array_header_2_0}
    held, got = {}, {}  # held: key -> (shape, dtype) from the member's header
    with archive:
        for name in archive.namelist():
            key = name.removesuffix(".npy")  # as np.load keys an npz member
            try:
                with archive.open(name) as member:
                    shape, _, dtype = read_header[fmt.read_magic(member)](member)
                held[key] = shape, dtype
                if key in want and held[key] == (want[key].shape, want[key].dtype):
                    with archive.open(name) as member:
                        got[key] = fmt.read_array(member, allow_pickle=False)
            # zipfile raises NotImplementedError for an unknown compression
            # method and RuntimeError for an encrypted member.
            except (KeyError, ValueError, EOFError, zipfile.BadZipFile,
                    NotImplementedError, RuntimeError) as e:
                raise ValueError(f"weights {path} hold {key} as a damaged array; "
                                 f"the model needs {np.dtype(DTYPE)}") from e
            # numpy loads an object array only by unpickling it, which could
            # run code from the file; the header alone rejects it.
            if dtype.hasobject:
                raise ValueError(f"weights {path} hold {key} as an object array; "
                                 f"the model needs {np.dtype(DTYPE)}")
    for key, ref in want.items():
        if key not in held:
            raise ValueError(f"weights {path} lack {key}, which the model needs")
        shape, dtype = held[key]
        if shape != ref.shape:
            raise ValueError(
                f"weights {path} hold {key} with shape {shape}; the model needs {ref.shape}")
        if dtype != ref.dtype:
            raise ValueError(f"weights {path} hold {key} as {dtype}; the model needs {ref.dtype}")
        bad = np.flatnonzero(~np.isfinite(got[key]))
        if bad.size:
            raise ValueError(
                f"weights {path} hold {key} with the non-finite value "
                f"{got[key].flat[bad[0]]} at flat index {bad[0]}")
        if key.startswith("bn_var/") and (got[key] < 0).any():
            raise ValueError(f"weights {path} hold {key} with a negative variance")
    for key in held:
        if key not in want:
            raise ValueError(f"weights {path} hold {key}, which the model lacks")
    params = [Parameter(p.name, got[f"param/{p.tag}/{p.name}"], tag=p.tag)
              for p in params]
    return params, {lname: (got[f"bn_mean/{lname}"], got[f"bn_var/{lname}"])
                    for lname in bn_moving}


def time_to_peak(records: list[MetricsRecord]) -> tuple[float, float]:
    """Best eval accuracy and the modeled minutes at its first attainment."""
    evals = [(r.eval_top1, r.elapsed_s) for r in records if r.eval_top1 is not None]
    if not evals:
        raise ValueError("no evaluation records")
    peak = max(t for t, _ in evals)
    first = next(s for t, s in evals if t == peak)
    return peak, first / 60.0
