"""minipod: a desk-scale simulator of large-batch data-parallel training.

Simulated replicas train a small CNN synchronously: replica-grouped batch
normalization, LARS/RMSProp with scaled-and-warmed learning rates, bfloat16
convolution emulation, deterministic all-reduce, and an analytic ring
all-reduce cost model for step timing.
"""

from .collectives import all_reduce
from .config import (
    PRESETS,
    ConfigError,
    parse_config,
    preset_config,
    serialize_config,
)
from .data import Dataset, gen_synthetic, load_idx, write_idx
from .distbn import (
    assign_groups_1d,
    assign_groups_2d,
    group_bn_backward,
    group_bn_forward,
    update_moving_stats,
)
from .model import (
    LayerSpec,
    build_model,
    distributed_forward_backward,
    eval_forward,
    grad_check,
    infer_shapes,
    init_params,
)
from .nn import Parameter, conv2d_backward, conv2d_forward, im2col, softmax_xent
from .optim import (
    DECAYS,
    LarsConfig,
    OptimizerState,
    RmsPropConfig,
    ScheduleSpec,
    base_lr,
    lars_step,
    lars_trust_ratio,
    lr_at,
    rmsprop_step,
)
from .perfmodel import (
    CostModelParams,
    allreduce_fraction,
    allreduce_time,
    calibrate,
    padded_batch_utilization,
    step_time,
    throughput,
)
from .precision import FP32_ONLY, MIXED_BF16_CONV, PrecisionPolicy, to_bf16
from .trainer import (
    MetricsRecord,
    TrainConfig,
    distributed_eval,
    run,
    shard_train_data,
    time_to_peak,
    train_step,
)

__version__ = "0.1.0"
