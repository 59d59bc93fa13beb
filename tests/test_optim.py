"""Optimizer step formulas and learning-rate schedule closed forms."""

import math

import numpy as np
import pytest

from minipod.nn import Parameter
from minipod.optim import (
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


def scalar_param(value, tag="kernel", name="w"):
    return Parameter(name, np.array([value], dtype=np.float64), tag=tag)


# ---------------------------------------------------------------------------
# RMSProp


def test_rmsprop_zero_gradient_fixed_point():
    p = scalar_param(1.25)
    st = OptimizerState.for_params("rmsprop", [p])
    rmsprop_step([p], [np.zeros(1)], 0.1, RmsPropConfig(0.9, 0.0, 1e-3), st)
    assert float(p.value[0]) == 1.25


def test_rmsprop_hand_case():
    p = scalar_param(1.0)
    st = OptimizerState.for_params("rmsprop", [p])
    rmsprop_step([p], [np.ones(1)], 0.1, RmsPropConfig(0.9, 0.0, 1e-300), st)
    assert abs(float(st.slots["w"]["acc"][0]) - 0.1) < 1e-15
    assert abs(float(p.value[0]) - (1.0 - 0.1 / math.sqrt(0.1))) < 1e-12


def test_rmsprop_momentum_decay_on_zero_gradient():
    p = scalar_param(0.0)
    cfg = RmsPropConfig(0.9, 0.5, 1e-3)
    st = OptimizerState.for_params("rmsprop", [p])
    st.slots["w"]["mom"][:] = 1.0
    rmsprop_step([p], [np.zeros(1)], 0.1, cfg, st)
    assert float(p.value[0]) == -0.5  # w -= m*mom
    rmsprop_step([p], [np.zeros(1)], 0.1, cfg, st)
    assert float(p.value[0]) == -0.75  # then m^2 * mom


def test_rmsprop_shape_mismatch():
    p = scalar_param(1.0)
    st = OptimizerState.for_params("rmsprop", [p])
    with pytest.raises(ValueError, match="shape"):
        rmsprop_step([p], [np.zeros(2)], 0.1, RmsPropConfig(), st)


# ---------------------------------------------------------------------------
# LARS


def test_lars_trust_ratio_cases():
    assert lars_trust_ratio(10.0, 1.0, LarsConfig(eta=0.001, weight_decay=0.0)) == 0.01
    assert lars_trust_ratio(0.0, 1.0, LarsConfig()) == 1.0
    assert lars_trust_ratio(1.0, 0.0, LarsConfig(eta=1.0, weight_decay=0.1)) == 10.0
    with pytest.raises(ValueError):
        lars_trust_ratio(-1.0, 0.0, LarsConfig())


def test_lars_zero_gradient_fixed_point():
    p = scalar_param(2.0)
    st = OptimizerState.for_params("lars", [p])
    lars_step([p], [np.zeros(1)], 1.0,
              LarsConfig(eta=0.001, momentum=0.0, weight_decay=0.0), st)
    assert float(p.value[0]) == 2.0


def test_lars_hand_case():
    p = scalar_param(2.0)
    st = OptimizerState.for_params("lars", [p])
    lars_step([p], [np.ones(1)], 1.0,
              LarsConfig(eta=0.001, momentum=0.0, weight_decay=0.0), st)
    assert abs(float(p.value[0]) - 1.998) < 1e-12


def test_lars_excluded_tag_plain_momentum_sgd():
    p = scalar_param(2.0, tag="bias", name="b")
    st = OptimizerState.for_params("lars", [p])
    # ratio forced to 1 and weight decay skipped
    lars_step([p], [np.ones(1)], 0.5,
              LarsConfig(eta=0.001, momentum=0.0, weight_decay=10.0), st)
    assert abs(float(p.value[0]) - 1.5) < 1e-12


def test_lars_gradient_rescaling_invariance():
    cfg = LarsConfig(eta=0.001, momentum=0.0, weight_decay=0.0)
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal(20)
    g = rng.standard_normal(20)
    deltas = []
    for scale in (1.0, 1e-4, 37.0, 1e6):
        p = Parameter("w", w0.copy())
        st = OptimizerState.for_params("lars", [p])
        lars_step([p], [g * scale], 0.7, cfg, st)
        deltas.append(w0 - p.value)
    expected_norm = 0.7 * cfg.eta * float(np.linalg.norm(w0))
    for d in deltas:
        assert abs(float(np.linalg.norm(d)) - expected_norm) < 1e-10
        assert float(np.linalg.norm(d - deltas[0])) < 1e-10


# ---------------------------------------------------------------------------
# randomized oracle: independently coded scalar recurrences


def test_rmsprop_matches_scalar_oracle_100_cases():
    rng = np.random.default_rng(1)
    for case in range(100):
        w = float(rng.standard_normal())
        decay = float(rng.uniform(0.5, 0.999))
        mom_c = float(rng.uniform(0.0, 0.95))
        eps = float(rng.uniform(1e-6, 1e-2))
        lr = float(rng.uniform(1e-4, 0.5))
        p = scalar_param(w)
        st = OptimizerState.for_params("rmsprop", [p])
        acc = mom = 0.0
        for _ in range(5):
            g = float(rng.standard_normal())
            rmsprop_step([p], [np.array([g])], lr, RmsPropConfig(decay, mom_c, eps), st)
            acc = decay * acc + (1.0 - decay) * g * g
            mom = mom_c * mom + lr * g / math.sqrt(acc + eps)
            w = w - mom
        assert abs(float(p.value[0]) - w) <= 1e-12 * max(1.0, abs(w)), f"case {case}"


def test_lars_matches_scalar_oracle_100_cases():
    rng = np.random.default_rng(2)
    for case in range(100):
        w = float(rng.uniform(0.1, 3.0)) * (1 if rng.random() < 0.5 else -1)
        eta = float(rng.uniform(1e-4, 0.1))
        mom_c = float(rng.uniform(0.0, 0.95))
        wd = float(rng.uniform(0.0, 0.1))
        lr = float(rng.uniform(1e-3, 2.0))
        p = scalar_param(w)
        st = OptimizerState.for_params("lars", [p])
        mom = 0.0
        for _ in range(5):
            g = float(rng.standard_normal())
            lars_step([p], [np.array([g])], lr,
                      LarsConfig(eta=eta, momentum=mom_c, weight_decay=wd), st)
            w_norm = abs(w)
            g_norm = abs(g)
            denom = g_norm + wd * w_norm
            ratio = eta * w_norm / denom if (w_norm > 0 and denom > 0) else 1.0
            mom = mom_c * mom + (lr * ratio) * (g + wd * w)
            w = w - mom
        assert abs(float(p.value[0]) - w) <= 1e-12 * max(1.0, abs(w)), f"case {case}"


def test_step_independent_of_parameter_order():
    rng = np.random.default_rng(3)
    params = [Parameter(n, rng.standard_normal(4)) for n in ("a", "b", "c")]
    grads = [rng.standard_normal(4) for _ in range(3)]
    fwd = [Parameter(p.name, p.value.copy()) for p in params]
    rev = [Parameter(p.name, p.value.copy()) for p in reversed(params)]
    st1 = OptimizerState.for_params("lars", fwd)
    st2 = OptimizerState.for_params("lars", rev)
    lars_step(fwd, grads, 0.1, LarsConfig(), st1)
    lars_step(rev, list(reversed(grads)), 0.1, LarsConfig(), st2)
    for p in fwd:
        q = next(r for r in rev if r.name == p.name)
        assert p.value.tobytes() == q.value.tobytes()


# ---------------------------------------------------------------------------
# schedule


def test_base_lr_values():
    assert abs(base_lr(0.118, 32768) - 15.104) < 1e-12
    assert abs(base_lr(0.016, 4096) - 0.256) < 1e-12
    assert base_lr(0.37, 256) == 0.37


def exp_spec(spe=10):
    return ScheduleSpec(0.016, 4096, warmup_epochs=5.0, steps_per_epoch=spe,
                        total_epochs=350.0, decay="exponential")


def poly_spec(spe=10):
    return ScheduleSpec(0.118, 32768, warmup_epochs=50.0, steps_per_epoch=spe,
                        total_epochs=350.0, decay="polynomial")


def test_warmup_start_is_zero():
    assert lr_at(exp_spec(), 0) == 0.0


def test_warmup_end_is_peak():
    spec = exp_spec()
    assert lr_at(spec, 5 * 10) == spec.peak_lr


def test_warmup_is_linear():
    spec = exp_spec()
    peak = spec.peak_lr
    assert abs(lr_at(spec, 25) - peak * 0.5) < 1e-15


def test_polynomial_halfway_quarter_peak():
    spec = poly_spec()
    halfway_step = int((50.0 + 350.0) / 2 * 10)
    assert abs(lr_at(spec, halfway_step) - 0.25 * spec.peak_lr) < 1e-12


def test_polynomial_end_clamps_to_end_lr():
    spec = poly_spec()
    assert lr_at(spec, 350 * 10) == 0.0
    assert lr_at(spec, 400 * 10) == 0.0


def test_exponential_staircase_factors():
    spec = exp_spec(spe=25)
    peak = spec.peak_lr
    for k in range(12):
        boundary = 125 + 60 * k  # epoch 5 + 2.4k
        assert lr_at(spec, boundary) == peak * 0.97**k
        if k > 0:  # one step before a boundary still sits on the previous stair
            assert lr_at(spec, boundary - 1) == peak * 0.97 ** (k - 1)


def test_exponential_first_decay_epoch():
    spec = exp_spec(spe=25)
    assert abs(lr_at(spec, 125 + 60) - 0.97 * spec.peak_lr) < 1e-15


def test_schedule_bounds_and_continuity():
    for spec in (exp_spec(7), poly_spec(7)):
        peak = spec.peak_lr
        vals = [lr_at(spec, s) for s in range(0, 360 * 7, 13)]
        assert all(0.0 <= v <= peak + 1e-15 for v in vals)
    # polynomial is continuous at the warmup boundary
    spec = poly_spec(1000)
    boundary = 50 * 1000
    before, at = lr_at(spec, boundary - 1), lr_at(spec, boundary)
    assert abs(at - before) < spec.peak_lr * 1e-2
    assert at == spec.peak_lr


def test_schedule_validation():
    with pytest.raises(ValueError):
        ScheduleSpec(0.1, 256, warmup_epochs=10.0, steps_per_epoch=5, total_epochs=5.0)
    with pytest.raises(ValueError):
        ScheduleSpec(-0.1, 256, warmup_epochs=0.0, steps_per_epoch=5)
    with pytest.raises(ValueError, match="decay must be exponential or polynomial"):
        ScheduleSpec(0.1, 256, warmup_epochs=0.0, steps_per_epoch=5, decay="cosine")
    with pytest.raises(ValueError):
        lr_at(exp_spec(), -1)


def test_config_validation():
    with pytest.raises(ValueError):
        RmsPropConfig(decay=1.0)
    with pytest.raises(ValueError):
        LarsConfig(eta=0.0)
    with pytest.raises(ValueError):
        LarsConfig(momentum=1.0)


# The ranges each constant of the paper's recipe must lie in, checked where the
# constant lives: optim's configs.
_OUT_OF_RANGE = [  # class, field, value, quantity its error names
    (RmsPropConfig, "decay", 1.5, "rmsprop decay"),
    (RmsPropConfig, "momentum", 1.0, "momentum"),
    (LarsConfig, "momentum", -0.5, "momentum"),
    (RmsPropConfig, "eps", 0.0, "rmsprop eps"),
    (LarsConfig, "weight_decay", -1e-5, "lars weight_decay"),
] + [(cls, name, value, quantity)
     for cls, name, quantity in ((RmsPropConfig, "eps", "rmsprop eps"),
                                 (LarsConfig, "weight_decay", "lars weight_decay"))
     for value in (math.nan, math.inf)]


@pytest.mark.parametrize("cls,name,value,quantity", _OUT_OF_RANGE)
def test_hyperparameter_out_of_range(cls, name, value, quantity):
    with pytest.raises(ValueError, match=f"{quantity} .* got {value}$"):
        cls(**{name: value})
