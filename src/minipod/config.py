"""Experiment configuration: `key = value` text files and the preset catalog.

The catalog carries the published b2/b5 hyperparameter rows (pod-scale
replica counts and batch sizes) plus desk-scale toy presets, each a dict of
TrainConfig keys. No row names a decay: each follows its optimizer
(optim.DECAYS), and the listing prints it. A preset is applied first and
explicit keys override it; unknown keys and duplicates are rejected so typos
never pass silently, and every value is checked by building the TrainConfig,
before any data is read.
"""

from __future__ import annotations

import dataclasses
import typing

from .optim import DECAYS
from .trainer import TrainConfig


class ConfigError(ValueError):
    pass


def _published(model, cores, batch, opt, lr, warmup) -> dict:
    return dict(model=model, num_replicas=cores, global_batch=batch, optimizer=opt,
                lr_per_256=lr, warmup_epochs=warmup, total_epochs=350.0)


# One preset per published benchmark row (pod-scale), then the toy rows.
PRESETS: dict[str, dict] = {
    "b2-rmsprop-4096": _published("b2", 128, 4096, "rmsprop", 0.016, 5.0),
    "b2-rmsprop-8192": _published("b2", 256, 8192, "rmsprop", 0.016, 5.0),
    "b2-rmsprop-16384": _published("b2", 512, 16384, "rmsprop", 0.016, 5.0),
    "b2-lars-16384": _published("b2", 512, 16384, "lars", 0.236, 50.0),
    "b2-lars-32768": _published("b2", 1024, 32768, "lars", 0.118, 50.0),
    "b5-rmsprop-4096": _published("b5", 128, 4096, "rmsprop", 0.016, 5.0),
    "b5-rmsprop-8192": _published("b5", 256, 8192, "rmsprop", 0.016, 5.0),
    "b5-rmsprop-16384": _published("b5", 512, 16384, "rmsprop", 0.016, 5.0),
    "b5-lars-16384": _published("b5", 512, 16384, "lars", 0.236, 50.0),
    "b5-lars-32768": _published("b5", 1024, 32768, "lars", 0.118, 50.0),
    "b5-lars-65536": _published("b5", 1024, 65536, "lars", 0.081, 43.0),
    "toy-rmsprop-512": dict(
        model="toy_cnn", num_replicas=8, global_batch=512, optimizer="rmsprop",
        lr_per_256=0.03, warmup_epochs=1.0,
        total_epochs=12.0, bn_group_size=8, eval_every_epochs=2.0),
    "toy-lars-2048": dict(
        model="toy_cnn", num_replicas=8, global_batch=2048, optimizer="lars",
        lr_per_256=0.05, warmup_epochs=2.0,
        total_epochs=20.0, bn_group_size=8, eval_every_epochs=5.0, lars_eta=0.02),
}


def _key_type(hint) -> type:
    # An optional key (`int | None`) parses as its non-None member.
    members = [t for t in typing.get_args(hint) if t is not type(None)]
    return members[0] if members else hint


# Config-file keys are the TrainConfig fields plus `preset`.
_KEY_TYPES = {"preset": str} | {
    name: _key_type(hint) for name, hint in typing.get_type_hints(TrainConfig).items()
}

_REQUIRED_WITHOUT_PRESET = (
    "model", "optimizer", "lr_per_256", "num_replicas", "global_batch",
)


def _parse_lines(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: key {key!r} has no value")
        raw[key] = value
    return raw


def _convert(key: str, value: str):
    typ = _KEY_TYPES[key]
    try:
        return typ(value)
    except ValueError as e:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as {typ.__name__}") from e


def parse_config(text: str) -> TrainConfig:
    """Parse config text into a validated TrainConfig."""
    raw = _parse_lines(text)
    values = {k: _convert(k, v) for k, v in raw.items()}

    merged: dict = {}
    preset_name = values.pop("preset", None)
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset_name!r}; see the presets listing")
        merged.update(PRESETS[preset_name])
    else:
        missing = [k for k in _REQUIRED_WITHOUT_PRESET if k not in values]
        if missing:
            raise ConfigError(
                "required keys missing (or use a preset): " + ", ".join(missing))
    if "dataset" not in values:
        raise ConfigError("required keys missing: dataset")
    merged.update(values)

    try:
        return TrainConfig(**merged)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e


def preset_config(name: str, dataset: str = "synthetic", **overrides) -> TrainConfig:
    """TrainConfig from a catalog preset plus keyword overrides."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    return TrainConfig(**{**PRESETS[name], "dataset": dataset, **overrides})


def serialize_config(config: TrainConfig) -> str:
    """Emit config text that parses back to an identical TrainConfig."""
    lines = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def presets_table() -> str:
    """Human-readable catalog listing (one row per preset)."""
    header = (
        f"{'name':<18} {'model':<7} {'cores':>5} {'batch':>6} {'optimizer':<9} "
        f"{'lr/256':>7} {'decay':<12} {'warmup':>6}"
    )
    lines = [header, "-" * len(header)]
    for name, p in PRESETS.items():
        lines.append(
            f"{name:<18} {p['model']:<7} {p['num_replicas']:>5} {p['global_batch']:>6} "
            f"{p['optimizer']:<9} {p['lr_per_256']:>7} {DECAYS[p['optimizer']]:<12} "
            f"{p['warmup_epochs']:>6}"
        )
    return "\n".join(lines)
