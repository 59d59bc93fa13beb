"""Config parsing, preset catalog, and command-line surface tests."""

import dataclasses
import io
import os
import re
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from minipod import cli, config
from minipod.cli import main
from minipod.config import (
    PRESETS,
    ConfigError,
    parse_config,
    preset_config,
    serialize_config,
)
from minipod.data import gen_synthetic, write_idx
from minipod.trainer import TrainConfig

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# parsing


def test_parse_preset_row():
    cfg = parse_config("preset = b5-lars-65536\ndataset = synthetic\n")
    assert cfg.num_replicas == 1024
    assert cfg.global_batch == 65536
    assert cfg.optimizer == "lars"
    assert cfg.lr_per_256 == 0.081
    assert cfg.schedule(1).decay == "polynomial"
    assert cfg.warmup_epochs == 43.0
    assert cfg.total_epochs == 350.0
    assert cfg.model == "b5"


def test_parse_override_beats_preset():
    text = "preset = toy-rmsprop-512\ndataset = synthetic\nnum_replicas = 4\nglobal_batch = 256\nbn_group_size = 4\n"
    cfg = parse_config(text)
    assert cfg.num_replicas == 4 and cfg.global_batch == 256
    assert cfg.optimizer == "rmsprop"  # from the preset


def test_parse_empty_file_reports_missing_keys():
    with pytest.raises(ConfigError, match="required keys missing"):
        parse_config("")


def test_parse_missing_dataset():
    with pytest.raises(ConfigError, match="dataset"):
        parse_config("preset = toy-rmsprop-512\n")


def test_parse_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'leraning_rate'"):
        parse_config("leraning_rate = 0.1\n")


def test_parse_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2\n")


def test_parse_bad_value_type():
    with pytest.raises(ConfigError, match="num_replicas"):
        parse_config("num_replicas = eight\n")


def test_config_keys_are_train_config_fields():
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    assert set(config._KEY_TYPES) == fields | {"preset"}
    assert config._KEY_TYPES["tile_rows"] is int  # `int | None` parses as int


@pytest.mark.parametrize("line,key", [
    ("bn_momentum = 3", "bn_momentum"),
    ("bn_momentum = -0.1", "bn_momentum"),
    ("bn_momentum = nan", "bn_momentum"),
    ("bn_eps = 0", "bn_eps"),
    ("bn_eps = -1e-3", "bn_eps"),
])
def test_parse_bn_hyperparameter_out_of_range(line, key):
    # BN momentum and epsilon are constants (distbn.DEFAULT_MOMENTUM and
    # DEFAULT_EPS): a config that sets either fails as an unknown key.
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(f"preset = toy-rmsprop-512\ndataset = synthetic\n{line}\n")


_RMSPROP = "toy-rmsprop-512"  # exponential decay
_LARS = "toy-lars-2048"  # polynomial decay
_FLOAT_KEYS = [  # key, preset that reads it, quantity its error names
    ("lr_per_256", _RMSPROP, "lr_per_256"),
    ("lars_eta", _LARS, "lars eta"),
]

# The hyperparameters the paper fixes are constants, the defaults of optim's
# configs, optim's decay constants and distbn's DEFAULT_MOMENTUM/DEFAULT_EPS; a config that
# sets one fails as an unknown key. One line per key sets its constant's own
# value; the others set values out of the constant's range.
_FIXED_KEYS = {"bn_momentum": "0.99", "bn_eps": "0.001", "momentum": "0.9",
               "rmsprop_decay": "0.9", "rmsprop_eps": "0.001",
               "lars_weight_decay": "1e-05", "decay_rate": "0.97",
               "epochs_per_decay": "2.4", "poly_power": "2.0", "end_lr": "0.0"}
_FIXED_KEY_LINES = [(_RMSPROP, f"{key} = {value}") for key, value in _FIXED_KEYS.items()] + [
    (_RMSPROP, "rmsprop_decay = 1.5"),
    (_RMSPROP, "momentum = 1.0"),
    (_LARS, "momentum = -0.5"),
    (_RMSPROP, "rmsprop_eps = 0"),
    (_LARS, "lars_weight_decay = -1e-05"),
    (_RMSPROP, "decay_rate = 2"),
    (_RMSPROP, "epochs_per_decay = 0"),
    (_LARS, "poly_power = -1"),
    (_LARS, "end_lr = -0.1"),
    (_LARS, "end_lr = 5"),
    (_RMSPROP, "poly_power = -1"),
    (_LARS, "rmsprop_decay = 1.5"),
    (_LARS, "decay_rate = 7"),
] + [(preset, f"{key} = {value}")
     for key, preset in (("rmsprop_eps", _RMSPROP), ("lars_weight_decay", _LARS),
                         ("epochs_per_decay", _RMSPROP), ("poly_power", _LARS),
                         ("end_lr", _LARS), ("bn_eps", _RMSPROP))
     for value in ("nan", "inf")]


_BAD_VALUES = [  # preset, line, pattern of the error it raises
    # Keys the optimizer, the schedule or the BN grouping check as they are built.
    (_LARS, "lars_eta = 0", "lars eta .* got 0.0$"),
    (_RMSPROP, "lr_per_256 = 0", "lr_per_256 .* got 0.0$"),
    (_RMSPROP, "warmup_epochs = -1", r"warmup \(-1.0\)"),
    (_RMSPROP, "warmup_epochs = inf", "warmup_epochs .* got inf$"),
    # LARS's key under RMSProp.
    (_RMSPROP, "lars_eta = nan", "lars eta .* got nan$"),
    (_RMSPROP, "bn_grouping = 2d\ntile_rows = 3\ntile_cols = 1\nbn_group_size = 3",
     "tile 3x1 .* grid 2x4"),
] + [(preset, f"{key} = {value}", f"{quantity} .* got {value}$")
     for key, preset, quantity in _FLOAT_KEYS for value in ("nan", "inf")]
_FIXED_KEY_ERRORS = [  # preset, line, pattern, key
    (preset, line, f"line 3: unknown key '{key}'$", key)
    for preset, line in _FIXED_KEY_LINES for key in [line.split(" = ")[0]]]


@pytest.mark.parametrize("preset,line,pattern", _BAD_VALUES + [
    pytest.param(preset, line, pattern, id=f"{preset}-{line}-{key} is a constant")
    for preset, line, pattern, key in _FIXED_KEY_ERRORS])
def test_parse_rejects_bad_value_before_any_data(preset, line, pattern):
    with pytest.raises(ConfigError, match=pattern):
        parse_config(f"preset = {preset}\ndataset = synthetic\n{line}\n")


@pytest.mark.parametrize("command", ["eval", "gradcheck"])
def test_cli_eval_and_gradcheck_reject_bad_key_before_reading_data(
        tmp_path, capsys, command):
    absent = tmp_path / "absent.idx"
    cfg = write_config(
        tmp_path, f"preset = toy-rmsprop-512\ndataset = idx:{absent},{absent}\n"
                  "lars_eta = 0\n")
    extra = ["--weights", str(tmp_path / "absent.npz")] if command == "eval" else []
    assert main([command, "--config", str(cfg)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lars eta must be finite and > 0, got 0.0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("every", ["0.5", "1.5"])
def test_cli_train_fractional_eval_every_epochs(tmp_path, capsys, every):
    cfg = write_config(
        tmp_path,
        "preset = toy-rmsprop-512\ndataset = synthetic\ntotal_epochs = 1\n"
        f"eval_every_epochs = {every}\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "eval_every_epochs" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line,key", [
    ("eval_batch = 0", "eval_batch"),  # the key is gone: rejected as unknown
    ("eval_batch = -4", "eval_batch"),
    ("total_epochs = inf", "total_epochs"),
])
def test_cli_train_rejects_bad_eval_batch_and_total_epochs(tmp_path, capsys, line, key):
    cfg = write_config(tmp_path, f"preset = toy-rmsprop-512\ndataset = synthetic\n{line}\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err


def test_parse_invariant_violation():
    text = ("model = toy_cnn\ndataset = synthetic\noptimizer = rmsprop\n"
            "lr_per_256 = 0.1\nnum_replicas = 8\nglobal_batch = 64\n"
            "bn_group_size = 3\n")
    with pytest.raises(ConfigError, match="divide"):
        parse_config(text)


def test_parse_comments_and_order_insensitive():
    a = parse_config(
        "# experiment\npreset = toy-rmsprop-512  # catalog row\n"
        "dataset = synthetic\nseed = 4\n")
    b = parse_config("seed = 4\ndataset = synthetic\npreset = toy-rmsprop-512\n")
    assert a == b


def test_parse_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_config("preset = b9-sgd-1\ndataset = synthetic\n")


def test_parse_2d_grouping_keys():
    cfg = parse_config(
        "preset = toy-rmsprop-512\ndataset = synthetic\nbn_grouping = 2d\n"
        "bn_group_size = 4\ntile_rows = 1\ntile_cols = 4\n")
    # Tiles of the most-square grid of 8 replicas, 2x4.
    assert cfg.bn_groups.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_presets_roundtrip_serialize_parse():
    for name in PRESETS:
        cfg = preset_config(name, dataset="synthetic")
        again = parse_config(serialize_config(cfg))
        assert again == cfg, name


def test_custom_config_roundtrip():
    cfg = preset_config("toy-rmsprop-512", precision="mixed_bf16",
                        bn_grouping="2d", bn_group_size=4, tile_rows=2,
                        tile_cols=2)
    assert parse_config(serialize_config(cfg)) == cfg


def test_catalog_row_count():
    published = [p for p in PRESETS.values() if p["model"] in ("b2", "b5")]
    toys = [p for p in PRESETS.values() if p["model"] == "toy_cnn"]
    assert len(published) == 11
    assert len(toys) >= 1


# ---------------------------------------------------------------------------
# CLI


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def test_cli_presets_lists_catalog(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("b2-rmsprop-4096", "b5-lars-65536", "toy-rmsprop-512"):
        assert name in out
    rows = [l for l in out.splitlines()
            if l.strip() and not l.startswith(("name", "-"))]
    assert len(rows) == len(PRESETS)


def test_cli_presets_print_each_rows_optimizer_decay(capsys):
    # No preset names a decay; the listing prints the one its optimizer uses.
    assert main(["presets"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 13
    for row, (name, preset) in zip(rows, PRESETS.items()):
        fields = row.split()
        assert (fields[0], fields[4]) == (name, preset["optimizer"])
        assert fields[6] == {"rmsprop": "exponential", "lars": "polynomial"}[fields[4]]


def test_cli_unknown_subcommand(capsys):
    assert main(["explode"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_no_args(capsys):
    assert main([]) == 1


GRADCHECK_CONFIG = ("model = toy_cnn_pool\ndataset = synthetic\noptimizer = rmsprop\n"
                    "lr_per_256 = 0.1\nnum_replicas = 1\nglobal_batch = 64\n")


def test_cli_gradcheck_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, GRADCHECK_CONFIG)
    assert main(["gradcheck", "--config", str(cfg)]) == 0
    assert "max relative error" in capsys.readouterr().out


def test_cli_train_eval_cycle(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "preset = toy-rmsprop-512\ndataset = synthetic\nnum_replicas = 2\n"
        "global_batch = 512\nbn_group_size = 2\ntotal_epochs = 1\n"
        "eval_every_epochs = 1\n")
    out_csv = tmp_path / "metrics.csv"
    weights = tmp_path / "weights.npz"
    rc = main(["train", "--config", str(cfg), "--out", str(out_csv),
               "--weights-out", str(weights)])
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("step,epoch,lr,train_loss")
    assert len(lines) == 1 + 16  # 8192 / 512 steps
    assert weights.exists()

    rc = main(["eval", "--weights", str(weights), "--config", str(cfg)])
    assert rc == 0
    assert "top1" in capsys.readouterr().out


def test_cli_weights_out_writes_the_path_it_is_given(tmp_path, capsys):
    # np.savez given a path would write w.bin.npz; eval reads w.bin back.
    cfg = write_config(tmp_path, "preset = toy-rmsprop-512\ndataset = synthetic\n"
                                 "total_epochs = 2\n")
    out_csv, weights = tmp_path / "m.csv", tmp_path / "w.bin"
    assert main(["train", "--config", str(cfg), "--out", str(out_csv),
                 "--weights-out", str(weights)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "m.csv", "w.bin"]
    capsys.readouterr()
    assert main(["eval", "--weights", str(weights), "--config", str(cfg)]) == 0
    # The run's passes read the prepared set, eval's the images: one top-1.
    top1 = float(out_csv.read_text().splitlines()[-1].split(",")[4])
    assert capsys.readouterr().out == f"top1 {top1:.6f} over 2048 examples on 8 replicas\n"


def test_cli_train_bad_config_runtime_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "nonsense = 1\n")
    assert main(["train", "--config", str(cfg), "--out",
                 str(tmp_path / "m.csv")]) == 2
    assert "error" in capsys.readouterr().err.lower()


def test_cli_train_missing_required_flag(capsys):
    assert main(["train", "--config", "whatever.cfg"]) == 1
    err = capsys.readouterr().err
    assert "minipod train: error: the following arguments are required: --out" in err


def test_cli_gradcheck_invalid_eps_is_a_usage_error(capsys):
    assert main(["gradcheck", "--config", "whatever.cfg", "--eps", "abc"]) == 1
    err = capsys.readouterr().err
    assert "minipod gradcheck: error: argument --eps: invalid float value: 'abc'" in err


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
def test_cli_gradcheck_rejects_eps_outside_0_inf(tmp_path, eps):
    # A process of its own: the exit code and stderr a user sees.
    cfg = write_config(tmp_path, GRADCHECK_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-m", "minipod.cli", "gradcheck", "--config", str(cfg),
         "--eps", eps],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert f"error: grad_check eps must be finite and > 0, got {float(eps)}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_gradcheck_non_finite_loss_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    def non_finite(*args, **kwargs):
        raise FloatingPointError("non-finite loss in grad_check")

    monkeypatch.setattr(cli, "grad_check", non_finite)
    cfg = write_config(tmp_path, GRADCHECK_CONFIG)
    assert main(["gradcheck", "--config", str(cfg)]) == 2
    assert "error: non-finite loss in grad_check" in capsys.readouterr().err


def test_cli_gradcheck_diverging_passes_print_only_the_error(tmp_path):
    # eps = 1e300 overflows group BN: numpy's RuntimeWarnings must not reach
    # the user ahead of the one error line.
    cfg = write_config(tmp_path, GRADCHECK_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-m", "minipod.cli", "gradcheck", "--config", str(cfg),
         "--eps", "1e300"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: non-finite loss in grad_check\n"


def test_cli_bench(tmp_path, capsys):
    table = tmp_path / "rows.csv"
    table.write_text(
        "model,cores,global_batch,throughput,allreduce_pct\n"
        "b2,128,4096,57.57,2.1\n"
        "b2,256,8192,113.73,2.6\n"
        "b2,512,16384,227.13,2.5\n")
    out = tmp_path / "fit.csv"
    assert main(["bench", "--table", str(table), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("model,per_image_compute_ms")
    assert len(lines) == 4
    compute = float(lines[1].split(",")[1])
    assert 1.5 < compute < 3.0


def test_cli_bench_missing_columns(tmp_path):
    table = tmp_path / "rows.csv"
    table.write_text("model,cores\nb2,128\n")
    assert main(["bench", "--table", str(table)]) == 2


def test_cli_eval_on_idx_dataset(tmp_path, capsys):
    ds = gen_synthetic(4, 64, 8, 8, 1, seed=0)
    imgs = (ds.images * 255).round().astype(np.uint8)
    write_idx(imgs, ds.labels.astype(np.uint8),
              tmp_path / "ti.idx", tmp_path / "tl.idx")
    cfg = write_config(
        tmp_path,
        f"model = toy_cnn\ndataset = idx:{tmp_path}/ti.idx,{tmp_path}/tl.idx\n"
        "optimizer = rmsprop\nlr_per_256 = 0.05\nnum_replicas = 1\n"
        "global_batch = 32\ntotal_epochs = 1\n")
    out_csv = tmp_path / "m.csv"
    weights = tmp_path / "w.npz"
    assert main(["train", "--config", str(cfg), "--out", str(out_csv),
                 "--weights-out", str(weights)]) == 0
    assert main(["eval", "--weights", str(weights), "--config", str(cfg)]) == 0


def test_cli_eval_weights_of_another_model(tmp_path, capsys):
    toy = write_config(tmp_path, "preset = toy-rmsprop-512\ndataset = synthetic\n"
                                 "total_epochs = 0\n")
    weights = tmp_path / "w.npz"
    assert main(["train", "--config", str(toy), "--out", str(tmp_path / "m.csv"),
                 "--weights-out", str(weights)]) == 0
    capsys.readouterr()
    b2 = tmp_path / "b2.cfg"
    b2.write_text("preset = toy-rmsprop-512\ndataset = synthetic\nmodel = b2\n")
    assert main(["eval", "--weights", str(weights), "--config", str(b2)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "conv2/kernel" in err


def test_cli_eval_weights_not_npz(tmp_path, capsys):
    cfg = write_config(tmp_path, "preset = toy-rmsprop-512\ndataset = synthetic\n")
    weights = tmp_path / "w.npz"
    weights.write_text("not an archive\n")
    assert main(["eval", "--weights", str(weights), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(weights) in err and "allow_pickle" not in err


# ---------------------------------------------------------------------------
# hostile inputs: each exits 2 with one error line and no traceback


def single_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def idx_split(tmp_path, prefix, num_classes, seed, n=64):
    ds = gen_synthetic(num_classes, n, 8, 8, 1, seed=seed)
    images, labels = tmp_path / f"{prefix}i.idx", tmp_path / f"{prefix}l.idx"
    write_idx((ds.images * 255).round().astype(np.uint8), ds.labels, images, labels)
    return f"{images},{labels}"


def idx_config(tmp_path, train_classes, eval_classes):
    spec = (f"{idx_split(tmp_path, 't', train_classes, 0)},"
            f"{idx_split(tmp_path, 'e', eval_classes, 1)}")
    return write_config(
        tmp_path, f"model = toy_cnn\ndataset = idx:{spec}\noptimizer = rmsprop\n"
                  "lr_per_256 = 0.05\nnum_replicas = 1\nglobal_batch = 32\n"
                  "total_epochs = 1\n")


def test_cli_train_rejects_eval_classes_beyond_the_train_split(tmp_path, capsys):
    # Eval classes 8 and 9 could never be hits for an 8-class model.
    cfg = idx_config(tmp_path, train_classes=8, eval_classes=10)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]) == 2
    err = single_error(capsys)
    assert f"{tmp_path}/el.idx reach class 9" in err
    assert f"{tmp_path}/tl.idx have 8 classes" in err
    assert not (tmp_path / "m.csv").exists()


def test_cli_eval_sizes_the_model_from_the_train_split(tmp_path, capsys):
    cfg = idx_config(tmp_path, train_classes=10, eval_classes=8)
    weights = tmp_path / "w.npz"
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.csv"),
                 "--weights-out", str(weights)]) == 0
    assert main(["eval", "--weights", str(weights), "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_rejects_eval_batch_beyond_one_replicas_share(tmp_path, capsys, monkeypatch):
    # 16 eval examples over 2 replicas: a share of 8 each.
    spec = f"{idx_split(tmp_path, 't', 10, 0)},{idx_split(tmp_path, 'e', 10, 1, n=16)}"
    text = (f"model = toy_cnn\ndataset = idx:{spec}\noptimizer = rmsprop\n"
            "lr_per_256 = 0.05\nnum_replicas = 2\nglobal_batch = 64\n"
            "total_epochs = 1\n")
    weights = tmp_path / "w.npz"
    assert main(["train", "--config", str(write_config(tmp_path, text)),
                 "--out", str(tmp_path / "m.csv"), "--weights-out", str(weights)]) == 0
    # The worked-out eval batch is one replica's share, not the per-core batch of 32.
    eval_batches = []
    distributed_eval = cli.trainer.distributed_eval

    def recording(*args):
        eval_batches.append(args[5])
        return distributed_eval(*args)

    monkeypatch.setattr(cli.trainer, "distributed_eval", recording)
    capsys.readouterr()
    assert main(["eval", "--weights", str(weights),
                 "--config", str(write_config(tmp_path, text))]) == 0
    assert eval_batches == [8]
    assert capsys.readouterr().err == ""
    # No config can ask for more: any eval_batch is an unknown key, before any step.
    for eval_batch in (9, 1000000000):
        cfg = write_config(tmp_path, text + f"eval_batch = {eval_batch}\n")
        assert main(["eval", "--weights", str(weights), "--config", str(cfg)]) == 2
        assert "unknown key 'eval_batch'" in single_error(capsys)
        out = tmp_path / f"m{eval_batch}.csv"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert "unknown key 'eval_batch'" in single_error(capsys)
        assert not out.exists()
    assert eval_batches == [8]


@pytest.mark.parametrize("row, reason", [
    ("b2,0,4096,57.57,2.1", "cores >= 1, got 0"),
    ("b2,128,4096,nan,2.1", "finite throughput > 0"),
    ("b2,128,4096,inf,2.1", "finite throughput > 0"),
])
def test_cli_bench_rejects_bad_rows(tmp_path, capsys, row, reason):
    table = tmp_path / "rows.csv"
    table.write_text("model,cores,global_batch,throughput,allreduce_pct\n"
                     f"{row}\nb2,256,8192,113.73,2.6\n")
    assert main(["bench", "--table", str(table)]) == 2
    assert reason in single_error(capsys)


def test_cli_train_rejects_an_idx_header_larger_than_its_file(tmp_path, capsys):
    images = tmp_path / "i.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, 2**31, 16, 16) + bytes(256))
    cfg = write_config(tmp_path, "preset = toy-rmsprop-512\n"
                                 f"dataset = idx:{images},{images}\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]) == 2
    assert "truncated file while reading 2147483648 images" in single_error(capsys)


@pytest.mark.parametrize("flag", ["--out", "--weights-out"])
def test_cli_train_checks_output_directories_before_training(
        tmp_path, capsys, monkeypatch, flag):
    def never(config):
        raise AssertionError("trainer.run called")

    monkeypatch.setattr(cli.trainer, "run", never)
    cfg = write_config(tmp_path, "preset = toy-rmsprop-512\ndataset = synthetic\n")
    paths = {"--out": tmp_path / "m.csv", "--weights-out": tmp_path / "w.npz"}
    paths[flag] = tmp_path / "nodir" / "a"
    argv = ["train", "--config", str(cfg)]
    for f, p in paths.items():
        argv += [f, str(p)]
    assert main(argv) == 2
    assert f"{flag} {tmp_path}/nodir/a: directory {tmp_path}/nodir does not exist" in (
        single_error(capsys))


# ---------------------------------------------------------------------------
# every bad input as one table: through cli.main, no exception escapes, the
# documented exit code, and exactly one `error:` line (none on success)


def _train(text):
    """argv of `train` on a config of `text`; the config is written per case."""
    def argv(tmp_path):
        return ["train", "--config", str(write_config(tmp_path, text)),
                "--out", str(tmp_path / "m.csv")]
    return argv


def _toy(lines):
    return _train(f"preset = toy-rmsprop-512\ndataset = synthetic\n{lines}\n")


def _idx_header_beyond_file(tmp_path):
    images = tmp_path / "i.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, 2**31, 16, 16) + bytes(256))
    return _train(f"preset = toy-rmsprop-512\ndataset = idx:{images},{images}\n")(tmp_path)


def _bench_table(text):
    def argv(tmp_path):
        table = tmp_path / "rows.csv"
        table.write_text(text)
        return ["bench", "--table", str(table)]
    return argv


def _bench(row):
    return _bench_table("model,cores,global_batch,throughput,allreduce_pct\n"
                        f"{row}\nb2,256,8192,113.73,2.6\n")


def _eval_classes_beyond_train(tmp_path):
    return _train(idx_config(tmp_path, 8, 10).read_text())(tmp_path)


def _eval_of_10_class_weights_on_8_class_split(tmp_path):
    cfg = idx_config(tmp_path, train_classes=10, eval_classes=8)
    weights = tmp_path / "w.npz"
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.csv"),
                 "--weights-out", str(weights)]) == 0
    return ["eval", "--weights", str(weights), "--config", str(cfg)]


def _eval_weights_of_another_model(tmp_path):
    argv = _eval_of_10_class_weights_on_8_class_split(tmp_path)
    cfg = (tmp_path / "exp.cfg").read_text().replace("toy_cnn", "b2")
    b2 = write_config(tmp_path, cfg)
    return argv[:-1] + [str(b2)]


def _eval_weights_file(name, content):
    """argv of `eval` on toy-rmsprop-512 with a weights file `name` of `content`."""
    def argv(tmp_path):
        weights = tmp_path / name
        weights.write_bytes(content)
        return ["eval", "--weights", str(weights), "--config",
                str(write_config(tmp_path, "preset = toy-rmsprop-512\ndataset = synthetic\n"))]
    return argv


def _npy_claiming(shape):
    """An npy file whose float32 header claims `shape`; 16 data bytes follow."""
    npy = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        npy, {"descr": "<f4", "fortran_order": False, "shape": shape})
    return npy.getvalue() + bytes(16)


def _npz_of(members):
    """An npz archive of the member name -> bytes map `members`."""
    npz = io.BytesIO()
    with zipfile.ZipFile(npz, "w") as archive:
        for name, content in members.items():
            archive.writestr(name, content)
    return npz.getvalue()


def _out_in_missing_directory(flag):
    def argv(tmp_path):
        return _toy("")(tmp_path) + [flag, str(tmp_path / "nodir" / "a")]
    return argv


def _out_is_a_directory(flag):
    def argv(tmp_path):
        (tmp_path / "d").mkdir()
        return _toy("")(tmp_path) + [flag, str(tmp_path / "d")]
    return argv


def _idx_of_zero_images(tmp_path):
    images, labels = tmp_path / "i.idx", tmp_path / "l.idx"
    write_idx(np.zeros((0, 8, 8, 1), np.uint8), np.zeros(0, np.uint8), images, labels)
    return _train(f"preset = toy-rmsprop-512\ndataset = idx:{images},{labels}\n")(tmp_path)


def _eval_weights(edit):
    """argv of `eval` on toy-rmsprop-512 weights as `edit` rewrites them: it
    maps the saved arrays to an archive's arrays, or to one lone array."""
    def argv(tmp_path):
        cfg = write_config(tmp_path, "preset = toy-rmsprop-512\ndataset = synthetic\n"
                                     "total_epochs = 0\n")
        weights = tmp_path / "w.npz"
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.csv"),
                     "--weights-out", str(weights)]) == 0
        with np.load(weights) as archive:
            held = edit(dict(archive))
        if isinstance(held, dict):
            np.savez(weights, **held)
        else:
            weights = tmp_path / "w.npy"
            np.save(weights, held)
        return ["eval", "--weights", str(weights), "--config", str(cfg)]
    return argv


_KERNEL = "param/kernel/conv1/kernel"


def _set_element(key, value):
    """A weights edit: element 3 of the array at `key` set to `value`."""
    def edit(arrays):
        changed = arrays[key].copy()
        changed.flat[3] = value
        return {**arrays, key: changed}
    return edit


def _eval_weights_with_member(key, content):
    """argv of `eval` on toy-rmsprop-512 weights whose member for `key`
    holds the bytes `content`."""
    def argv(tmp_path):
        argv = _eval_weights(lambda a: {k: v for k, v in a.items() if k != key})(tmp_path)
        with zipfile.ZipFile(argv[2], "a") as archive:
            archive.writestr(f"{key}.npy", content)
        return argv
    return argv


def _eval_weights_with_entry(key, field, value):
    """argv of `eval` on toy-rmsprop-512 weights whose central-directory
    entry for `key` has the 2-byte `field` (8: flags, 10: compression
    method) set to `value`."""
    def argv(tmp_path):
        argv = _eval_weights(lambda a: a)(tmp_path)
        data = bytearray(Path(argv[2]).read_bytes())
        # The name's last copy is in the central directory, after the data.
        entry = data.rindex(b"PK\x01\x02", 0, data.rindex(f"{key}.npy".encode()))
        data[entry + field:entry + field + 2] = struct.pack("<H", value)
        Path(argv[2]).write_bytes(data)
        return argv
    return argv


def _gradcheck_on_three_examples(tmp_path):
    # Fewer examples than the checked slice of 4: all 3 are checked.
    spec = f"{idx_split(tmp_path, 't', 3, 0, n=3)},{idx_split(tmp_path, 'e', 3, 1, n=3)}"
    return ["gradcheck", "--config", str(write_config(
        tmp_path, f"preset = toy-rmsprop-512\ndataset = idx:{spec}\n"))]


def _gradcheck(eps):
    def argv(tmp_path):
        return ["gradcheck", "--config", str(write_config(tmp_path, GRADCHECK_CONFIG)),
                "--eps", eps]
    return argv


_TABLE = [  # argv builder, exit code, pattern of the error line
    # ROADMAP item 2's table, one row each.
    pytest.param(_idx_header_beyond_file, 2,
                 "truncated file while reading 2147483648 images", id="idx-header"),
    pytest.param(_toy("eval_batch = 1000000000"), 2, "unknown key 'eval_batch'",
                 id="eval_batch-removed"),
    pytest.param(_bench("b2,0,4096,57.57,2.1"), 2, "cores >= 1, got 0", id="bench-cores-0"),
    pytest.param(_bench("b2,128,4096,nan,2.1"), 2, "finite throughput > 0",
                 id="bench-throughput-nan"),
    pytest.param(_eval_classes_beyond_train, 2, "el.idx reach class 9",
                 id="eval-classes-beyond-train"),
    pytest.param(_eval_of_10_class_weights_on_8_class_split, 0, None,
                 id="eval-8-class-split"),
    pytest.param(_out_in_missing_directory("--out"), 2, "directory .*/nodir does not exist",
                 id="out-nodir"),
    # Replica arrays beyond a stated size, and a tile 1d grouping would ignore.
    pytest.param(_train("preset = toy-rmsprop-512\ndataset = synthetic\n"
                        "num_replicas = 1000000000\nglobal_batch = 1000000000\n"),
                 2, r"num_replicas must lie in \[1, 65536\], got 1000000000",
                 id="num_replicas-1e9"),
    pytest.param(_toy("tile_rows = 2\ntile_cols = 2"), 2,
                 "tile_rows and tile_cols given, but only bn_grouping = 2d", id="tile-1d"),
    pytest.param(_toy("tile_cols = 4"), 2, "^error: tile_cols given", id="tile_cols-1d"),
    # Keys this release removed, and the other bad-config cases.
    pytest.param(_toy("grid_rows = 2\ngrid_cols = 4"), 2, "unknown key 'grid_rows'",
                 id="grid-removed"),
    pytest.param(_train("nonsense = 1\n"), 2, "unknown key 'nonsense'", id="unknown-key"),
    pytest.param(_train("seed = 1\nseed = 2\n"), 2, "duplicate key 'seed'", id="duplicate"),
    pytest.param(_train("num_replicas = eight\n"), 2, "cannot parse 'eight' as int",
                 id="bad-int"),
    pytest.param(_train(""), 2, "required keys missing", id="empty"),
    pytest.param(_train("preset = toy-rmsprop-512\n"), 2, "required keys missing: dataset",
                 id="no-dataset"),
    pytest.param(_train("preset = b9-sgd-1\ndataset = synthetic\n"), 2, "unknown preset",
                 id="unknown-preset"),
    pytest.param(_toy("bn_group_size = 3"), 2, "divide", id="group-size"),
    pytest.param(_toy("eval_every_epochs = 1.5"), 2, "eval_every_epochs", id="eval-every"),
    pytest.param(_toy("total_epochs = inf"), 2, "total_epochs", id="total-epochs-inf"),
    pytest.param(_toy("bn_momentum = nan"), 2, "unknown key 'bn_momentum'",
                 id="bn-momentum-nan"),
    pytest.param(_out_in_missing_directory("--weights-out"), 2, "does not exist",
                 id="weights-out-nodir"),
    # Caught before training, which would otherwise run to its end first.
    pytest.param(_out_is_a_directory("--out"), 2, "--out .*/d is a directory",
                 id="out-is-a-directory"),
    pytest.param(_out_is_a_directory("--weights-out"), 2, "--weights-out .*/d is a directory",
                 id="weights-out-is-a-directory"),
    pytest.param(_toy("bn_grouping = 2d\ntile_rows = 0\ntile_cols = 8"), 2,
                 "^error: tile 0x8 must evenly divide grid 2x4", id="tile_rows-0-2d"),
    pytest.param(_eval_weights_of_another_model, 2, "conv2/kernel", id="eval-other-model"),
    pytest.param(_eval_weights_file("w.npz", b"not an archive\n"), 2, "is not an npz archive",
                 id="eval-not-npz"),
    pytest.param(_bench("b2,128,4096,inf,2.1"), 2, "finite throughput > 0",
                 id="bench-throughput-inf"),
    pytest.param(lambda tmp_path: ["bench", "--table", str(tmp_path / "absent.csv")], 2,
                 "No such file", id="bench-no-table"),
    pytest.param(_gradcheck("nan"), 2, "grad_check eps must be finite", id="eps-nan"),
    pytest.param(_gradcheck("abc"), 1, "invalid float value: 'abc'", id="eps-abc"),
    pytest.param(lambda tmp_path: ["train", "--config", "x.cfg"], 1,
                 "required: --out", id="no-out"),
    pytest.param(lambda tmp_path: ["explode"], 1, "invalid choice", id="no-command"),
    # Malformed bench tables, and an IDX pair that holds no images.
    pytest.param(_bench("b2,128,4096,57.57"), 2, "rows.csv line 2 has 4 fields, but its "
                 "header has 5", id="bench-short-row"),
    pytest.param(_bench("b2,128,4096,57.57,2.1,9"), 2, "line 2 has 6 fields",
                 id="bench-long-row"),
    pytest.param(_bench_table("model,cores,global_batch,throughput,allreduce_pct\n"), 2,
                 "rows.csv has no rows", id="bench-no-rows"),
    pytest.param(_bench("b2,128,4096,1e-308,2.1"), 2,
                 "global_batch / throughput of inf, which is not finite",
                 id="bench-step-time-inf"),
    pytest.param(_bench("b2,1,1,1e308,2.1"), 2,
                 r"row \(1, 1, 1e\+308, 2.1\) .* too small or too large for the relative fit",
                 id="bench-compute-weight-overflows"),
    pytest.param(_bench("b2,1,1,1e300,0"), 2,
                 r"row \(1, 1, 1e\+300, 0.0\) .* too small or too large for the relative fit",
                 id="bench-compute-square-underflows"),
    pytest.param(_bench("b2,2,2,2,1e-320"), 2,
                 "all-reduce time of 1e-322 ms, too small or too large for the relative fit",
                 id="bench-allreduce-weight-overflows"),
    pytest.param(_bench("b2,1," + "1" + "0" * 400 + ",1,0"), 2,
                 "global_batch / throughput of inf, which is not finite",
                 id="bench-batch-beyond-float"),
    pytest.param(_idx_of_zero_images, 2, "i.idx: holds no images", id="idx-zero-images"),
    pytest.param(_gradcheck_on_three_examples, 0, None, id="gradcheck-3-examples"),
    # Rejections no other test reaches through cli.main.
    pytest.param(_toy("bn_grouping = 3d"), 2, "bn_grouping must be 1d or 2d, got '3d'",
                 id="bn_grouping-3d"),
    pytest.param(_toy("decay = exponential"), 2, "line 3: unknown key 'decay'",
                 id="decay-removed"),
    pytest.param(_train("preset = toy-rmsprop-512\ndataset = nope\n"), 2,
                 "unknown dataset spec 'nope'", id="dataset-nope"),
    pytest.param(_train("preset = toy-rmsprop-512\ndataset = idx:a\n"), 2,
                 "idx dataset must be idx:train_images,train_labels", id="dataset-idx-a"),
    pytest.param(_train("foo\n"), 2, "line 1: expected 'key = value', got 'foo'",
                 id="line-without-equals"),
    pytest.param(_train("seed =\n"), 2, "key 'seed' has no value", id="seed-no-value"),
    pytest.param(_toy("global_batch = 16384"), 2,
                 r"dataset of 8192 examples is smaller than one global batch \(16384\)",
                 id="global_batch-beyond-dataset"),
    pytest.param(lambda tmp_path: ["train", "--config", str(tmp_path),
                                   "--out", str(tmp_path / "m.csv")], 2,
                 "cannot read config", id="config-is-a-directory"),
    pytest.param(_eval_weights(lambda a: {**a, _KERNEL: a[_KERNEL][..., :1]}), 2,
                 f"hold {_KERNEL} with shape .*; the model needs", id="eval-wrong-shape"),
    pytest.param(_eval_weights(lambda a: {**a, "param/extra": np.zeros(1)}), 2,
                 "hold param/extra, which the model lacks", id="eval-extra-array"),
    pytest.param(_eval_weights(lambda a: a[_KERNEL]), 2, r"w\.npy is not an npz archive",
                 id="eval-lone-npy"),
    pytest.param(_eval_weights(_set_element("bn_var/bn1", np.nan)), 2,
                 "hold bn_var/bn1 with the non-finite value nan at flat index 3",
                 id="eval-nan-variance"),
    pytest.param(_eval_weights(_set_element(_KERNEL, np.inf)), 2,
                 f"hold {_KERNEL} with the non-finite value inf at flat index 3",
                 id="eval-inf-kernel"),
    pytest.param(_eval_weights(lambda a: {**a, _KERNEL: a[_KERNEL].astype(str)}), 2,
                 rf"hold {_KERNEL} as <U\d+; the model needs float32", id="eval-unicode-kernel"),
    pytest.param(_eval_weights(
        lambda a: {**a, _KERNEL: np.array([1, "x", None], dtype=object)}), 2,
        f"hold {_KERNEL} as an object array; the model needs float32",
        id="eval-object-kernel"),
    pytest.param(_eval_weights_with_member(_KERNEL, b"\x93NUMPY\x01\x00not a header"), 2,
                 f"hold {_KERNEL} as a damaged array; the model needs float32",
                 id="eval-damaged-npy-header"),
    pytest.param(_eval_weights_with_member(_KERNEL, b"no npy magic"), 2,
                 f"hold {_KERNEL} as a damaged array; the model needs float32",
                 id="eval-member-without-npy-magic"),
    pytest.param(_eval_weights_with_entry(_KERNEL, 10, 99), 2,
                 f"hold {_KERNEL} as a damaged array; the model needs float32",
                 id="eval-member-compression-method-99"),
    pytest.param(_eval_weights_with_entry(_KERNEL, 8, 1), 2,
                 f"hold {_KERNEL} as a damaged array; the model needs float32",
                 id="eval-member-encrypted"),
    # npy headers that claim 256 GiB: rejected before any data is allocated.
    pytest.param(
        _eval_weights_file("w.npz", _npz_of({f"{_KERNEL}.npy": _npy_claiming((2**36,))})), 2,
        rf"hold {_KERNEL} with shape \(68719476736,\); the model needs \(3, 3, 1, 8\)",
        id="eval-npz-header-claims-256GiB"),
    pytest.param(_eval_weights_file("w.npy", _npy_claiming((2**36,))), 2,
                 r"w\.npy is not an npz archive", id="eval-lone-npy-claims-256GiB"),
    pytest.param(_toy("total_epochs = 1e308"), 2,
                 r"total_epochs 1e\+308 at 16 steps per epoch is inf steps, which overflows",
                 id="total-epochs-1e308"),
] + [pytest.param(_train(f"preset = {preset}\ndataset = synthetic\n{line}\n"), 2, pattern,
                  id=f"{preset}:{line}")
      for preset, line, pattern, *_ in _BAD_VALUES + _FIXED_KEY_ERRORS]


@pytest.mark.parametrize("build,code,pattern", _TABLE)
def test_cli_bad_input_table(tmp_path, capsys, build, code, pattern):
    argv = build(tmp_path)
    capsys.readouterr()
    try:
        got = main(argv)
    except (Exception, SystemExit) as e:  # main returns its exit codes
        pytest.fail(f"{type(e).__name__} escaped cli.main: {e}")
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error: " in line]
    assert got == code, err
    assert len(errors) == (code != 0), err
    assert "Traceback" not in err
    if pattern is not None:
        assert re.search(pattern, errors[0]), err
