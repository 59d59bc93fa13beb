"""Command-line surface: train, eval, gradcheck, bench, presets.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import perfmodel, trainer
from .config import ConfigError, parse_config, presets_table
from .data import as_float32
from .model import build_model, grad_check, init_params
from .rng import stream

USAGE_ERROR = 1
RUNTIME_ERROR = 2

GRADCHECK_THRESHOLD = 1e-3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this CLI reserves 2 for runtime errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="minipod",
                description="Desk-scale data-parallel training simulator")
    sub = p.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="run training and write a metrics CSV")
    tr.add_argument("--config", required=True, type=Path)
    tr.add_argument("--out", required=True, type=Path, help="metrics CSV path")
    tr.add_argument("--weights-out", type=Path, help="final weights (.npz)")

    ev = sub.add_parser("eval", help="distributed evaluation of saved weights")
    ev.add_argument("--weights", required=True, type=Path)
    ev.add_argument("--config", required=True, type=Path)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient check")
    gc.add_argument("--config", required=True, type=Path)
    gc.add_argument("--eps", type=float, default=1e-3)

    be = sub.add_parser("bench", help="calibrate the cost model on benchmark rows")
    be.add_argument("--table", required=True, type=Path,
                    help="CSV: model,cores,global_batch,throughput,allreduce_pct")
    be.add_argument("--out", type=Path, help="output CSV (default stdout)")

    sub.add_parser("presets", help="list the preset catalog")
    return p


def _read_config(path: Path) -> trainer.TrainConfig:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config(text)


def _cmd_train(args) -> int:
    config = _read_config(args.config)
    # Checked before any data is read, so a bad path fails before training.
    for flag, path in (("--out", args.out), ("--weights-out", args.weights_out)):
        if path is not None and path.is_dir():
            raise ValueError(f"{flag} {path} is a directory")
        if path is not None and not path.parent.is_dir():
            raise ValueError(f"{flag} {path}: directory {path.parent} does not exist")
    records, state = trainer.run(config)
    trainer.write_metrics_csv(records, args.out)
    if args.weights_out:
        trainer.save_weights(state, args.weights_out)
    print(f"replicas {config.num_replicas}, global batch {config.global_batch}, "
          f"bn batch {config.bn_groups.shape[1] * config.per_core_batch}")
    evals = [r.eval_top1 for r in records if r.eval_top1 is not None]
    if evals:
        peak, minutes = trainer.time_to_peak(records)
        print(f"final top-1 {evals[-1]:.4f}, peak {peak:.4f} "
              f"at modeled minute {minutes:.2f}")
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    config = _read_config(args.config)
    train_ds, eval_ds = trainer.build_datasets(config)
    layers = build_model(config.model, train_ds.num_classes)
    params, bn_moving = trainer.load_weights(
        args.weights, layers, eval_ds.images.shape[1:])
    top1 = trainer.distributed_eval(
        layers, params, bn_moving, eval_ds, config.num_replicas,
        config.eval_batch_for(len(eval_ds)), config.policy)
    print(f"top1 {top1:.6f} over {len(eval_ds)} examples "
          f"on {config.num_replicas} replicas")
    return 0


def _cmd_gradcheck(args) -> int:
    config = _read_config(args.config)
    train_ds, _ = trainer.build_datasets(config)
    layers = build_model(config.model, train_ds.num_classes)
    # A small slice keeps the element-by-element perturbation affordable.
    rng = stream(config.seed, "gradcheck")
    idx = rng.choice(len(train_ds), size=min(4, len(train_ds)), replace=False)
    x = as_float32(train_ds.images[idx])
    labels = train_ds.labels[idx]
    params = init_params(layers, x.shape[1:], config.seed)
    err = grad_check(layers, params, x, labels, eps=args.eps)
    print(f"gradcheck max relative error {err:.3e} (threshold {GRADCHECK_THRESHOLD})")
    if err >= GRADCHECK_THRESHOLD:
        print("gradcheck FAILED", file=sys.stderr)
        return RUNTIME_ERROR
    return 0


def _cmd_bench(args) -> int:
    by_model: dict[str, list] = {}
    with open(args.table, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        need = {"model", "cores", "global_batch", "throughput", "allreduce_pct"}
        if header is None or not need.issubset(header):
            raise ValueError(
                f"bench table must have columns {sorted(need)}, got {header}")
        for fields in reader:
            if not fields:  # a blank line
                continue
            if len(fields) != len(header):
                raise ValueError(
                    f"bench table {args.table} line {reader.line_num} has "
                    f"{len(fields)} fields, but its header has {len(header)}")
            row = dict(zip(header, fields))
            by_model.setdefault(row["model"], []).append(
                (int(row["cores"]), int(row["global_batch"]),
                 float(row["throughput"]), float(row["allreduce_pct"])))
    if not by_model:
        raise ValueError(f"bench table {args.table} has no rows")

    out_lines = ["model,per_image_compute_ms,link_bandwidth_bytes_per_ms,"
                 "per_hop_latency_ms,cores,global_batch,pred_throughput,"
                 "pred_allreduce_pct"]
    for mname, rows in sorted(by_model.items()):
        fitted = perfmodel.calibrate(rows)
        for n, batch, _, _ in rows:
            thr, frac = perfmodel.predict(fitted, n, batch)
            out_lines.append(
                f"{mname},{fitted.per_image_compute_ms!r},"
                f"{fitted.link_bandwidth_bytes_per_ms!r},"
                f"{fitted.per_hop_latency_ms!r},{n},{batch},{thr!r},{frac!r}")
    text = "\n".join(out_lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote calibration for {len(by_model)} model(s) to {args.out}")
    else:
        print(text, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "gradcheck":
            return _cmd_gradcheck(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "presets":
            print(presets_table())
            return 0
        raise AssertionError(f"unhandled command {args.command}")
    # ConfigError is a ValueError; FloatingPointError is grad_check's non-finite loss.
    except (ValueError, RuntimeError, OSError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
