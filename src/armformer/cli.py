"""Command-line entry point: synth, train, eval, infer, bench, gradcheck.

Exit codes: 0 success, 1 usage, 2 I/O or file-format failure, 3 validation
or contract failure.  Every failure prints a one-line diagnostic to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data as D
from .errors import (ArmFormerError, CheckpointError, ConfigError, ContractError,
                     DataError, NetpbmError)
from .gradcheck import gradient_suites
from .metrics import ConfusionMatrix, compute_metrics, format_report, report_lines
from .model import (ArmFormer, checkpoint_load, checkpoint_save, config_from_flat,
                    fit, parse_flat_text, schedule_from_flat)
from .profiler import count_flops, measure_fps
from .tensor import Tensor


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="armformer", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True, help="dataset root to create")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--size", type=int, default=64, help="square image size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--splits", default="0.7,0.15,0.15",
                   help="train,val,test fractions")

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--config", required=True, help="flat-text config file")
    p.add_argument("--data", required=True, help="dataset root")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", default=None, help="history log path (default <out>.log)")
    p.add_argument("--steps", type=int, default=None, help="override train.steps")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--no-background", action="store_true",
                   help="exclude the background class from the means")

    p = sub.add_parser("infer", help="segment one PPM image into a PGM mask")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="report complexity and speed")
    p.add_argument("--config", default=None, help="flat-text config file")
    p.add_argument("--ckpt", default=None, help="checkpoint to benchmark instead")
    p.add_argument("--size", type=int, default=None, help="input size override")
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--no-speed", action="store_true", help="complexity only")

    p = sub.add_parser("gradcheck", help="run the gradient verification suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    # a missing/unreadable file surfaces as OSError -> exit code 2
    try:
        return parse_flat_text(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text ({exc})") from None


def _cmd_synth(args) -> int:
    try:
        fractions = tuple(float(v) for v in args.splits.split(","))
    except ValueError:
        raise UsageError(f"bad --splits value {args.splits!r}") from None
    if len(fractions) != 3:
        raise UsageError("--splits needs three comma-separated fractions")
    samples = D.synth_dataset(args.seed, args.n, args.size)
    D.save_dataset(samples, args.out, split_fractions=fractions)
    counts = {s: len((Path(args.out) / "splits" / f"{s}.txt")
                     .read_text().split()) for s in ("train", "val", "test")}
    print(f"wrote {args.n} samples ({args.size}x{args.size}) to {args.out} "
          f"[train={counts['train']} val={counts['val']} test={counts['test']}]")
    return 0


def _eval_model(model: ArmFormer, dataset: D.SegDataset,
                include_background: bool = True):
    cm = ConfusionMatrix(model.config.num_classes)
    for i in range(len(dataset)):
        image, labels = dataset[i]
        pred = model.predict(Tensor(image[None]))[0]
        cm.update(pred, labels)
    return cm, compute_metrics(cm, include_background, D.CLASS_NAMES)


def _cmd_train(args) -> int:
    entries = _load_config_file(args.config)
    if args.steps is not None:
        entries["train.steps"] = str(args.steps)
    config = config_from_flat(entries)
    sched = schedule_from_flat(entries)  # validated before the data and the model
    dataset = D.SegDataset(Path(args.data), "train", config.input_size)
    if len(dataset) == 0:
        raise DataError(f"train split of {args.data} is empty")
    train_data = dataset.load_all()

    eval_fn = None
    if sched.eval_every:
        try:
            val = D.SegDataset(Path(args.data), "val", config.input_size)
        except DataError:
            val = None
        if val is not None and len(val):
            def eval_fn(m, _val=val):
                _, rep = _eval_model(m, _val)
                return {"miou": rep.miou, "macc": rep.macc, "mfscore": rep.mfscore}

    model = ArmFormer(config)
    log_path = Path(args.log) if args.log else Path(str(args.out) + ".log")
    lines: list[str] = []

    def log_fn(entry):
        line = f"step={entry.step} loss={entry.loss:.6f}"
        if entry.metrics:
            line += "".join(f" {k}={v:.4f}" for k, v in entry.metrics.items())
        lines.append(line)

    history = fit(model, train_data, sched, eval_fn=eval_fn, log_fn=log_fn)
    log_path.parent.mkdir(parents=True, exist_ok=True)
    log_path.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_bytes(checkpoint_save(model))
    print(f"trained {sched.steps} steps; final loss {history[-1].loss:.6f}; "
          f"checkpoint -> {args.out}; log -> {log_path}")
    return 0


def _read_checkpoint(path: str) -> ArmFormer:
    p = Path(path)
    if not p.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    return checkpoint_load(p.read_bytes())


def _cmd_eval(args) -> int:
    model = _read_checkpoint(args.ckpt)
    dataset = D.SegDataset(Path(args.data), args.split, model.config.input_size)
    if len(dataset) == 0:
        raise DataError(f"split {args.split!r} of {args.data} is empty")
    cm, report = _eval_model(model, dataset, not args.no_background)
    print(format_report(report))
    print()
    print(report_lines(report))
    print(f"pixel_accuracy={cm.pixel_accuracy():.6f}")
    return 0


def _cmd_infer(args) -> int:
    model = _read_checkpoint(args.ckpt)
    image = D.read_ppm(args.image)
    h0, w0 = image.shape[:2]
    size = model.config.input_size
    pred = model.predict(Tensor(D.image_to_input(image, size)[None]))[0]
    if (h0, w0) != (size, size):
        pred = D.resize_nearest(pred, h0, w0)
    D.write_pgm(args.out, D.encode_mask(pred))
    print(f"wrote mask {args.out} ({w0}x{h0})")
    return 0


def _cmd_bench(args) -> int:
    if args.ckpt:
        model = _read_checkpoint(args.ckpt)
    else:
        entries = _load_config_file(args.config) if args.config else {}
        model = ArmFormer(config_from_flat(entries))
    size = model.config.input_size if args.size is None else args.size
    report = count_flops(model, (size, size))
    # measure before printing, so a bad --warmup/--iters leaves stdout empty
    speed = None if args.no_speed else measure_fps(model, (size, size), warmup=args.warmup,
                                                   iters=args.iters)
    print(report)
    print()
    print(report.key_values())
    if speed is not None:
        print()
        print(speed)
        print(speed.key_values())
    return 0


def _cmd_gradcheck(args) -> int:
    worst = 0.0
    failed = False
    for name, report in gradient_suites(args.level):
        state = "PASS" if report.passed else "FAIL"
        print(f"{name:<20s} {state}  max_rel_err={report.max_rel_error:.3e} "
              f"({report.checked_coords} coords)")
        worst = max(worst, report.max_rel_error)
        failed = failed or not report.passed
    if failed:
        raise ContractError(f"gradient check failed (worst rel err {worst:.3e})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required "
                  "(synth|train|eval|infer|bench|gradcheck)", file=sys.stderr)
            return 1
        if args.command == "bench" and not (args.config or args.ckpt):
            raise UsageError("bench needs --config or --ckpt")
        handler = {"synth": _cmd_synth, "train": _cmd_train, "eval": _cmd_eval,
                   "infer": _cmd_infer, "bench": _cmd_bench,
                   "gradcheck": _cmd_gradcheck}[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (NetpbmError, CheckpointError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ArmFormerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
