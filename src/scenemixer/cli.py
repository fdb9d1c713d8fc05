"""Command-line surface: analyze, synth, split, train, eval, predict.

Exit codes: 0 success, 1 usage error, 2 runtime error. Every run echoes
its resolved settings to stderr before acting; primary results go to
stdout. `--threads` caps BLAS parallelism (results do not depend on it)
and must therefore be applied before numpy is first imported, which is
why the implementation modules are imported inside the handlers.
"""

import argparse
import os
import sys

from .fileio import write_atomic


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _echo_settings(args):
    for key, value in vars(args).items():
        if key not in ("func", "command"):
            print(f"resolved: {key}={value}", file=sys.stderr)


def _apply_threads(threads):
    if threads is None:
        return
    if threads < 1:
        raise _UsageError(f"--threads must be >= 1, got {threads}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _resolve_model_config(spec: str):
    from . import model as model_mod

    builtin = {
        "eurosat-default": model_mod.ModelConfig.eurosat_default,
        "aid-default": model_mod.ModelConfig.aid_default,
    }
    if spec in builtin:
        return builtin[spec]()
    if not os.path.isfile(spec):
        raise FileNotFoundError(f"config {spec!r} is neither a file nor one of {sorted(builtin)}")
    with open(spec, "r", encoding="utf-8") as fh:
        config, _ = model_mod.parse_config_text(fh.read())
    return config


def _load_split_dataset(data_root, manifest_path, seed):
    from . import data as data_mod

    manifest = data_mod.load_dataset(data_root)
    if manifest_path:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            data_mod.apply_split_csv(manifest, fh.read())
    else:
        data_mod.stratified_split(manifest, data_mod.SplitSpec(seed=seed))
    return manifest


def _cmd_analyze(args):
    from . import analyzer

    config = _resolve_model_config(args.config)
    report = analyzer.cost_report(config, trainable_only=args.trainable_only)
    sys.stdout.write(analyzer.format_report(report, config))
    if args.csv:
        write_atomic(args.csv, [analyzer.report_to_csv(report).encode("utf-8")])
    return 0


def _cmd_synth(args):
    from . import data as data_mod

    manifest = data_mod.synth_generate(args.classes, args.per_class, side=args.side, seed=args.seed)
    data_mod.write_dataset(manifest, args.out)
    print(f"wrote {len(manifest.samples)} images in {manifest.num_classes} classes under {args.out}")
    return 0


def _cmd_split(args):
    from . import data as data_mod

    manifest = data_mod.load_dataset(args.data)
    data_mod.stratified_split(manifest, data_mod.SplitSpec(seed=args.seed))
    write_atomic(args.out, [data_mod.manifest_to_csv(manifest).encode("utf-8")])
    counts = {s: sum(manifest.per_class_counts(s)) for s in ("train", "val", "test")}
    print(f"split {len(manifest.samples)} samples: {counts['train']} train, "
          f"{counts['val']} val, {counts['test']} test -> {args.out}")
    return 0


def _cmd_train(args):
    from . import data as data_mod
    from . import model as model_mod
    from . import train as train_mod

    config = _resolve_model_config(args.config)
    manifest = _load_split_dataset(args.data, args.manifest, args.seed)
    if manifest.num_classes != config.num_classes:
        raise ValueError(
            f"dataset has {manifest.num_classes} classes but config expects {config.num_classes}"
        )
    train_xy = data_mod.split_arrays(manifest, "train", config.input_h, config.input_w)
    val_xy = data_mod.split_arrays(manifest, "val", config.input_h, config.input_w)
    net = model_mod.build(config, seed=args.seed)
    net.class_names = manifest.class_names
    cfg = train_mod.TrainConfig(
        epochs=args.epochs, batch_size=args.batch, seed=args.seed, lr_init=args.lr
    )
    log = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    net, history = train_mod.fit(net, train_xy, val_xy, cfg, log=log)
    model_mod.save(net, args.out)
    if args.history:
        history.save_csv(args.history)
    best = history.records[history.best_epoch - 1]
    print(f"best epoch {history.best_epoch}: val oa {best.val_oa:.4f}; saved {args.out}")
    return 0


def _cmd_eval(args):
    from . import data as data_mod
    from . import metrics as metrics_mod
    from . import model as model_mod

    net = model_mod.load(args.model)
    manifest = _load_split_dataset(args.data, args.manifest, args.seed)
    if manifest.num_classes != net.config.num_classes:
        raise ValueError(
            f"dataset has {manifest.num_classes} classes but model expects {net.config.num_classes}"
        )
    x, y = data_mod.split_arrays(manifest, args.split, net.config.input_h, net.config.input_w)
    pred = model_mod.predict(net, x)
    cm = metrics_mod.confusion(y, pred, manifest.num_classes, class_names=manifest.class_names)
    summary = metrics_mod.metrics_summary(cm)
    print(f"OA: {summary['OA'] * 100:.2f}%")
    print(f"AA: {summary['AA'] * 100:.2f}%")
    print(f"AA_eq2: {summary['AA_eq2'] * 100:.2f}%")
    print(f"kappa x100: {summary['kappa_x100']:.2f}")
    if args.confusion:
        write_atomic(args.confusion, [metrics_mod.confusion_to_csv(cm).encode("utf-8")])
    if args.metrics:
        write_atomic(args.metrics, [metrics_mod.metrics_to_csv(cm).encode("utf-8")])
    return 0


def _cmd_predict(args):
    from . import data as data_mod
    from . import model as model_mod

    net = model_mod.load(args.model)
    img = data_mod.load_image(args.image, net.config.input_h, net.config.input_w)
    label = int(model_mod.predict(net, img[None, :, :, :])[0])
    names = net.class_names or [f"class_{i}" for i in range(net.config.num_classes)]
    print(names[label])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scenemixer", description="Convolutional mixer scene classifier toolkit")
    common = _Parser(add_help=False)
    common.add_argument("--threads", type=int, default=None, help="cap BLAS thread count")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="per-layer parameter/MAC/FLOP report")
    p.add_argument("--config", required=True, help="config file, or eurosat-default / aid-default")
    p.add_argument("--csv", default=None, help="also write the table as CSV")
    p.add_argument("--trainable-only", action="store_true", help="exclude BN running statistics")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic PPM dataset tree")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True, dest="per_class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--side", type=int, default=64)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("split", parents=[common], help="write a stratified 70/15/15 split manifest")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", parents=[common], help="train and save the best checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--out", required=True)
    p.add_argument("--history", default=None, help="write per-epoch CSV here")
    p.add_argument("--manifest", default=None, help="use split assignments from this CSV")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[common], help="score a checkpoint on one split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--manifest", default=None)
    p.add_argument("--confusion", default=None, help="write the confusion matrix CSV here")
    p.add_argument("--metrics", default=None, help="write the metrics CSV here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", parents=[common], help="classify one PPM image")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.set_defaults(func=_cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_threads(args.threads)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if not exc.code else 1
    try:
        _echo_settings(args)
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
