"""Command-line surface: analyze, synth, split, train, eval, predict.

Exit codes: 0 success, 1 usage error, 2 runtime error. Every run echoes
its resolved settings to stderr before acting; primary results go to
stdout. `--threads` sets the size of the thread pool that `train`, `eval`
and `predict` run their chunks of images on (default and upper bound: the
usable cores); results do not depend on it. `train`, `eval`, `analyze`
and `split` check their outputs before they read any input, and `synth`
checks its `--out` before it generates any image.

Importing this module pins BLAS to one thread, so that pool threads do not
oversubscribe the cores: it sets `OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS`
and `MKL_NUM_THREADS` to 1, then imports the library, which loads numpy.
BLAS reads them only when numpy loads, so the pin holds when this module is
imported before numpy, as by `python -m scenemixer` and the `scenemixer`
script. A program that imports numpy first and then calls `main` must set
the three variables itself before that import.

Importing it also sets glibc's `mallopt` thresholds (`_keep_freed_memory`),
so that the buffers a train step frees serve the next step instead of going
back to the kernel and being faulted in again. The process's RSS then stays
near its peak between commands. Where the C library has no `mallopt`, as on
macOS and Windows, nothing is set. README gives the measured costs of both.
"""

import argparse
import ctypes
import errno
import os
import sys

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))


def _keep_freed_memory():
    """Have glibc's malloc keep freed activation-size buffers in the process.

    Both thresholds must be set: setting either one alone turns off glibc's
    dynamic mmap threshold, which faulted more than setting neither. A no-op
    where the C library has no `mallopt`, as on macOS and Windows.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # Windows: no CDLL(None); macOS: no mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks up to 32 MiB come from the heap, not mmap
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: the heap top returns to the kernel only past 256 MiB


_keep_freed_memory()

# handlers call through these module objects, so that a tracer or probe that
# replaces a module attribute sees every call
from . import analyzer, data as data_mod, metrics as metrics_mod, model as model_mod, train as train_mod  # noqa: E402
from .fileio import check_writable, replaced_file, write_atomic  # noqa: E402

_BUILTIN_CONFIGS = {
    "eurosat-default": model_mod.ModelConfig.eurosat_default,
    "aid-default": model_mod.ModelConfig.aid_default,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _echo_settings(args):
    for key, value in vars(args).items():
        if key not in ("func", "command"):
            print(f"resolved: {key}={value}", file=sys.stderr)


def _resolve_threads(threads):
    """The pool size of --threads: the usable cores when None, and never more than them."""
    if threads is not None and threads < 1:
        raise _UsageError(f"--threads must be >= 1, got {threads}")
    # only some platforms, such as Linux, have sched_getaffinity
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cores if threads is None else min(threads, cores)


def _resolve_model_config(spec: str):
    """(ModelConfig, class names or None) of a builtin config name or a config file."""
    if spec in _BUILTIN_CONFIGS:
        return _BUILTIN_CONFIGS[spec](), None
    if not os.path.isfile(spec):
        raise FileNotFoundError(f"config {spec!r} is neither a file nor one of {sorted(_BUILTIN_CONFIGS)}")
    with open(spec, "r", encoding="utf-8") as fh:
        return model_mod.parse_config_text(fh.read())


def _check_outputs(args, outputs, inputs=()):
    """Refuse, before any input is read, an output that `write_atomic` could not write,
    that lies under the `--data` root, or that is the same file as another output
    or as an input the command reads.

    `outputs` and `inputs` name options of `args`; an unset one is skipped, and
    so is a builtin config name. Outputs written in place, such as `/dev/stdout`,
    may repeat: only a file that `write_atomic` replaces can be lost.
    """
    data = getattr(args, "data", None)
    root = data and os.path.realpath(data)
    seen = {}
    for opt in (*inputs, *outputs):
        path = getattr(args, opt)
        if path is None or (opt == "config" and path in _BUILTIN_CONFIGS):
            continue
        if opt in outputs:
            check_writable(path)
            if root and os.path.commonpath([os.path.realpath(path), root]) == root:
                # it would replace a dataset file, or add one that the next load of the tree meets
                raise ValueError(f"--{opt} {path!r} lies inside --data {data!r}")
        target = replaced_file(path)
        if target is None:
            continue
        key = (target[1].st_dev, target[1].st_ino) if target[1] else os.path.realpath(path)
        if key in seen:
            raise ValueError("--{} {!r} is the same file as --{} {!r}".format(opt, path, *seen[key]))
        seen[key] = opt, path


def _load_split_dataset(data_root, manifest_path, seed, num_classes, class_names=None):
    """The dataset at data_root, split by the manifest or else by seed. Raises
    ValueError unless it has num_classes class folders, named class_names in order if given."""
    manifest = data_mod.load_dataset(data_root)
    folders = manifest.class_names
    if class_names and folders != class_names:
        # both lists may come from outside the program: quote a bounded excerpt of each
        at = next((i for i, (a, b) in enumerate(zip(folders, class_names)) if a != b),
                  min(len(folders), len(class_names)))
        raise ValueError(f"dataset class folders {data_mod.excerpt_list(folders)} do not match the model's "
                         f"classes {data_mod.excerpt_list(class_names)}: they first differ at index {at}")
    if manifest.num_classes != num_classes:
        raise ValueError(f"dataset class folders {data_mod.excerpt_list(folders)} do not match the model's "
                         f"{num_classes} classes")
    if manifest_path:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            data_mod.apply_split_csv(manifest, fh.read())
    else:
        data_mod.stratified_split(manifest, data_mod.SplitSpec(seed=seed))
    return manifest


def _cmd_analyze(args):
    _check_outputs(args, ("csv",), inputs=("config",))
    config, _ = _resolve_model_config(args.config)
    report = analyzer.cost_report(config, trainable_only=args.trainable_only)
    sys.stdout.write(analyzer.format_report(report, config))
    if args.csv:
        write_atomic(args.csv, [analyzer.report_to_csv(report).encode("utf-8")])
    return 0


def _cmd_synth(args):
    # refuse, before any image is generated, an --out under which write_dataset could make no folder
    existing = os.path.abspath(args.out)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), existing)
    manifest = data_mod.synth_generate(args.classes, args.per_class, side=args.side, seed=args.seed)
    data_mod.write_dataset(manifest, args.out)
    print(f"wrote {len(manifest.samples)} images in {manifest.num_classes} classes under {args.out}")
    return 0


def _cmd_split(args):
    _check_outputs(args, ("out",))
    manifest = data_mod.load_dataset(args.data)
    data_mod.stratified_split(manifest, data_mod.SplitSpec(seed=args.seed))
    write_atomic(args.out, [data_mod.manifest_to_csv(manifest).encode("utf-8")])
    counts = {s: sum(manifest.per_class_counts(s)) for s in ("train", "val", "test")}
    print(f"split {len(manifest.samples)} samples: {counts['train']} train, "
          f"{counts['val']} val, {counts['test']} test -> {args.out}")
    return 0


def _check_rgb_input(config):
    """Raise ValueError unless the model reads 3 channels: PPM pixels are always RGB."""
    if config.input_c != 3:
        raise ValueError(f"the model reads {config.input_c}-channel input, but PPM images are 3-channel RGB")


def _cmd_train(args):
    cfg = train_mod.TrainConfig(
        epochs=args.epochs, batch_size=args.batch, seed=args.seed, lr_init=args.lr
    )
    cfg.validate()  # before the dataset is read
    _check_outputs(args, ("out", "history"), inputs=("config", "manifest"))
    config, class_names = _resolve_model_config(args.config)
    _check_rgb_input(config)
    manifest = _load_split_dataset(args.data, args.manifest, args.seed, config.num_classes, class_names)
    train_xy = data_mod.split_arrays(manifest, "train", config.input_h, config.input_w)
    val_xy = data_mod.split_arrays(manifest, "val", config.input_h, config.input_w)
    net = model_mod.build(config, seed=args.seed)
    net.class_names = manifest.class_names
    log = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    net, history = train_mod.fit(net, train_xy, val_xy, cfg, log=log)
    model_mod.save(net, args.out)
    if args.history:
        write_atomic(args.history, [history.to_csv().encode("utf-8")])
    best = history.records[history.best_epoch - 1]
    print(f"best epoch {history.best_epoch}: val oa {best.val_oa:.4f}; saved {args.out}")
    return 0


def _cmd_eval(args):
    _check_outputs(args, ("confusion", "metrics"), inputs=("model", "manifest"))
    net = model_mod.load(args.model)
    _check_rgb_input(net.config)
    manifest = _load_split_dataset(args.data, args.manifest, args.seed, net.config.num_classes, net.class_names)
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
    net = model_mod.load(args.model)
    _check_rgb_input(net.config)
    img = data_mod.load_image(args.image, net.config.input_h, net.config.input_w)
    label = int(model_mod.predict(net, img[None, :, :, :])[0])
    names = net.class_names or [f"class_{i}" for i in range(net.config.num_classes)]
    print(names[label])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scenemixer", description="Convolutional mixer scene classifier toolkit")
    common = _Parser(add_help=False)
    common.add_argument("--threads", type=int, default=None,
                        help="threads that train, eval and predict run their chunks of images on (default "
                             "and upper bound: the usable cores); BLAS runs on one; no output depends on it")
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
        args.threads = _resolve_threads(args.threads)
        if getattr(args, "seed", 0) < 0:
            raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if not exc.code else 1
    try:
        _echo_settings(args)
        with model_mod.use_threads(args.threads):
            return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
