import concurrent.futures
import errno
import os
import pathlib
import re
import shlex
import subprocess
import sys
import threading

import numpy as np
import pytest

from scenemixer import cli
from scenemixer import data as dm
from scenemixer import layers
from scenemixer import model as sm

from conftest import ROOT, run_with_file_size_limit, src_env

TINY_CONFIG_TEXT = """\
input=16x16x3
patch=4
embed_dim=8
depth=1
kernels=3,5
merge=sum
num_classes=3
bn_eps=0.001
bn_momentum=0.99
residual=false
"""


def run_inproc(args):
    return cli.main(args)


def run_subproc(args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "scenemixer", *args],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=300,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"{args} failed ({proc.returncode}):\n{proc.stderr}")
    return proc


@pytest.fixture
def tiny_dataset(tmp_path):
    root = tmp_path / "scenes"
    manifest = dm.synth_generate(3, 12, side=16, seed=5)
    dm.write_dataset(manifest, root)
    return root


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG_TEXT)
    return path


def test_analyze_default_prints_reference_macs(capsys):
    assert run_inproc(["analyze", "--config", "eurosat-default"]) == 0
    out = capsys.readouterr()
    assert "22,807,808" in out.out
    assert "resolved: config=eurosat-default" in out.err


def test_analyze_writes_csv(tmp_path, tiny_config, capsys):
    csv_path = tmp_path / "cost.csv"
    assert run_inproc(["analyze", "--config", str(tiny_config), "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "layer,params,macs,flops"
    assert lines[-1].startswith("total,")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("stdout", ["file", "pipe"])
def test_analyze_csv_to_own_stdout_follows_the_table(tmp_path, stdout, capsys):
    csv_path = tmp_path / "cost.csv"
    assert run_inproc(["analyze", "--config", "eurosat-default", "--csv", str(csv_path)]) == 0
    want = capsys.readouterr().out.encode("utf-8") + csv_path.read_bytes()
    args = [sys.executable, "-m", "scenemixer", "analyze", "--config", "eurosat-default", "--csv", "/dev/stdout"]
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)  # a pipe then block-buffers the table
    if stdout == "file":
        out_path = tmp_path / "out.txt"
        with open(out_path, "wb") as fh:
            subprocess.run(args, stdout=fh, stderr=subprocess.DEVNULL, env=env, timeout=300, check=True)
        got = out_path.read_bytes()
    else:
        got = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, timeout=300,
                             check=True).stdout
    assert got == want


def test_analyze_missing_config_is_runtime_error(capsys):
    assert run_inproc(["analyze", "--config", "/no/such/file.cfg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_1():
    assert run_subproc(["analyze", "--bogus-flag"]).returncode == 1
    assert run_subproc(["no-such-command"]).returncode == 1
    assert run_subproc([]).returncode == 1
    assert run_subproc(["analyze"]).returncode == 1  # missing required --config
    assert run_subproc(["--help"]).returncode == 0


@pytest.mark.parametrize("command", ["analyze", "synth", "split", "train", "eval", "predict"])
def test_help_exits_zero_and_documents_flags(command, capsys):
    assert run_inproc([command, "--help"]) == 0
    help_text = capsys.readouterr().out
    assert "--threads" in help_text


def test_synth_idempotent(tmp_path, capsys):
    root = tmp_path / "d"
    args = ["synth", "--out", str(root), "--classes", "2", "--per-class", "3",
            "--seed", "9", "--side", "8"]
    assert run_inproc(args) == 0
    first = {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*.ppm")}
    assert len(first) == 6
    assert run_inproc(args) == 0
    second = {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*.ppm")}
    assert first == second


def test_split_writes_manifest(tmp_path, tiny_dataset, capsys):
    out = tmp_path / "manifest.csv"
    assert run_inproc(["split", "--data", str(tiny_dataset), "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "path,class,split"
    assert len(lines) == 37  # 36 samples + header
    splits = [line.split(",")[2] for line in lines[1:]]
    assert set(splits) <= {"train", "val", "test"}


def test_train_eval_predict_pipeline(tmp_path, tiny_dataset, tiny_config, capsys):
    model_path = tmp_path / "model.smxc"
    history_path = tmp_path / "history.csv"
    rc = run_inproc([
        "train", "--data", str(tiny_dataset), "--config", str(tiny_config),
        "--epochs", "2", "--batch", "8", "--seed", "3",
        "--out", str(model_path), "--history", str(history_path), "--quiet",
    ])
    assert rc == 0
    assert model_path.exists()
    history = history_path.read_text().strip().split("\n")
    assert history[0] == "epoch,train_loss,train_oa,val_loss,val_oa,lr"
    assert len(history) == 3
    capsys.readouterr()

    cm_path = tmp_path / "cm.csv"
    metrics_path = tmp_path / "metrics.csv"
    rc = run_inproc([
        "eval", "--model", str(model_path), "--data", str(tiny_dataset),
        "--split", "test", "--seed", "3",
        "--confusion", str(cm_path), "--metrics", str(metrics_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("OA: ") and "kappa x100:" in out
    assert cm_path.read_text().startswith("true,")
    assert metrics_path.read_text().startswith("metric,value")

    image = next((tiny_dataset / "00_stripes_horizontal").glob("*.ppm"))
    rc = run_inproc(["predict", "--model", str(model_path), "--image", str(image)])
    assert rc == 0
    label = capsys.readouterr().out.strip()
    assert label in ("00_stripes_horizontal", "01_checkerboard", "02_radial_gradient")


def test_eval_self_consistency_perfect_labels(tmp_path, tiny_dataset, tiny_config, capsys):
    """Scoring a model against its own predictions gives OA 1 / kappa 100."""
    from scenemixer import metrics as mx

    model_path = tmp_path / "m.smxc"
    run_inproc(["train", "--data", str(tiny_dataset), "--config", str(tiny_config),
                "--epochs", "3", "--batch", "8", "--seed", "1",
                "--out", str(model_path), "--quiet"])
    capsys.readouterr()
    net = sm.load(model_path)
    manifest = dm.load_dataset(tiny_dataset)
    dm.stratified_split(manifest, dm.SplitSpec(seed=1))
    x, _ = dm.split_arrays(manifest, "train", 16, 16)
    pred = sm.predict(net, x)
    if len(set(pred.tolist())) < 2:
        pred = np.concatenate([pred, np.arange(3)])  # kappa needs >1 class
    cm = mx.confusion(pred, pred, 3)
    assert mx.overall_accuracy(cm) == 1.0
    assert mx.kappa(cm) * 100 == 100.0


def test_train_class_count_mismatch_fails(tmp_path, tiny_dataset, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(TINY_CONFIG_TEXT.replace("num_classes=3", "num_classes=5"))
    rc = run_inproc(["train", "--data", str(tiny_dataset), "--config", str(bad_cfg),
                     "--epochs", "1", "--batch", "8", "--seed", "1",
                     "--out", str(tmp_path / "x.smxc"), "--quiet"])
    assert rc == 2
    assert "classes" in capsys.readouterr().err


def test_train_config_class_names_must_be_the_folders(tmp_path, tiny_dataset, capsys):
    folders = dm.load_dataset(tiny_dataset).class_names
    config, model = tmp_path / "named.cfg", tmp_path / "m.smxc"
    args = ["train", "--data", str(tiny_dataset), "--config", str(config), "--epochs", "1", "--batch", "8",
            "--seed", "3", "--out", str(model), "--quiet"]
    config.write_text(TINY_CONFIG_TEXT + "class_names=x,y,z\n")
    assert run_inproc(args) == 2
    err = capsys.readouterr().err
    assert str(folders) in err and "['x', 'y', 'z']" in err and not model.exists()
    config.write_text(TINY_CONFIG_TEXT + "class_names=" + ",".join(folders) + "\n")
    assert run_inproc(args) == 0 and sm.load(model).class_names == folders


def test_train_on_a_split_too_small_for_val_names_the_counts(tmp_path, tiny_config, capsys):
    data = tmp_path / "small"
    assert run_inproc(["synth", "--out", str(data), "--classes", "3", "--per-class", "6", "--side", "16"]) == 0
    assert run_inproc(["train", "--data", str(data), "--config", str(tiny_config), "--epochs", "1",
                       "--out", str(tmp_path / "m.smxc"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "split 'val' has no samples: per-class counts [0, 0, 0] of class sizes [6, 6, 6]" in err
    assert "stratified_split run" not in err


def test_every_command_echoes_resolved_settings(tmp_path, capsys):
    run_inproc(["synth", "--out", str(tmp_path / "e"), "--classes", "2",
                "--per-class", "3", "--seed", "1", "--side", "8"])
    err = capsys.readouterr().err
    assert "resolved: classes=2" in err
    assert "resolved: seed=1" in err
    assert f"resolved: threads={len(os.sched_getaffinity(0))}" in err


class _SerialPool:
    """Stands in for ThreadPoolExecutor: records its size and runs each call at once, starting no thread."""

    sizes = []

    def __init__(self, workers):
        self.sizes.append(workers)

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self):
        pass


def test_threads_resolve_to_at_most_the_usable_cores(tmp_path, tiny_dataset, monkeypatch, capsys):
    # 24 patch-1 images of 16x16x128 float32 run as 3 chunks of 8
    text = TINY_CONFIG_TEXT.replace("patch=4", "patch=1").replace("embed_dim=8", "embed_dim=128")
    net = sm.build(sm.parse_config_text(text)[0], seed=0)
    net.class_names = dm.load_dataset(tiny_dataset).class_names
    sm.save(net, tmp_path / "m.smxc")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(sm, "ThreadPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    for flag, resolved in ((["--threads", "5000"], 2), ([], 2), (["--threads", "1"], 1)):
        capsys.readouterr()
        assert run_inproc(["eval", "--model", str(tmp_path / "m.smxc"), "--data", str(tiny_dataset),
                           "--split", "train", "--seed", "3", *flag]) == 0
        assert f"resolved: threads={resolved}\n" in capsys.readouterr().err
    assert _SerialPool.sizes == [2, 2]
    assert run_inproc(["eval", "--model", str(tmp_path / "m.smxc"), "--data", str(tiny_dataset),
                       "--threads", "0"]) == 1


def test_threads_do_not_change_output_bytes(tmp_path, tiny_dataset):
    # BLAS reads its thread variables when numpy loads, so each run needs its
    # own interpreter. A patch-1 image of 16x16x128 float32 is 128 KiB of block
    # activation, so a chunk holds 8 images and a batch of 24 runs as 3 chunks
    config = tmp_path / "wide.cfg"
    config.write_text(TINY_CONFIG_TEXT.replace("patch=4", "patch=1").replace("embed_dim=8", "embed_dim=128"))
    outputs = []
    for threads in ("1", "2"):
        model_path, history_path = tmp_path / f"m{threads}.smxc", tmp_path / f"h{threads}.csv"
        run_subproc(["train", "--data", str(tiny_dataset), "--config", str(config),
                     "--epochs", "2", "--batch", "24", "--seed", "3", "--threads", threads,
                     "--out", str(model_path), "--history", str(history_path), "--quiet"], check=True)
        outputs.append((model_path.read_bytes(), history_path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_eval_and_predict_bytes_do_not_depend_on_the_infer_pool(tmp_path, tiny_dataset, monkeypatch, capsys):
    # a 16x16x128 grid is 128 KiB of float32 per image, so a chunk holds 8
    # images and the 24 training images run as 3 chunks
    text = TINY_CONFIG_TEXT.replace("patch=4", "patch=1").replace("embed_dim=8", "embed_dim=128")
    net = sm.build(sm.parse_config_text(text)[0], seed=0)
    net.class_names = dm.load_dataset(tiny_dataset).class_names
    model = tmp_path / "m.smxc"
    sm.save(net, model)
    outputs = {}
    for threads in ("1", "2", None):
        tag = threads or "default"
        flag = ["--threads", threads] if threads else []
        assert run_inproc(["eval", "--model", str(model), "--data", str(tiny_dataset), "--split", "train",
                           "--seed", "3", "--confusion", str(tmp_path / f"cm_{tag}.csv"),
                           "--metrics", str(tmp_path / f"metrics_{tag}.csv"), *flag]) == 0
        outputs[tag] = ((tmp_path / f"cm_{tag}.csv").read_bytes(), (tmp_path / f"metrics_{tag}.csv").read_bytes())
    assert outputs["1"] == outputs["2"] == outputs["default"]

    class NoSubmitPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            raise AssertionError("a one-chunk forward submitted work to the pool")

    # one image is one chunk, so predict runs it on the calling thread and
    # the pool that --threads 2 opens starts no thread
    threads_at_embed = []
    real_embed = layers.patch_embed_forward

    def embed(xb, p):
        threads_at_embed.append(threading.active_count())
        return real_embed(xb, p)

    monkeypatch.setattr(sm, "ThreadPoolExecutor", NoSubmitPool)
    monkeypatch.setattr(layers, "patch_embed_forward", embed)
    image = str(next((tiny_dataset / "01_checkerboard").glob("*.ppm")))
    capsys.readouterr()
    labels = []
    before = threading.active_count()
    for flag in (["--threads", "1"], ["--threads", "2"], []):
        assert run_inproc(["predict", "--model", str(model), "--image", image, *flag]) == 0
        labels.append(capsys.readouterr().out)
    assert labels[0] in [f"{name}\n" for name in net.class_names] and labels == labels[:1] * 3
    assert threads_at_embed == [before] * 3


@pytest.mark.parametrize("command", ["split", "train"])
def test_format_breaking_class_folder_is_runtime_error(tmp_path, tiny_dataset, tiny_config, command, capsys):
    (tiny_dataset / "00_stripes_horizontal").rename(tiny_dataset / "a,b")
    args = {"split": ["split", "--data", str(tiny_dataset), "--out", str(tmp_path / "s.csv")],
            "train": ["train", "--data", str(tiny_dataset), "--config", str(tiny_config),
                      "--epochs", "1", "--out", str(tmp_path / "m.smxc"), "--quiet"]}[command]
    assert run_inproc(args) == 2
    assert "a,b" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "m.smxc").exists()


@pytest.mark.parametrize("command", ["split", "train"])
def test_format_breaking_image_name_is_runtime_error(tmp_path, tiny_dataset, tiny_config, command, capsys):
    folder = tiny_dataset / "01_checkerboard"
    (folder / "0003.ppm").rename(folder / "a,b.ppm")
    args = {"split": ["split", "--data", str(tiny_dataset), "--out", str(tmp_path / "s.csv")],
            "train": ["train", "--data", str(tiny_dataset), "--config", str(tiny_config),
                      "--epochs", "1", "--out", str(tmp_path / "m.smxc"), "--quiet"]}[command]
    assert run_inproc(args) == 2
    assert "a,b.ppm" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "m.smxc").exists()


def test_infinite_bn_eps_config_is_runtime_error(tmp_path, tiny_dataset, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(TINY_CONFIG_TEXT.replace("bn_eps=0.001", "bn_eps=inf"))
    rc = run_inproc(["train", "--data", str(tiny_dataset), "--config", str(cfg), "--epochs", "1",
                     "--out", str(tmp_path / "m.smxc"), "--quiet"])
    assert rc == 2
    assert "bn_eps must be finite and > 0, got inf" in capsys.readouterr().err
    assert not (tmp_path / "m.smxc").exists()


def test_residual_config_is_runtime_error(tmp_path, tiny_dataset, capsys):
    cfg = tmp_path / "residual.cfg"
    cfg.write_text(TINY_CONFIG_TEXT.replace("residual=false", "residual=true"))
    rc = run_inproc(["train", "--data", str(tiny_dataset), "--config", str(cfg), "--epochs", "1",
                     "--out", str(tmp_path / "m.smxc"), "--quiet"])
    assert rc == 2
    assert "residual must be 'false', got 'true'" in capsys.readouterr().err
    assert not (tmp_path / "m.smxc").exists()


def test_non_finite_learning_rate_is_runtime_error(tmp_path, tiny_dataset, tiny_config, capsys):
    for lr in ("nan", "inf"):
        rc = run_inproc(["train", "--data", str(tiny_dataset), "--config", str(tiny_config), "--epochs", "1",
                         "--lr", lr, "--out", str(tmp_path / "m.smxc"), "--quiet"])
        assert rc == 2
        assert f"lr_init must be finite, got {lr}" in capsys.readouterr().err
        assert not (tmp_path / "m.smxc").exists()


@pytest.mark.parametrize("flags, message", [
    (["--lr", "nan"], "lr_init must be finite, got nan"),
    (["--epochs", "0"], "epochs must be >= 1, got 0"),
    (["--batch", "0"], "batch_size must be >= 1, got 0"),
])
def test_train_checks_its_settings_before_reading_the_dataset(tmp_path, tiny_dataset, tiny_config, monkeypatch,
                                                              capsys, flags, message):
    def no_read(*args, **kwargs):
        raise AssertionError("train read the dataset before checking its settings")

    monkeypatch.setattr(dm, "split_arrays", no_read)
    for data in (tiny_dataset, tmp_path / "nosuch"):
        rc = run_inproc(["train", "--data", str(data), "--config", str(tiny_config), *flags,
                         "--out", str(tmp_path / "m.smxc"), "--quiet"])
        assert rc == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "m.smxc").exists()


def test_non_rgb_model_is_refused_before_any_image_is_read(tmp_path, tiny_dataset, monkeypatch, capsys):
    text = TINY_CONFIG_TEXT.replace("input=16x16x3", "input=16x16x1")
    config = tmp_path / "gray.cfg"
    config.write_text(text)
    net = sm.build(sm.parse_config_text(text)[0], seed=0)
    net.class_names = dm.load_dataset(tiny_dataset).class_names
    model = tmp_path / "m.smxc"
    sm.save(net, model)
    image = str(next((tiny_dataset / "01_checkerboard").glob("*.ppm")))

    def no_read(*args, **kwargs):
        raise AssertionError("an image was read for a model that cannot take it")

    monkeypatch.setattr(dm, "read_ppm", no_read)
    for args in (["train", "--data", str(tiny_dataset), "--config", str(config), "--epochs", "1",
                  "--out", str(tmp_path / "out.smxc"), "--quiet"],
                 ["eval", "--model", str(model), "--data", str(tiny_dataset)],
                 ["predict", "--model", str(model), "--image", image]):
        assert run_inproc(args) == 2, args[0]
        err = capsys.readouterr().err
        assert "error: the model reads 1-channel input, but PPM images are 3-channel RGB\n" in err, args[0]
    assert not (tmp_path / "out.smxc").exists()


@pytest.mark.parametrize("classes", ["3", "4"])
def test_empty_synth_side_is_runtime_error(tmp_path, classes, capsys):
    rc = run_inproc(["synth", "--out", str(tmp_path / "s"), "--classes", classes, "--per-class", "2",
                     "--side", "0"])
    assert rc == 2
    assert "side must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_every_command_runs_without_scipy(tmp_path, tiny_config):
    data, model = tmp_path / "scenes", tmp_path / "m.smxc"
    commands = [
        ["analyze", "--config", str(tiny_config)],
        ["synth", "--out", str(data), "--classes", "3", "--per-class", "12", "--side", "16", "--seed", "5"],
        ["split", "--data", str(data), "--out", str(tmp_path / "split.csv")],
        ["train", "--data", str(data), "--config", str(tiny_config), "--epochs", "1", "--batch", "8",
         "--manifest", str(tmp_path / "split.csv"), "--out", str(model), "--quiet"],
        ["eval", "--model", str(model), "--data", str(data), "--manifest", str(tmp_path / "split.csv")],
        ["predict", "--model", str(model), "--image", str(data / "00_stripes_horizontal" / "0000.ppm")],
    ]
    # a None entry in sys.modules makes every import of scipy raise ImportError
    code = (
        "import sys\nsys.modules['scipy'] = None\nfrom scenemixer import cli\n"
        f"sys.exit(max(cli.main(args) for args in {commands!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert model.exists()


def test_cli_import_pins_blas_before_numpy_loads():
    # BLAS reads its thread variables once, when numpy loads: a meta-path
    # finder records them at that moment, in an interpreter started with 4
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = (
        "import os, sys\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        f"            seen.append({{v: os.environ.get(v) for v in {blas!r}}})\n"
        "sys.meta_path.insert(0, Spy())\n"
        "from scenemixer import cli\n"
        "print(seen)\n"
    )
    env = src_env(**dict.fromkeys(blas, "4"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[dict.fromkeys(blas, '1')]}\n"


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs glibc's mallopt and 2 usable cores")
def test_repeated_train_commands_fault_in_few_new_pages(tmp_path):
    # with the malloc thresholds cli sets at import, 4 bench-config train
    # commands after 2 warm-ups faulted 230-2,900 pages in all (5 runs); with
    # glibc's defaults the pool threads' freed chunk buffers went back to the
    # kernel, and the same 4 commands faulted 95,900-155,800 pages (2 runs)
    data, cfg = tmp_path / "data", tmp_path / "bench.cfg"
    assert run_inproc(["synth", "--out", str(data), "--classes", "6", "--per-class", "22", "--seed", "1"]) == 0
    cfg.write_text(sm.config_to_text(sm.ModelConfig(input_h=64, input_w=64, input_c=3, num_classes=6)))
    argv = ["train", "--data", str(data), "--config", str(cfg), "--epochs", "2", "--batch", "32", "--seed", "1",
            "--threads", "2", "--quiet", "--out", str(tmp_path / "m.smxc"), "--history", str(tmp_path / "h.csv")]
    code = (
        "import resource\n"
        "from scenemixer import cli\n"
        "faults = []\n"
        "for _ in range(6):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"    assert cli.main({argv!r}) == 0\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(*faults)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = [int(f) for f in proc.stdout.split()[-6:]]
    assert sum(faults[2:]) <= 10_000, f"minor faults per command: {faults}"


@pytest.mark.parametrize("cdll", [
    "raise OSError('no C library')",
    "raise TypeError('expected str, bytes or os.PathLike object, not NoneType')",  # CDLL(None) on Windows
    "return object()",  # a C library without mallopt, as on macOS
])
def test_cli_runs_where_libc_has_no_mallopt(cdll):
    code = (
        "import ctypes\n"
        "def cdll(*args, **kwargs):\n"
        f"    {cdll}\n"
        "ctypes.CDLL = cdll\n"
        "from scenemixer import cli\n"
        "raise SystemExit(cli.main(['analyze', '--config', 'eurosat-default']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "patch_embed" in proc.stdout


def test_threads_default_without_sched_getaffinity(monkeypatch, capsys):
    # os.sched_getaffinity exists only on some platforms, such as Linux
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for flag, resolved in (([], 3), (["--threads", "5000"], 3), (["--threads", "2"], 2)):
        capsys.readouterr()
        assert run_inproc(["analyze", "--config", "eurosat-default", *flag]) == 0
        assert f"resolved: threads={resolved}\n" in capsys.readouterr().err
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert run_inproc(["analyze", "--config", "eurosat-default"]) == 0
    assert "resolved: threads=1\n" in capsys.readouterr().err


def test_duplicate_manifest_path_is_runtime_error(tmp_path, tiny_dataset, tiny_config, capsys):
    manifest = tmp_path / "split.csv"
    assert run_inproc(["split", "--data", str(tiny_dataset), "--out", str(manifest)]) == 0
    first = manifest.read_text().splitlines()[1]
    key, cls, split = first.split(",")
    with open(manifest, "a") as fh:
        fh.write(f"{key},{cls},{'val' if split == 'train' else 'train'}\n")
    args = ["train", "--data", str(tiny_dataset), "--config", str(tiny_config), "--epochs", "1",
            "--manifest", str(manifest), "--out", str(tmp_path / "m.smxc"), "--quiet"]
    assert run_inproc(args) == 2
    assert f"duplicate path '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "m.smxc").exists()


def test_manifest_row_for_a_deleted_image_is_runtime_error(tmp_path, tiny_dataset, tiny_config, capsys):
    manifest, model = tmp_path / "split.csv", tmp_path / "m.smxc"
    assert run_inproc(["split", "--data", str(tiny_dataset), "--out", str(manifest)]) == 0
    assert run_inproc(["train", "--data", str(tiny_dataset), "--config", str(tiny_config), "--epochs", "1",
                       "--manifest", str(manifest), "--out", str(model), "--quiet"]) == 0
    lineno, key = next((i, line.split(",")[0]) for i, line in enumerate(manifest.read_text().splitlines(), 1)
                       if line.endswith(",test"))
    (tiny_dataset / key).unlink()
    capsys.readouterr()
    assert run_inproc(["eval", "--model", str(model), "--data", str(tiny_dataset), "--manifest", str(manifest)]) == 2
    out = capsys.readouterr()
    assert f"line {lineno}: path '{key}' is not in the dataset tree" in out.err and "OA:" not in out.out


def test_nan_pixel_abort_names_epoch_and_batch(tmp_path, tiny_dataset, tiny_config, monkeypatch, capsys):
    poisoned = []
    real_normalize = dm.normalize

    def normalize(img):
        img = real_normalize(img)
        if not poisoned:  # the first image loaded: training images are loaded first
            poisoned.append(img.shape)
            img[3, 4, 1] = np.nan
        return img

    monkeypatch.setattr(dm, "normalize", normalize)
    args = ["train", "--data", str(tiny_dataset), "--config", str(tiny_config), "--epochs", "2",
            "--batch", "4", "--out", str(tmp_path / "m.smxc"), "--quiet"]
    assert run_inproc(args) == 2
    err = capsys.readouterr().err
    assert poisoned
    assert re.search(r"^error: epoch 1, batch [1-9]: non-finite", err, re.MULTILINE), err
    assert not (tmp_path / "m.smxc").exists()


@pytest.mark.parametrize("command, artifact", [
    (["analyze", "--config", "{config}", "--csv", "{out}"], "{out}"),
    (["split", "--data", "{data}", "--out", "{out}"], "{out}"),
    (["eval", "--model", "{model}", "--data", "{data}", "--confusion", "{out}"], "{out}"),
    (["eval", "--model", "{model}", "--data", "{data}", "--metrics", "{out}"], "{out}"),
    (["synth", "--out", "{out}", "--classes", "2", "--per-class", "3", "--side", "16"],
     "{out}/00_stripes_horizontal/0000.ppm"),
    # the checkpoint goes to /dev/null, which RLIMIT_FSIZE does not cover, so only the history meets the limit
    (["train", "--data", "{data}", "--config", "{config}", "--epochs", "1", "--batch", "8", "--quiet",
      "--out", "/dev/null", "--history", "{out}"], "{out}"),
], ids=["analyze-csv", "split-out", "eval-confusion", "eval-metrics", "synth-ppm", "train-history"])
def test_killed_artifact_write_keeps_the_old_file(tmp_path, tiny_dataset, tiny_config, command, artifact,
                                                  capsys):
    model = tmp_path / "m.smxc"
    if command[0] == "eval":
        assert run_inproc(["train", "--data", str(tiny_dataset), "--config", str(tiny_config), "--epochs", "1",
                           "--batch", "8", "--out", str(model), "--quiet"]) == 0

    def resolve(out):
        subs = {"config": tiny_config, "data": tiny_dataset, "model": model, "out": out}
        return [arg.format(**subs) for arg in command], pathlib.Path(artifact.format(**subs))

    args, path = resolve(tmp_path / "fresh")
    assert run_inproc(args) == 0
    new_size = path.stat().st_size
    args, path = resolve(tmp_path / "kept")
    path.parent.mkdir(parents=True, exist_ok=True)
    old = b"the previous artifact\n"
    path.write_bytes(old)
    # a file-size limit makes the write fail with EFBIG halfway through the new file
    proc = run_with_file_size_limit(
        f"import sys\nfrom scenemixer import cli\nsys.exit(cli.main({args!r}))\n", new_size // 2
    )
    assert proc.returncode == 2 and "File too large" in proc.stderr, proc.stderr
    assert path.read_bytes() == old
    assert not list(tmp_path.rglob("*.tmp"))


def _train_tiny(tmp_path, tiny_dataset, tiny_config, *extra):
    model = tmp_path / "m.smxc"
    assert run_inproc(["train", "--data", str(tiny_dataset), "--config", str(tiny_config), "--epochs", "1",
                       "--batch", "8", "--seed", "3", "--out", str(model), "--quiet", *extra]) == 0
    return model


@pytest.mark.parametrize("old, new", [
    ("01_checkerboard", "01_grid"),  # same sorted order, one name differs
    ("00_stripes_horizontal", "03_stripes_horizontal"),  # every label shifts by one
], ids=["renamed", "reordered"])
def test_eval_on_class_folders_other_than_the_checkpoints_is_runtime_error(tmp_path, tiny_dataset, tiny_config,
                                                                           old, new, capsys):
    model = _train_tiny(tmp_path, tiny_dataset, tiny_config)
    trained = sm.load(model).class_names
    (tiny_dataset / old).rename(tiny_dataset / new)
    capsys.readouterr()
    cm = tmp_path / "cm.csv"
    assert run_inproc(["eval", "--model", str(model), "--data", str(tiny_dataset), "--seed", "3",
                       "--confusion", str(cm)]) == 2
    out = capsys.readouterr()
    assert str(trained) in out.err and str(dm.load_dataset(tiny_dataset).class_names) in out.err
    assert out.out == "" and not cm.exists()


@pytest.mark.parametrize("name, value", [("head.weights", np.nan), ("block0.bn.running_var", -1.0)])
def test_eval_and_predict_refuse_a_checkpoint_with_a_bad_tensor_value(tmp_path, tiny_dataset, capsys, name, value):
    config, _ = sm.parse_config_text(TINY_CONFIG_TEXT)
    net = sm.build(config, seed=0)
    net.class_names = dm.load_dataset(tiny_dataset).class_names
    net.all_tensors()[name].flat[0] = value
    model, cm = tmp_path / "m.smxc", tmp_path / "cm.csv"
    model.write_bytes(b"".join(sm._checkpoint_chunks(net)))  # save refuses such a model
    capsys.readouterr()
    assert run_inproc(["eval", "--model", str(model), "--data", str(tiny_dataset), "--confusion", str(cm)]) == 2
    image = next((tiny_dataset / net.class_names[0]).glob("*.ppm"))
    assert run_inproc(["predict", "--model", str(model), "--image", str(image)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count(f"error: tensor {name}: value") == 2, out.err
    assert not cm.exists()


def test_eval_class_name_mismatch_message_stays_bounded(tmp_path, capsys):
    data = tmp_path / "data"
    dm.write_dataset(dm.synth_generate(2, 4, side=16, seed=5), data)
    config, _ = sm.parse_config_text(TINY_CONFIG_TEXT.replace("num_classes=3", "num_classes=2"))
    net = sm.build(config, seed=0)
    net.class_names = ["a" * 500_000, "b" * 500_000]
    sm.save(net, tmp_path / "m.smxc")
    capsys.readouterr()
    assert run_inproc(["eval", "--model", str(tmp_path / "m.smxc"), "--data", str(data), "--split", "train"]) == 2
    err = capsys.readouterr().err
    message = err[err.index("error: "):]
    assert len(message) < 2000 and "first differ at index 0" in message, message[:2000]
    assert "'aaa" in message and "'bbb" in message and "(first 64 of 500,000)" in message


def test_eval_class_count_mismatch_fails(tmp_path, tiny_dataset, tiny_config, capsys):
    model = _train_tiny(tmp_path, tiny_dataset, tiny_config)
    extra = tiny_dataset / "03_extra"
    extra.mkdir()
    for ppm in (tiny_dataset / "01_checkerboard").glob("*.ppm"):
        (extra / ppm.name).write_bytes(ppm.read_bytes())
    capsys.readouterr()
    assert run_inproc(["eval", "--model", str(model), "--data", str(tiny_dataset), "--seed", "3"]) == 2
    out = capsys.readouterr()
    assert "03_extra" in out.err and out.out == ""


@pytest.mark.parametrize("command", ["synth", "split", "train", "eval"])
def test_negative_seed_is_usage_error(tmp_path, tiny_dataset, tiny_config, command, capsys):
    args = {
        "synth": ["synth", "--out", str(tmp_path / "s"), "--classes", "2", "--per-class", "2"],
        "split": ["split", "--data", str(tiny_dataset), "--out", str(tmp_path / "s.csv")],
        "train": ["train", "--data", str(tiny_dataset), "--config", str(tiny_config), "--epochs", "1",
                  "--out", str(tmp_path / "m.smxc"), "--quiet"],
        "eval": ["eval", "--model", str(tmp_path / "m.smxc"), "--data", str(tiny_dataset)],
    }[command]
    assert run_inproc([*args, "--seed", "-1"]) == 1
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not any((tmp_path / name).exists() for name in ("s", "s.csv", "m.smxc"))


def test_train_and_eval_without_manifest_match_split_at_the_same_seed(tmp_path, tiny_dataset, tiny_config):
    # README: without --manifest, train and eval re-derive what `split --seed` writes
    manifest = tmp_path / "split.csv"
    assert run_inproc(["split", "--data", str(tiny_dataset), "--seed", "4", "--out", str(manifest)]) == 0
    outputs = []
    for extra in ([], ["--manifest", str(manifest)]):
        run = tmp_path / f"run{len(outputs)}"
        run.mkdir()
        assert run_inproc(["train", "--data", str(tiny_dataset), "--config", str(tiny_config), "--epochs", "2",
                           "--batch", "8", "--seed", "4", "--out", str(run / "m.smxc"),
                           "--history", str(run / "h.csv"), "--quiet", *extra]) == 0
        assert run_inproc(["eval", "--model", str(run / "m.smxc"), "--data", str(tiny_dataset), "--seed", "4",
                           "--confusion", str(run / "cm.csv"), *extra]) == 0
        outputs.append({name: (run / name).read_bytes() for name in ("m.smxc", "h.csv", "cm.csv")})
    assert outputs[0] == outputs[1]


def _tree_bytes(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _refuse_dataset_reads(monkeypatch):
    reads = []

    def load_dataset(*args, **kwargs):
        reads.append(args)
        raise AssertionError("the dataset was read before the outputs were checked")

    monkeypatch.setattr(dm, "load_dataset", load_dataset)
    return reads


@pytest.mark.parametrize("command, message", [
    (["train", "--out", "{x}", "--history", "{x}"], "--history '{x}' is the same file as --out '{x}'"),
    (["train", "--out", "{cfg}"], "--out '{cfg}' is the same file as --config '{cfg}'"),
    (["train", "--out", "{x}", "--history", "{link}"], "--history '{link}' is the same file as --out '{x}'"),
    (["train", "--manifest", "{manifest}", "--out", "{x}", "--history", "{manifest}"],
     "--history '{manifest}' is the same file as --manifest '{manifest}'"),
    (["analyze", "--config", "{cfg}", "--csv", "{cfg}"], "--csv '{cfg}' is the same file as --config '{cfg}'"),
    (["eval", "--confusion", "{x}", "--metrics", "{x}"], "--metrics '{x}' is the same file as --confusion '{x}'"),
    (["eval", "--confusion", "{new}", "--metrics", "{new_again}"],
     "--metrics '{new_again}' is the same file as --confusion '{new}'"),
    (["eval", "--metrics", "{model}"], "--metrics '{model}' is the same file as --model '{model}'"),
], ids=["train-out-history", "train-config-out", "train-out-history-link", "train-manifest-history",
        "analyze-config-csv", "eval-confusion-metrics", "eval-new-path-twice", "eval-model-metrics"])
def test_output_colliding_with_another_file_of_the_command_is_refused_first(tmp_path, tiny_dataset, tiny_config,
                                                                           monkeypatch, capsys, command, message):
    net = sm.build(sm.parse_config_text(TINY_CONFIG_TEXT)[0], seed=0)
    net.class_names = dm.load_dataset(tiny_dataset).class_names
    subs = {"x": tmp_path / "x.out", "cfg": tiny_config, "link": tmp_path / "link.out",
            "manifest": tmp_path / "split.csv", "model": tmp_path / "m.smxc",
            "new": tmp_path / "new.csv", "new_again": f"{tmp_path}/./new.csv"}
    sm.save(net, subs["model"])
    subs["x"].write_bytes(b"an earlier output\n")
    subs["link"].symlink_to(subs["x"])
    assert run_inproc(["split", "--data", str(tiny_dataset), "--out", str(subs["manifest"])]) == 0
    before = _tree_bytes(tmp_path)
    base = {"train": ["--data", str(tiny_dataset), "--config", str(tiny_config), "--epochs", "1", "--quiet"],
            "analyze": [], "eval": ["--model", str(subs["model"]), "--data", str(tiny_dataset)]}[command[0]]
    reads = _refuse_dataset_reads(monkeypatch)
    capsys.readouterr()
    assert run_inproc([command[0], *base, *(arg.format(**subs) for arg in command[1:])]) == 2
    out = capsys.readouterr()
    assert f"error: {message.format(**subs)}\n" in out.err and out.out == ""
    assert not reads
    assert _tree_bytes(tmp_path) == before


@pytest.mark.parametrize("command, target", [
    (["train", "--out", "{path}"], "nosuch/m.smxc"),
    (["train", "--out", "{out}", "--history", "{path}"], "nosuch/h.csv"),
    (["train", "--out", "{path}"], "dir"),
    (["split", "--out", "{path}"], "nosuch/split.csv"),
    (["eval", "--metrics", "{path}"], "dir"),
    (["analyze", "--csv", "{path}"], "nosuch/cost.csv"),
    pytest.param(["train", "--out", "{path}"], "locked/m.smxc",
                 marks=pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                                          reason="root writes to any directory")),
], ids=["train-out-missing-dir", "train-history-missing-dir", "train-out-dir", "split-out-missing-dir",
        "eval-metrics-dir", "analyze-csv-missing-dir", "train-out-locked-dir"])
def test_output_without_a_place_to_write_is_refused_first(tmp_path, tiny_dataset, tiny_config, monkeypatch,
                                                         capsys, command, target):
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "kept").write_bytes(b"kept\n")
    (tmp_path / "locked").mkdir(mode=0o500)
    model = tmp_path / "m.smxc"
    net = sm.build(sm.parse_config_text(TINY_CONFIG_TEXT)[0], seed=0)
    net.class_names = dm.load_dataset(tiny_dataset).class_names
    sm.save(net, model)
    path = tmp_path / target
    with pytest.raises(OSError) as plain:  # what the write after the last epoch would have met
        open(path if target == "dir" else path.parent / "probe", "wb")
    expected = str(plain.value).replace(str(path.parent / "probe"), str(path))
    before = _tree_bytes(tmp_path)
    base = {"train": ["--data", str(tiny_dataset), "--config", str(tiny_config), "--epochs", "1", "--quiet"],
            "split": ["--data", str(tiny_dataset)], "analyze": ["--config", str(tiny_config)],
            "eval": ["--model", str(model), "--data", str(tiny_dataset)]}[command[0]]
    reads = _refuse_dataset_reads(monkeypatch)
    capsys.readouterr()
    args = [arg.format(path=path, out=tmp_path / "out.smxc") for arg in command[1:]]
    assert run_inproc([command[0], *base, *args]) == 2
    out = capsys.readouterr()
    assert f"error: {expected}\n" in out.err and out.out == ""
    assert not reads
    assert _tree_bytes(tmp_path) == before


@pytest.mark.parametrize("command, target", [
    (["train", "--out", "{path}"], "{image}"),
    (["train", "--out", "{out}", "--history", "{path}"], "h.csv"),
    (["train", "--out", "{path}"], "{link}"),
    (["split", "--out", "{path}"], "{folder}/m.csv"),
    (["eval", "--confusion", "{path}"], "cm.csv"),
], ids=["train-out-image", "train-history-root", "train-out-link-into-data", "split-out-class-folder",
        "eval-confusion-root"])
def test_output_inside_the_dataset_is_refused_first(tmp_path, tiny_dataset, tiny_config, monkeypatch, capsys,
                                                    command, target):
    # an output there would replace an image, or add a file that the next load of the tree meets
    model = tmp_path / "m.smxc"
    net = sm.build(sm.parse_config_text(TINY_CONFIG_TEXT)[0], seed=0)
    net.class_names = dm.load_dataset(tiny_dataset).class_names
    sm.save(net, model)
    image = sorted(tiny_dataset.rglob("*.ppm"))[0]
    (tmp_path / "link.smxc").symlink_to(image)
    target = target.format(image=image.relative_to(tiny_dataset), folder=image.parent.name, link="../link.smxc")
    path = os.path.normpath(tiny_dataset / target)
    before = _tree_bytes(tmp_path)
    base = {"train": ["--data", str(tiny_dataset), "--config", str(tiny_config), "--epochs", "1", "--quiet"],
            "split": ["--data", str(tiny_dataset)], "eval": ["--model", str(model), "--data", str(tiny_dataset)]}
    reads = _refuse_dataset_reads(monkeypatch)
    capsys.readouterr()
    args = [arg.format(path=path, out=tmp_path / "out.smxc") for arg in command[1:]]
    assert run_inproc([command[0], *base[command[0]], *args]) == 2
    out = capsys.readouterr()
    opt = command[command.index("{path}") - 1]
    assert f"error: {opt} {path!r} lies inside --data {str(tiny_dataset)!r}\n" in out.err and out.out == ""
    assert not reads
    assert _tree_bytes(tmp_path) == before


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_synth_into_a_non_directory_is_refused_before_generating(tmp_path, monkeypatch, capsys, out):
    (tmp_path / "file").write_bytes(b"kept\n")
    calls = []
    monkeypatch.setattr(dm, "synth_generate", lambda *args, **kwargs: calls.append(args))
    assert run_inproc(["synth", "--out", str(tmp_path / out), "--classes", "2", "--per-class", "3"]) == 2
    refusal = NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(tmp_path / "file"))
    assert f"error: {refusal}\n" in capsys.readouterr().err
    assert calls == []
    assert _tree_bytes(tmp_path) == {tmp_path / "file": b"kept\n"}


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_outputs_written_in_place_may_repeat(tmp_path, tiny_dataset, capsys):
    net = sm.build(sm.parse_config_text(TINY_CONFIG_TEXT)[0], seed=0)
    net.class_names = dm.load_dataset(tiny_dataset).class_names
    model = tmp_path / "m.smxc"
    sm.save(net, model)
    assert run_inproc(["eval", "--model", str(model), "--data", str(tiny_dataset), "--confusion", "/dev/null",
                       "--metrics", "/dev/null"]) == 0
    assert capsys.readouterr().out.startswith("OA: ")


def test_readme_command_lines_parse():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```bash\n(.*?)^```", readme, re.MULTILINE | re.DOTALL).group(1)
    lines = [re.sub(r"\[([^]]*)\]", r"\1", line) for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("scenemixer ")]
    assert len(commands) == 6
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        assert args.command == argv[0]
