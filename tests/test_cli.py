import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from scenemixer import cli
from scenemixer import data as dm
from scenemixer import model as sm

from conftest import run_with_file_size_limit, src_env

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


def test_every_command_echoes_resolved_settings(tmp_path, capsys):
    run_inproc(["synth", "--out", str(tmp_path / "e"), "--classes", "2",
                "--per-class", "3", "--seed", "1", "--side", "8"])
    err = capsys.readouterr().err
    assert "resolved: classes=2" in err
    assert "resolved: seed=1" in err
    assert "resolved: threads=None" in err


def test_threads_do_not_change_output_bytes(tmp_path, tiny_dataset, tiny_config):
    # BLAS reads its thread variables when numpy loads, so each run needs
    # its own interpreter
    outputs = []
    for threads in ("1", "2"):
        model_path, history_path = tmp_path / f"m{threads}.smxc", tmp_path / f"h{threads}.csv"
        run_subproc(["train", "--data", str(tiny_dataset), "--config", str(tiny_config),
                     "--epochs", "2", "--batch", "8", "--seed", "3", "--threads", threads,
                     "--out", str(model_path), "--history", str(history_path), "--quiet"], check=True)
        outputs.append((model_path.read_bytes(), history_path.read_bytes()))
    assert outputs[0] == outputs[1]


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


def test_cli_import_and_parser_leave_numpy_unimported():
    # --threads sets the BLAS thread variables after parsing, which works
    # only while numpy, and so BLAS, is not yet loaded
    code = "import sys\nfrom scenemixer import cli\ncli.build_parser()\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
], ids=["analyze-csv", "split-out", "eval-confusion", "eval-metrics", "synth-ppm"])
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
