"""The span tracer in bench/ wraps library functions by name; this keeps
those names, and the spans the traced benchmark divides by, alive."""

import pathlib
import sys

import scenemixer
from scenemixer import data as dm
from scenemixer import model as sm

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

CONFIG_TEXT = """\
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

REQUIRED_SPANS = {
    "layers.depthwise_conv.k3.fwd", "layers.depthwise_conv.k3.bwd",
    "layers.depthwise_conv.k5.fwd", "layers.depthwise_conv.k5.bwd",
    "layers.pointwise_conv.fwd", "layers.patch_embed.fwd",
}


def _spans_module():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
    return spans


def test_traced_train_records_every_layer_span(tmp_path, capsys):
    spans = _spans_module()
    dm.write_dataset(dm.synth_generate(3, 8, side=16, seed=2), tmp_path / "data")
    (tmp_path / "tiny.cfg").write_text(CONFIG_TEXT)
    tracer = spans.Tracer()
    # install looks every target up by name, so a renamed function fails here
    tracer.install(spans.command_targets(scenemixer))
    try:
        rc = scenemixer.cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(tmp_path / "tiny.cfg"),
                                  "--epochs", "1", "--batch", "4", "--seed", "1",
                                  "--out", str(tmp_path / "m.smxc"), "--quiet"])
    finally:
        tracer.uninstall()
    assert rc == 0, capsys.readouterr().err
    names = {s[0] for s in tracer.spans}
    assert REQUIRED_SPANS <= names, sorted(REQUIRED_SPANS - names)
    # backward must not run the public forward: its time would be booked to a .fwd span
    for name, _, _, parent, *_ in tracer.spans:
        if name.startswith("layers.depthwise_conv.") and name.endswith(".fwd"):
            assert parent < 0 or not tracer.spans[parent][0].endswith(".bwd"), tracer.spans[parent][0]
    # nor may model.backward: the block inputs it rebuilds are backward time
    for name, _, _, parent, *_ in tracer.spans:
        if name.startswith("layers.") and name.endswith(".fwd"):
            while parent >= 0:
                assert tracer.spans[parent][0] != "model.backward", name
                parent = tracer.spans[parent][3]


def test_traced_eval_makes_one_forward_span_per_predict(tmp_path, capsys):
    """The benchmark counts eval's images from its `model.forward` spans, so
    the infer chunk loop must not call the public forward once per chunk."""
    spans = _spans_module()
    manifest = dm.synth_generate(3, 8, side=16, seed=2)
    dm.write_dataset(manifest, tmp_path / "data")
    # a 16x16x128 grid is 128 KiB of float32 per image, so a chunk holds 8 images
    config, _ = sm.parse_config_text(CONFIG_TEXT.replace("patch=4", "patch=1").replace("embed_dim=8", "embed_dim=128"))
    net = sm.build(config, seed=0)
    net.class_names = manifest.class_names
    sm.save(net, tmp_path / "m.smxc")
    tracer = spans.Tracer()
    tracer.install(spans.command_targets(scenemixer))
    try:
        rc = scenemixer.cli.main(["eval", "--model", str(tmp_path / "m.smxc"), "--data", str(tmp_path / "data"),
                                  "--split", "train", "--seed", "1", "--confusion", str(tmp_path / "cm.csv")])
    finally:
        tracer.uninstall()
    assert rc == 0, capsys.readouterr().err
    forwards = [s for s in tracer.spans if s[0] == "model.forward"]
    assert len(forwards) == 1  # eval runs one predict
    parent = forwards[0][3]
    assert parent < 0 or tracer.spans[parent][0] != "model.forward"
    scored = sum(int(v) for row in (tmp_path / "cm.csv").read_text().splitlines()[1:] for v in row.split(",")[1:])
    assert forwards[0][5] == scored
    embeds = [s for s in tracer.spans if s[0] == "layers.patch_embed.fwd"]
    assert len(embeds) == -(-scored // 8), "the forward ran in chunks"
