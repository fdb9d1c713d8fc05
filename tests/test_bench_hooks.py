"""The span tracer in bench/ wraps library functions by name; this keeps
those names, and the spans the traced benchmark divides by, alive."""

import pathlib
import sys

import scenemixer
from scenemixer import data as dm

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


def test_traced_train_records_every_layer_span(tmp_path, capsys):
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
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
