"""File-format round trips: SMXC checkpoints and binary PPM images."""
import os
import tempfile

import numpy as np

from scenemixer import data as dm
from scenemixer import model as sm

with tempfile.TemporaryDirectory(prefix="scenemixer_demo_") as workdir:
    # Checkpoints carry the full architecture description, so loading needs
    # no out-of-band config.
    cfg = sm.ModelConfig(input_h=16, input_w=16, input_c=3, patch=4, embed_dim=8,
                         depth=2, kernels=(3, 5), num_classes=3)
    net = sm.build(cfg, seed=0)
    net.class_names = ["meadow", "quarry", "marsh"]
    ckpt = os.path.join(workdir, "demo.smxc")
    sm.save(net, ckpt)
    print(f"checkpoint: {os.path.getsize(ckpt):,} bytes")

    loaded = sm.load(ckpt)
    print("config travelled:", loaded.config == cfg)
    print("class names travelled:", loaded.class_names)

    x = np.random.default_rng(0).random((2, 16, 16, 3), dtype=np.float32)
    a, _ = sm.forward(net, x, "infer")
    b, _ = sm.forward(loaded, x, "infer")
    print("predictions bit-identical after round trip:", np.array_equal(a, b))

    # PPM: write, re-read, and compare up to 8-bit quantization.
    img = np.random.default_rng(1).random((32, 32, 3)).astype(np.float32)
    path = os.path.join(workdir, "sample.ppm")
    dm.write_ppm(path, img)
    back = dm.normalize(dm.read_ppm(path))
    print(f"ppm quantization error: {np.max(np.abs(back - img)):.6f} (<= {0.5 / 255:.6f})")

# The resampler is exact on identity and matches a scalar reference
# otherwise; here is the classic 2x upscale of a 2x2 ramp.
ramp = np.array([[[0.0], [100.0]], [[100.0], [200.0]]])
print("2x2 ramp upscaled to 4x4, channel 0:")
print(np.round(dm.resize_bilinear(ramp, 4, 4)[:, :, 0], 2))
