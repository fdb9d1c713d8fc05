"""The whole network against the benchmark's independent float64 forward.

`bench/reference.py` never imports scenemixer and computes each layer
another way (depthwise by `scipy.ndimage.correlate`, GELU with `erf`), so
this is the one check that the layers compose into the described network.
"""

import pathlib
import sys

import numpy as np
import pytest

from scenemixer import model as sm

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
try:
    import reference
    import workloads
finally:
    sys.path.remove(str(BENCH))

# largest |probability difference| allowed, per model dtype
BOUNDS = {np.float32: 1e-6, np.float64: 1e-12}


def _calibrated(dtype, rng):
    """The bench config with BN running statistics set from one train-mode batch."""
    config, _ = sm.parse_config_text(workloads.BENCH_CONFIG)
    net = sm.build(config, seed=3, dtype=dtype)
    for s in net.bn_states:
        s.momentum = 0.0
    sm.forward(net, rng.random((12, 64, 64, 3)), "train")
    for s in net.bn_states:
        s.momentum = config.bn_momentum
    return net


@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_matches_reference(rng, dtype, mode):
    net = _calibrated(dtype, rng)
    x = rng.random((8, 64, 64, 3)).astype(dtype)
    tensors = {name: t.astype(np.float64) for name, t in net.all_tensors().items()}
    want = reference.forward(reference.parse_config(workloads.BENCH_CONFIG), tensors, x.astype(np.float64), mode)
    got, _ = sm.forward(net, x, mode)
    assert got.dtype == dtype
    assert np.max(np.abs(got - want)) < BOUNDS[dtype]
    # a calibrated network spreads its probability mass, so the bound is not met trivially
    assert np.max(want) - np.min(want) > 1e-3
