import os
import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def src_env(**overrides):
    """os.environ plus `overrides`, with the checkout's src/ first on
    PYTHONPATH, so a subprocess imports this checkout installed or not."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def max_rel_err(a, b, floor=1e-6):
    """Largest |a-b| relative to the larger magnitude, floored so that
    near-zero pairs are compared absolutely."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))
