import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from scenemixer.data import EXCERPT_LEN

ROOT = pathlib.Path(__file__).resolve().parents[1]


def src_env(**overrides):
    """os.environ plus `overrides`, with the checkout's src/ first on
    PYTHONPATH, so a subprocess imports this checkout installed or not."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_with_file_size_limit(code, limit):
    """Run `code` in a fresh interpreter whose writes fail with EFBIG past
    `limit` bytes of any file (RLIMIT_FSIZE, SIGXFSZ ignored)."""
    pytest.importorskip("resource")  # POSIX only
    prelude = (
        "import resource, signal\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
    )
    return subprocess.run([sys.executable, "-c", prelude + code], capture_output=True, text=True,
                          env=src_env(), timeout=120)


def max_rel_err(a, b, floor=1e-6):
    """Largest |a-b| relative to the larger magnitude, floored so that
    near-zero pairs are compared absolutely."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


MEGABYTE = 1 << 20


def assert_bounded_excerpt(exc, pattern):
    """exc's message matches pattern, and the megabyte-long input it quotes is cut to an excerpt."""
    message = str(exc)
    assert re.search(pattern, message), message[:300]
    assert len(message) < 300 and f"(first {EXCERPT_LEN} of " in message, message[:300]


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))
