"""The quick demos run to completion. Demo 03 trains for half a minute and
is left out."""

import subprocess
import sys

import pytest

from conftest import ROOT, src_env


@pytest.mark.parametrize("demo", ["01_cost_accounting", "02_gradient_checking",
                                  "04_metrics_tour", "05_checkpoints_and_ppm"])
def test_demo_exits_zero(tmp_path, demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          capture_output=True, text=True, env=src_env(TMPDIR=str(tmp_path)), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("scenemixer_demo_*")), "demo left its temp directory behind"
