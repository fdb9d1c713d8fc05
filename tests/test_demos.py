"""The quick demos run to completion. Demo 03 trains for half a minute and
is left out."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_cost_accounting", "02_gradient_checking",
                                  "04_metrics_tour", "05_checkpoints_and_ppm"])
def test_demo_exits_zero(tmp_path, demo):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("scenemixer_demo_*")), "demo left its temp directory behind"
