"""The suite's own pytest configuration."""

import subprocess
import sys

from conftest import ROOT


def test_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    # hypothesis's failure report touches deprecated names of its
    # dependencies; under filterwarnings "error" that used to end the run
    # with INTERNALERROR (exit 3) before the next test ran
    (tmp_path / "test_throwaway.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n\n"
        "def test_after():\n"
        "    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), "-rA", "test_throwaway.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAILED test_throwaway.py::test_fails" in proc.stdout
    assert "PASSED test_throwaway.py::test_after" in proc.stdout
