"""The README's library quick tour, run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_tour_runs_and_prints_the_equilibrium_extent():
    # its own asserts check the measured entropy; its printout starts with
    # the equilibrium extent of the toy oxidation.  Any warning is an error.
    (code,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    eps = float(re.match(r"\(([^,]+),\)", out.stdout).group(1))
    assert eps == pytest.approx(0.757933, abs=5e-7)
