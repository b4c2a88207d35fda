"""Every script under demos/ runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the two demos that train sequence models take several seconds each
SLOW = {"05_sequence_reconstruction.py", "06_adversarial_baseline.py"}


@pytest.mark.parametrize("demo", [
    pytest.param(d, id=d.stem,
                 marks=[pytest.mark.slow] if d.name in SLOW else [])
    for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_demos_are_found():
    assert DEMOS, "no demo scripts under demos/"
