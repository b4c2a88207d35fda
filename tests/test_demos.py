"""Every script under demos/ runs to completion in a fresh interpreter."""

from pathlib import Path

import pytest

from fresh_process import run_python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the two demos that train sequence models take several seconds each
SLOW = {"05_sequence_reconstruction.py", "06_adversarial_baseline.py"}


@pytest.mark.parametrize("demo", [
    pytest.param(d, id=d.stem,
                 marks=[pytest.mark.slow] if d.name in SLOW else [])
    for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_python(demo, cwd=tmp_path, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_demos_are_found():
    assert DEMOS, "no demo scripts under demos/"
