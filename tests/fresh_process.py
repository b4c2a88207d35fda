"""Run Python in a fresh interpreter that imports tcrtomo from this tree.

pytest puts src/ on its own sys.path (pyproject.toml), not on a child
process's, so every test that spawns the package goes through here.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env():
    """os.environ with this tree's src/ first on PYTHONPATH."""
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def run_python(*args, **kwargs):
    """subprocess.run of this interpreter on args (str() of each), with
    src_env() and the output captured as text."""
    return subprocess.run([sys.executable, *map(str, args)], env=src_env(),
                          capture_output=True, text=True, **kwargs)


def run_tcrtomo(*args, **kwargs):
    """`python -m tcrtomo` with args, as run_python."""
    return run_python("-m", "tcrtomo", *args, **kwargs)
