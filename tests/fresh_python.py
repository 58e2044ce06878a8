"""A fresh Python interpreter for the tests that need one."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, **kwargs):
    """`python *args` in a fresh interpreter that imports sinksim from `src/`
    and writes no bytecode there, so that a test run leaves the tree's cold
    imports as it found them.  Keyword arguments go to subprocess.run."""
    env = {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)
