"""A fresh Python interpreter for the tests that need one."""

import atexit
import functools
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


@functools.cache
def _pycache_prefix() -> str:
    """One bytecode directory for every fresh interpreter of a test session,
    made on first use and removed when the session exits."""
    path = tempfile.mkdtemp(prefix="sinksim-pycache-")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


def run_python(args, **kwargs):
    """`python *args` in a fresh interpreter that imports sinksim from `src/`.

    Its bytecode goes to the session's temporary directory
    (PYTHONPYCACHEPREFIX), so that only the first interpreter compiles
    sinksim and a test run leaves no `__pycache__` in the tree, whose cold
    imports stay as it found them.  Keyword arguments go to subprocess.run.
    """
    env = {"PYTHONPATH": str(SRC), "PYTHONPYCACHEPREFIX": _pycache_prefix()}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)
