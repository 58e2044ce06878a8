import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import sinksim, sinksim.cli
imported = sorted(m for m in ("multiprocessing", "numpy", "pickle", "scipy") if m in sys.modules)
from sinksim.scenario import grid_point, random_graph_point
rg = random_graph_point(4, 10, 20, 1)
grid = grid_point("edge", 2, 20, 1)
heavy = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
from sinksim.mac import ContentionConfig, simulate_collision
collision = simulate_collision(ContentionConfig(30_000, 480, 5), 10_000, 3)
print(imported, heavy, rg.runs, grid.runs, collision)
"""


def test_import_loads_neither_numpy_nor_scipy():
    # A fresh interpreter: the test session itself may already hold numpy.
    # Importing loads none of numpy, scipy, pickle (only an error in a sweep
    # worker needs it) and multiprocessing.  The sweeps run before the second
    # check, so they must stay free of numpy and scipy too.
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.split() == ["[]", "[]", "20", "20", "0.0789"]


# sinksim/__init__.py imports the scenario for its own public names, so a bare
# package object stands in for it: what loads is what energy itself imports.
ENERGY_PROBE = """
import sys, types
package = types.ModuleType("sinksim")
package.__path__ = [sys.argv[1]]
sys.modules["sinksim"] = package
import sinksim.energy
print(" ".join(sorted(m for m in sys.modules if m.startswith("sinksim."))))
"""


def test_energy_does_not_import_the_scenario():
    proc = subprocess.run(
        [sys.executable, "-c", ENERGY_PROBE, str(SRC / "sinksim")],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.split() == ["sinksim.core", "sinksim.energy", "sinksim.radio"]
