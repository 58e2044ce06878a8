import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import sinksim, sinksim.cli
imported = sorted(
    m for m in ("decimal", "fractions", "multiprocessing", "numpy", "pickle", "scipy", "statistics")
    if m in sys.modules
)
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
    # worker needs it), multiprocessing, and statistics with its decimal and
    # fractions (stats keeps the one normal quantile it needs as a constant).
    # The sweeps run before the second check, so they must stay free of numpy
    # and scipy too.
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.split() == ["[]", "[]", "20", "20", "0.0789"]


# sinksim/__init__.py imports the scenario for its own public names, so a bare
# package object stands in for it: what loads is what the named module itself
# imports.
PACKAGE_PROBE = """
import importlib, sys, types
package = types.ModuleType("sinksim")
package.__path__ = [sys.argv[1]]
sys.modules["sinksim"] = package
importlib.import_module(sys.argv[2])
print(" ".join(sorted(m for m in sys.modules if m.startswith("sinksim."))))
"""


def sinksim_modules_loaded_by(module):
    proc = subprocess.run(
        [sys.executable, "-c", PACKAGE_PROBE, str(SRC / "sinksim"), module],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.split()


def test_energy_does_not_import_the_scenario():
    assert sinksim_modules_loaded_by("sinksim.energy") == [
        "sinksim.core", "sinksim.energy", "sinksim.radio"
    ]


def test_stats_imports_nothing_from_sinksim():
    assert sinksim_modules_loaded_by("sinksim.stats") == ["sinksim.stats"]


def test_no_sinksim_module_is_over_600_lines():
    # Compiling a module takes memory that grows faster than its length, and
    # every benchmark run's peak includes compiling sinksim.
    sizes = {path.name: len(path.read_text().splitlines()) for path in (SRC / "sinksim").glob("*.py")}
    assert sizes and {name: n for name, n in sizes.items() if n > 600} == {}


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", SRC.parent / "bench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_trace_target_is_an_attribute_of_its_owner():
    # The traced bench run replaces these attributes; one that a kernel
    # inlined or renamed fails here, not only in that run.
    tracer = load_bench_module("tracer")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracer.TARGETS
        if attr not in vars(owner)
    ]
    assert tracer.TARGETS and missing == []


def test_every_traced_rotation_layer_records_a_call(monkeypatch):
    # A call that a kernel inlined leaves its attribute in place but records
    # nothing; the traced bench run fails on that, and so does this.  Two
    # rotations of the benchmark's grid, as its workload runs them: loss-free
    # and lossy, each followed by the energy and the coverage.
    from sinksim import energy, scenario
    from sinksim.radio import grid_topology, power_table

    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))  # run.py imports its neighbors
    traced_layers = load_bench_module("run").TRACED_LAYERS["rotations"]
    g, powers = grid_topology(12, 25.0), power_table(0)
    with load_bench_module("tracer").Tracer().installed() as tracer:
        for collisions in (False, True):
            cfg = scenario.ScenarioConfig(topology=g, query_node=7, seed=7, collisions=collisions)
            report = scenario.run_scenario(cfg)
            energy.integrate_timeline(report.timeline, powers)
            scenario.timeline_coverage(report.timeline)
    layers = tracer.layers()
    assert traced_layers and [name for name in traced_layers if name not in layers] == []


@pytest.mark.parametrize("workload", ["rg-sweep", "grid-sweep"])
def test_every_traced_sweep_layer_records_a_call(monkeypatch, workload):
    # The sweep layers are wrapped as `scenario` globals; a call made from
    # another module records nothing.  One small point each, as the
    # benchmark's workload calls it: 20 replications stay in this process,
    # and an empty set-up memo makes the random graph build its topologies.
    from sinksim import scenario

    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))  # run.py imports its neighbors
    monkeypatch.setattr(scenario, "_SETUP_CACHE", {})
    traced_layers = load_bench_module("run").TRACED_LAYERS[workload]
    with load_bench_module("tracer").Tracer().installed() as tracer:
        if workload == "rg-sweep":
            scenario.random_graph_point(4, 10, 20, 1)
        else:
            scenario.grid_point("edge", 2, 20, 1)
    layers = tracer.layers()
    assert traced_layers and [name for name in traced_layers if name not in layers] == []


def test_star_import_binds_exactly_the_public_names():
    # An export that is added or removed shows up as a change to this list.
    import sinksim

    assert sinksim.__all__ == [
        "DEFAULT_CONSTANTS",
        "ProtocolConstants",
        "validate_constants",
        "Topology",
        "build_udg",
        "grid_topology",
        "simulate_flood",
        "route",
        "init_virtual_coords",
        "ScenarioConfig",
        "run_scenario",
        "__version__",
    ]
    namespace: dict = {}
    exec("from sinksim import *", namespace)
    assert all(namespace[name] is getattr(sinksim, name) for name in sinksim.__all__)
