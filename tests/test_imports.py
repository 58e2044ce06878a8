import ast
import importlib.util
import sys

import pytest

from fresh_python import SRC, run_python

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
from sinksim.mac import ContentionConfig, simulate_collision
collision = simulate_collision(ContentionConfig(30_000, 480, 5), 10_000, 3)
heavy = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
print(imported, heavy, rg.runs, grid.runs, collision)
"""


def test_import_loads_neither_numpy_nor_scipy():
    # A fresh interpreter: the test session itself may already hold numpy.
    # Importing loads none of numpy, scipy, pickle (only an error in a sweep
    # worker needs it), multiprocessing, and statistics with its decimal and
    # fractions (stats keeps the one normal quantile it needs as a constant).
    # The sweeps and the MAC Monte Carlo run before the second check, so they
    # must stay free of numpy and scipy too.
    proc = run_python(
        ["-c", PROBE],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.split() == ["[]", "[]", "20", "20", "0.0745"]


# numpy blocked: importing it raises ImportError.  The Monte Carlo in both
# modes, and the command in both, run without it.
NO_NUMPY_PROBE = """
import sys
sys.modules["numpy"] = None
from sinksim.cli import main
from sinksim.mac import ContentionConfig, simulate_collision
for levels in (None, 362):
    print(simulate_collision(ContentionConfig(30_000, 480, 5, discrete_levels=levels), 10_000, 3))
for levels in ([], ["--levels", "362"]):
    assert main(["collisions", "--runs", "200", "--out", f"out{len(levels)}", *levels]) == 0
"""


def test_the_monte_carlo_runs_without_numpy(tmp_path):
    proc = run_python(
        ["-c", NO_NUMPY_PROBE],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["0.0745", "0.0722"]
    assert lines[2:] == [f"wrote out{k}/collisions_{name}.csv" for k in (0, 2) for name in ("ack", "relay")]


def test_sinksim_imports_only_the_standard_library():
    # Every import in src/sinksim names a standard-library module or sinksim
    # itself, and the project declares no runtime dependency: numpy was the
    # last one, for the MAC Monte Carlo alone.
    outside = []
    for path in sorted((SRC / "sinksim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, name)
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | {"sinksim"}
            ]
    assert outside == []
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_only_forkmap_forks():
    # The sweeps' workers are forked in one place, so that no second
    # parallel path grows beside it.
    forks = {"fork", "forkpty"}
    forking = set()
    for path in sorted((SRC / "sinksim").glob("*.py")) + sorted((SRC.parent / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in forks:
                forking.add((path.name, ast.unparse(node)))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                forking |= {(path.name, f"os.{a.name}") for a in node.names if a.name in forks}
    assert forking == {("forkmap.py", "os.fork")}


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
    proc = run_python(
        ["-c", PACKAGE_PROBE, str(SRC / "sinksim"), module],
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


# Module-level functions and classes of sinksim that nothing outside the tests
# calls, each with the reason it stays.
TEST_FACING = {
    ("scenario", "grid_crossing_hops"): (
        "criterion 9's reference: edge and diagonal crossings alternated at "
        "GRID_CROSSING_SPEED, delivered hop count only, which no route-sim preset writes"
    ),
    ("mac", "elect_next_hop"): "the ACK election that the routing walk is to run (ROADMAP item 2)",
}

# Annotated class fields of sinksim that nothing outside the tests reads,
# each with the reason it stays.
TEST_FACING_FIELDS = {
    ("radio", "Timeline", "clipped_us"): (
        "the overlap record of ROADMAP item 3: active time clipped where one node's "
        "spans overlap, which only the tests read until each node has one radio"
    ),
    ("routing", "RouteResult", "outcome"): (
        "the split between missed and failed walks that the README states; the sweeps "
        "and the scenario tell only delivered walks from the rest"
    ),
}


def non_test_sources():
    """The Python files of src/sinksim, scripts/ and bench/."""
    root = SRC.parent
    return [
        *sorted((SRC / "sinksim").glob("*.py")),
        *sorted((root / "scripts").glob("*.py")),
        *sorted((root / "bench").glob("*.py")),
    ]


def test_every_sinksim_definition_has_a_caller_outside_the_tests():
    # A reference is a name or attribute load in src/sinksim, scripts/ or
    # bench/, outside the definition's own body; a docstring mention is none.
    # Names are matched, not resolved, so a name that two modules define
    # counts as referenced for both.  An annotated class field needs an
    # `obj.field` load of its name anywhere in those files, its own class
    # included; a local or a parameter of the same name reads no field.
    paths = non_test_sources()
    definitions = []  # (module, name, where)
    fields = []  # (module, class, field)
    loaded = {}  # name -> every (path, top-level statement index) loading it
    read_fields = set()  # every attribute name loaded as obj.name
    for path in paths:
        for i, top in enumerate(ast.parse(path.read_text()).body):
            where = (path, i)
            if path.parent.name == "sinksim" and isinstance(
                top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                definitions.append((path.stem, top.name, where))
            for node in ast.walk(top):
                if path.parent.name == "sinksim" and isinstance(node, ast.ClassDef):
                    fields += [
                        (path.stem, node.name, field.target.id)
                        for field in node.body
                        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
                    ]
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.setdefault(node.id, set()).add(where)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.setdefault(node.attr, set()).add(where)
                    read_fields.add(node.attr)
    assert len(definitions) > 100
    unreferenced = {
        (module, name) for module, name, where in definitions if not loaded.get(name, set()) - {where}
    }
    assert unreferenced == set(TEST_FACING)
    assert len(fields) > 90
    assert {f for f in fields if f[2] not in read_fields} == set(TEST_FACING_FIELDS)


# Parameters with a default of sinksim functions that no call outside the
# tests passes, each with the reason it stays.
TEST_ONLY_KNOBS = {
    ("energy", "v_max_bs", "chord_m"): (
        "the sink's chord through the base station's range, twice the 25 m default "
        "range; a field at another range changes it (ROADMAP items 5 and 20)"
    ),
    ("flood", "simulate_flood", "collisions"): (
        "the lossy flood, which `flood-sim` is to count lost copies of (ROADMAP item 4(b))"
    ),
    ("frames", "ack_frame", "seq"): "the frame's sequence field, which criterion 11 round-trips",
    ("frames", "data_frame", "seq"): "the frame's sequence field, as `ack_frame` takes it",
}


def defined_functions(nodes, owner=None):
    """(function, the name a call names it by, its positional parameters
    that a call fills) of every function defined in `nodes`: a method skips
    its instance or class, and `__init__` is called by its class's name."""
    for node in nodes:
        if isinstance(node, ast.ClassDef):
            yield from defined_functions(node.body, node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            called = owner if node.name == "__init__" else node.name
            positional = [a.arg for a in node.args.posonlyargs + node.args.args]
            yield node, called, positional[owner is not None and not static:]
            yield from defined_functions(node.body)
        else:
            yield from defined_functions(ast.iter_child_nodes(node), owner)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # A parameter with a default, keyword-only or positional, is passed when a
    # call in src/sinksim, scripts/ or bench/ to a name or attribute of the
    # function's own name (its class's, for `__init__`) names it as a keyword,
    # reaches it by position or unpacks arguments; names are matched, not
    # resolved.  A knob that only tests turn shows up here.
    parameters = []  # (module, function, parameter, position or None)
    passed = set()  # (called name, keyword); None for ** unpacking
    reached = {}  # called name -> the most positional arguments a call passes
    for path in non_test_sources():
        tree = ast.parse(path.read_text())
        if path.parent.name == "sinksim":
            for node, called, positional in defined_functions(tree.body):
                first = len(positional) - len(node.args.defaults)
                parameters += [(path.stem, called, arg, i) for i, arg in enumerate(positional) if i >= first]
                parameters += [(path.stem, called, arg.arg, None) for arg in node.args.kwonlyargs]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                passed |= {(called, keyword.arg) for keyword in node.keywords}
                count = sys.maxsize if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
                reached[called] = max(reached.get(called, 0), count)
    assert len(parameters) >= 25
    unpassed = {
        (module, name, arg)
        for module, name, arg, i in parameters
        if not {(name, arg), (name, None)} & passed and (i is None or reached.get(name, 0) <= i)
    }
    assert unpassed == set(TEST_ONLY_KNOBS)


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
