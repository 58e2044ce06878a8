from pathlib import Path

import pytest

from fresh_python import run_python

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

# Each script, the arguments that keep it small, and the files it names.
RUNS = {
    "collision_sweep.py": (
        ["200"],
        [
            f"out/collision_sweep/{mode}/{name}"
            for mode in ("continuous", "discrete362")
            for name in ("manifest.json", "collisions_relay.csv", "collisions_ack.csv")
        ],
    ),
    "routing_sweeps.py": (
        ["20"],
        [f"out/{name}/{file}" for name in ("random_graph", "grid_crossing") for file in ("manifest.json", "summary.csv")],
    ),
    "demo_rotations.py": ([], ["out/demo/manifest.json", "out/demo/rotations.csv", "out/demo/graph.dot"]),
    "energy_report.py": ([], []),
}


def run_script(name, args, cwd):
    return run_python(
        [str(SCRIPTS / name), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_every_script_is_covered():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_script_exits_0_and_writes_the_files_it_names(name, tmp_path):
    args, files = RUNS[name]
    proc = run_script(name, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    for file in files:
        assert (tmp_path / file).is_file(), file


@pytest.mark.parametrize("name", ["collision_sweep.py", "routing_sweeps.py"])
def test_a_script_stops_at_the_first_failing_sweep(name, tmp_path):
    proc = run_script(name, ["0"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: --runs must be at least 1, got 0"]
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []
