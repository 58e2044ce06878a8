#!/usr/bin/env python3
"""sinksim benchmark: one workload per call, timed or traced.

    python3 bench/run.py --workload rotations --seed 0 --seconds 20 --trace 0

Run it from the root of a source tree.  ``--trace 0`` measures the
end-to-end metrics of the named workload; ``--trace 1`` is the separate
traced run, which traces all three workloads so that every per-layer metric
is measured, and reports the tracing overhead.  Each workload runs in a fresh
single-threaded interpreter (``worker.py``).  Human-readable lines come first;
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Spans of the traced run go to ``.bench_out/``; the
traced run fails when a traced layer records no calls.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("rg-sweep", "grid-sweep", "rotations")
SETUP_REPEATS = 5  # set-up time is the median of this many fresh interpreters
CHILD_TIMEOUT_S = 120  # beyond the measured seconds

# Per-layer spans reported for each workload: the layers it exercises.
TRACED_LAYERS = {
    "rg-sweep": (
        "scenario.random_graph_point",
        "radio.build_udg",
        "routing.init_virtual_coords",
        "routing.route",
        "routing.next_hop_3rule",
    ),
    "grid-sweep": (
        "scenario.grid_point",
        "routing.init_virtual_coords",
        "routing.route",
        "routing.next_hop_3rule",
    ),
    "rotations": (
        "scenario.run_scenario",
        "scenario.hop_exchange_timeline",
        "scenario.timeline_coverage",
        "flood.FloodEngine.run_until",
        "mac.ack_backoff",
        "energy.integrate_timeline",
        "routing.next_hop_3rule",
    ),
}
IMPORT_PACKAGES = ("sinksim", "scipy", "numpy")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, seconds: float = 0) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-s", *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S + seconds,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(args[:2])} exited with {proc.returncode}")
    return proc


def run_worker(mode: str, workload: str, seed: int, seconds: float = 0, *extra: str) -> dict:
    args = [str(WORKER), mode, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = run_child(args + list(extra), seconds)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times() -> dict:
    """Cumulative import seconds of the outermost import of each package."""
    proc = run_child(["-X", "importtime", "-c", "import sinksim, sinksim.cli"])
    entries = []  # (depth, name, cumulative us), children before parents
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(2)), m.group(3), int(m.group(1))))
    totals = {}
    for pkg in IMPORT_PACKAGES:
        total = 0
        stack = []  # (depth, inside a matching import) of the enclosing entries
        for depth, name, cum in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = bool(stack) and stack[-1][1]
            match = name == pkg or name.startswith(pkg + ".")
            if match and not inside:
                total += cum
            stack.append((depth, inside or match))
        totals[pkg] = total / 1e6
    return totals


def machine() -> dict:
    src = ROOT / "src" / "sinksim"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "sinksim_source_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py"))
        ),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def show(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}".rstrip())


def show_outcomes(res: dict) -> None:
    for kind in ("failures", "expected"):
        for message, reps in sorted(res[kind].items()):
            print(f"    {kind}: {message}: {reps}")


def timed(args) -> tuple:
    imports = import_times()  # also compiles bytecode and warms the file cache
    setups, relative = [], []  # host seconds, and over the calibration loop around them
    for _ in range(SETUP_REPEATS):
        before = calibration.loop_time_s()
        t0 = time.perf_counter()
        run_worker("setup", args.workload, args.seed)
        setups.append(time.perf_counter() - t0)
        relative.append(setups[-1] / ((before + calibration.loop_time_s()) / 2))
    res = run_worker("run", args.workload, args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    reps = res["reps"]
    metrics = {
        "setup_s": metric(statistics.median(relative) * calibration.REFERENCE_S, "s"),
        "rep_cost_cal": metric(res["rep_cost_cal"], "cal"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    print(f"{args.workload}: seed {args.seed}, {res['ops']} operations repeated "
          f"{res['repeats']} times, {reps} reps; calibration loop {res['calibration_ms']:.4f} ms "
          f"(mean of {res['calibrations']})")
    print("end to end")
    for name, m in metrics.items():
        show(name, m["value"], m["unit"])
    show("reps_per_s", reps / res["busy_s"], "1/s", "(host time, not normalised)")
    show("fail_ratio", res["failed_reps"] / reps, "ratio", f"({res['failed_reps']} of {reps})")
    show_outcomes(res)
    if args.workload == "rotations":
        for q in ("p50", "p95"):
            show(f"rotation_ms_{q}", res[f"op_ms_{q}"], "ms", f"(n={res['op_ms_n']} rotations)")
    show("setup_host_s", statistics.median(setups), "s", "(host time, not normalised)")
    print(f"setup runs (s): {' '.join(f'{s:.4f}' for s in setups)}")
    print("import time, cumulative: " + ", ".join(f"{k} {v:.4f} s" for k, v in imports.items()))
    print(f"outputs: digest {res['digest']}")
    print(f"  counts {json.dumps(res['stats'], sort_keys=True)}")
    details = {
        "reps_per_s": reps / res["busy_s"],
        "fail_ratio": res["failed_reps"] / reps,
        "setup_host_s": statistics.median(setups),
        "setup_runs_s": setups,
        "calibration_ms": res["calibration_ms"],
        "import_s": imports,
        **{k: res[k] for k in ("repeats", "reps", "failures", "expected",
                               "op_ms_p50", "op_ms_p95", "op_ms_n", "digest", "stats")},
    }
    failed = sum(res["failures"].values())
    return not res["failures"], reps, failed, metrics, details


def traced(args) -> tuple:
    imports = import_times()
    metrics = {f"import.{k}_s": metric(v, "s") for k, v in imports.items()}
    correct, attempted, failed = True, 0, 0
    details = {"import_s": imports}
    budget = args.seconds / len(WORKLOADS)
    for workload in WORKLOADS:
        res = run_worker("trace", workload, args.seed, budget)
        untraced_s = res["untraced_busy_s"]
        overhead = res["busy_s"] - untraced_s
        same = res["digest"] == res["untraced_digest"]
        correct = correct and same and not res["failures"] and not res["untraced_failures"]
        attempted += res["reps"]
        failed += sum(res["failures"].values())
        layers = res["layers"]
        print(f"{workload}: {res['repeats']} traced repeats, spans in {res['spans']}")
        print(f"  traced {res['busy_s']:.4f} s, untraced {untraced_s:.4f} s, "
              f"overhead {overhead:.4f} s ({overhead / untraced_s:+.1%}); "
              f"outputs {'identical' if same else 'DIFFER'}")
        show_outcomes(res)
        silent = [name for name in TRACED_LAYERS[workload] if name not in layers]
        if silent:
            raise SystemExit(f"error: {workload}: no calls traced in {', '.join(silent)}")
        for name in TRACED_LAYERS[workload]:
            row = layers[name]
            metrics[f"{workload}.{name}.calls"] = metric(row["calls"], "count")
            metrics[f"{workload}.{name}.self_s"] = metric(row["self_s"], "s")
        stats = res["stats"]
        if workload == "rotations":
            metrics[f"{workload}.scenario.timeline_segments"] = metric(stats["segments"], "count")
            metrics[f"{workload}.flood.transmissions"] = metric(stats["flood_tx"], "count")
            metrics[f"{workload}.flood.coverage_ratio"] = metric(
                stats["flood_reached"] / stats["flood_nodes"], "ratio"
            )
        else:
            metrics[f"{workload}.routing.moves_per_round"] = metric(
                res["route_hops"] / res["route_rounds"], "ratio"
            )
        metrics[f"{workload}.trace.overhead_s"] = metric(overhead, "s")
        details[workload] = {
            "overhead_ratio": overhead / untraced_s,
            **{k: res[k] for k in ("repeats", "digest", "failures", "expected")},
        }
    print("per layer")
    for name, m in metrics.items():
        show(name, m["value"], m["unit"])
    return correct, attempted, failed, metrics, details


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sinksim" / "__init__.py").is_file():
        print(f"error: no sinksim source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    info = machine()
    print("machine: " + json.dumps(info, sort_keys=True))
    correct, attempted, failed, metrics, details = (traced if args.trace else timed)(args)
    details.update(workload=args.workload, seed=args.seed, trace=args.trace, machine=info)
    print("details: " + json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
