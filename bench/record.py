#!/usr/bin/env python3
"""Run the benchmark over several seeds, twice, and write one trajectory entry.

    python3 bench/record.py --seeds 0-9 --seconds 20 --out bench/trajectory/BENCH_1.json

For every workload it runs ``run.py --trace 0`` once per seed, in two sets
of the same seeds, and then one traced run.  Per set it records each
metric's values, median, quartiles and spread (interquartile range over the
median), the output digest and counts of every seed, and the machine.  It
compares the sets: each end-to-end metric's spread and the change of its
median from the first set to the second, against the metric's bound in
BENCHMARK.json.  It exits non-zero when a run reports incorrect outputs, a
seed's outputs differ between the sets, or a metric is outside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"
WORKLOADS = ("rg-sweep", "grid-sweep", "rotations")
SETS = 2
# figures that run.py prints beside the gated metrics
DETAIL_FIGURES = ("reps_per_s", "fail_ratio", "op_ms_p50", "op_ms_p95", "setup_host_s",
                  "calibration_ms")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    details = json.loads(lines[-2].removeprefix("details: "))
    return json.loads(lines[-1]), details


def describe(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def measure_set(workload: str, seeds: list, seconds: int) -> tuple:
    """Runs every seed once; returns the set's record and whether all were correct."""
    values, figures, outputs = {}, {}, {}
    correct, machine = True, None
    for seed in seeds:
        result, details = run(workload, seed, seconds, 0)
        correct = correct and result["correct"]
        machine = details["machine"]
        for name, m in result["metrics"].items():
            values.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        for name in DETAIL_FIGURES:
            if details.get(name) is not None:
                figures.setdefault(name, []).append(details[name])
        # outcome counts cover every repeat of the run, so compare them per repeat
        outputs[seed] = {
            "digest": details["digest"],
            "stats": details["stats"],
            **{f"{kind}_per_repeat": {m: n / details["repeats"] for m, n in details[kind].items()}
               for kind in ("failures", "expected")},
        }
        print(f"{workload} seed {seed}: "
              + ", ".join(f"{k} {m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
    record = {
        "metrics": {k: {"unit": v["unit"], **describe(v["values"])} for k, v in values.items()},
        "printed": {k: describe(v) for k, v in figures.items()},
        "outputs": outputs,
    }
    return record, correct, machine


def agreement(sets: list, bounds: dict) -> tuple:
    """Spread of each set and the median change between the first two sets, per metric."""
    table, ok = {}, True
    first, second = sets[0]["metrics"], sets[1]["metrics"]
    for name, bound in bounds.items():
        change = second[name]["median"] / first[name]["median"] - 1
        spreads = [s["metrics"][name]["spread"] for s in sets]
        # the spread of set-up time is not gated, only its median
        within = change <= bound and (name == "setup_s" or max(spreads) <= bound)
        ok = ok and within
        table[name] = {"bound": bound, "median_change": change, "spreads": spreads, "within": within}
        print(f"  {name:<14} spreads {' '.join(f'{x:.4f}' for x in spreads)}, "
              f"median change {change:+.4f}, bound {bound}: {'ok' if within else 'OUTSIDE'}")
    return table, ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--note", default="", help="what the entry measures, e.g. the commit")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    entry = {"note": args.note, "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    all_ok = True
    for workload in WORKLOADS:
        sets = []
        for _ in range(SETS):
            record, correct, entry["machine"] = measure_set(workload, seeds, args.seconds)
            all_ok = all_ok and correct
            sets.append(record)
        same = sets[0]["outputs"] == sets[1]["outputs"]
        print(f"{workload}: outputs {'identical' if same else 'DIFFER'} between the sets")
        table, within = agreement(sets, bounds)
        all_ok = all_ok and same and within
        entry["workloads"][workload] = {"sets": sets, "agreement": table, "outputs_identical": same}
    result, details = run(WORKLOADS[0], seeds[0], args.seconds, 1)
    all_ok = all_ok and result["correct"]
    entry["traced"] = {"seed": seeds[0], "metrics": result["metrics"], "details": details}
    entry["ok"] = all_ok
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}; ok: {all_ok}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
