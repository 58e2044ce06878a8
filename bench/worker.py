"""One benchmark process: set-up only, a timed run, or a traced run.

Started by ``run.py`` in a fresh interpreter per workload; prints one JSON
object on its last stdout line.

    python3 bench/worker.py setup --workload W --seed S
    python3 bench/worker.py run   --workload W --seed S --seconds T
    python3 bench/worker.py trace --workload W --seed S --seconds T

A run repeats the workload's operation list in a closed loop until the time
is up.  Between operations, at least every CALIBRATE_EVERY_S, it runs the
calibration loop (see calibration.py) and reports operation costs in units
of that loop's mean time in the same run as well as in seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sinksim  # noqa: E402
import sinksim.cli  # noqa: E402,F401  (part of what set-up measures)

import workloads  # noqa: E402
from calibration import calibrate  # noqa: E402

SPANS_DIR = ROOT / ".bench_out"
NOT_REPEATED = "output differs between repeats"
CALIBRATE_EVERY_S = 0.05


class Runner:
    """Repeats one workload's operations and keeps their outcomes."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = workload.ops()
        self.op_s = [0.0] * len(self.ops)  # summed over repeats
        self.op_samples_ms = []  # every repeat of every operation that returned
        self.calibration_s = []
        self._calibrated_at = 0.0
        self.records = [None] * len(self.ops)  # of the first repeat
        self.repeats = 0
        self.reps = 0
        self.failures = Counter()  # unexpected errors and broken invariants, in reps
        self.expected = Counter()  # outcomes the model produces by design, in reps
        self.failed_reps = 0  # reps of operations with either
        self.stats = Counter()  # of the first repeat

    def repeat(self, tracer=None) -> float:
        """Run every operation once; returns the summed operation time."""
        clock = time.perf_counter
        first = self.repeats == 0
        total = 0.0
        for i, op in enumerate(self.ops):
            if clock() - self._calibrated_at >= CALIBRATE_EVERY_S:
                c0 = clock()
                calibrate()
                self._calibrated_at = clock()
                self.calibration_s.append(self._calibrated_at - c0)
            if tracer is not None:
                tracer.op = f"{self.repeats}:{i}"
            exc = result = None
            t0 = clock()
            try:
                result = op.call()
            except Exception as e:  # every failure is counted, none stops the run
                exc = e
            seconds = clock() - t0
            total += seconds
            self.op_s[i] += seconds
            if exc is None:
                self.op_samples_ms.append(seconds * 1e3)
            self._tally(i, op, result, exc, first)
        self.repeats += 1
        return total

    def _tally(self, i, op, result, exc, first) -> None:
        self.reps += op.reps
        failed = False
        if exc is not None:
            failed = True
            expected = workloads.expected_failure(exc)
            if expected is not None:
                self.expected[expected] += op.reps
            else:
                self.failures[f"{type(exc).__name__}: {exc}"] += op.reps
            record = f"{op.label} raised {type(exc).__name__}: {exc}"
        else:
            out = op.check(result)
            for problem in out.problems:
                self.failures[problem] += op.reps
            for note in out.expected:
                self.expected[note] += op.reps
            failed = bool(out.problems or out.expected)
            if first:
                self.stats.update(out.stats)
            record = f"{op.label} {out.record}"
        if first:
            self.records[i] = record
        elif record != self.records[i]:
            self.failures[NOT_REPEATED] += op.reps
            failed = True
        if failed:
            self.failed_reps += op.reps

    def busy_s(self) -> float:
        return sum(self.op_s)

    def summary(self) -> dict:
        lat = sorted(self.op_samples_ms)
        cal = sum(self.calibration_s) / len(self.calibration_s)
        digest = hashlib.sha256("\n".join(self.records).encode()).hexdigest()
        return {
            "repeats": self.repeats,
            "ops": len(self.ops),
            "reps": self.reps,
            "busy_s": self.busy_s(),
            "calibration_ms": cal * 1e3,
            "calibrations": len(self.calibration_s),
            "rep_cost_cal": self.busy_s() / self.reps / cal,
            "op_ms_p50": percentile(lat, 0.50) if lat else None,
            "op_ms_p95": percentile(lat, 0.95) if lat else None,
            "op_ms_n": len(lat),
            "failed_reps": self.failed_reps,
            "failures": dict(self.failures),
            "expected": dict(self.expected),
            "stats": dict(self.stats),
            "digest": digest,
        }


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of sorted values."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed(runner: Runner, seconds: float) -> dict:
    started = time.perf_counter()
    while True:
        runner.repeat()
        if time.perf_counter() - started >= seconds:
            return runner.summary()


def traced(runner: Runner, seconds: float) -> dict:
    """Alternate untraced and traced repeats; keep the least disturbed trace.

    The overhead is the traced minus the untraced busy time; both sides run
    the same number of repeats, interleaved, so host speed changes cancel.
    The kept trace's spans go to ``.bench_out/``.
    """
    from tracer import Tracer

    traced_best = None
    traced_ops = Runner(runner.workload)
    started = time.perf_counter()
    while True:
        runner.repeat()
        tracer = Tracer()
        with tracer.installed():
            total = traced_ops.repeat(tracer)
        if traced_best is None or total < traced_best[0]:
            traced_best = (total, tracer)
        if time.perf_counter() - started >= seconds and runner.repeats >= 2:
            break
    tracer = traced_best[1]
    workload = runner.workload
    spans = SPANS_DIR / f"spans-{workload.name}-seed{workload.seed}.csv.gz"
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write(spans)
    result = traced_ops.summary()
    result.update(
        spans=str(spans.relative_to(ROOT)),
        untraced_busy_s=runner.busy_s(),
        untraced_digest=runner.summary()["digest"],
        untraced_failures=dict(runner.failures),
        layers=tracer.layers(),
        route_hops=tracer.route_hops,
        route_rounds=tracer.route_rounds,
    )
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()

    if not Path(sinksim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: sinksim imported from {sinksim.__file__}, not from this tree", file=sys.stderr)
        return 2
    runner = Runner(workloads.WORKLOADS[args.workload](args.seed))
    if args.mode == "setup":
        result = {"ops": len(runner.ops)}
    elif args.mode == "run":
        result = timed(runner, args.seconds)
    else:
        result = traced(runner, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
