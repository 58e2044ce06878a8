"""The fixed calibration loop that the benchmark's timings are divided by.

The benchmark was written on a shared 2-core KVM guest whose speed changed by
up to a half within seconds as other tenants came and went.  Host time of a
fixed piece of Python work, measured in the same process and the same
seconds, tracks those changes; sinksim's own cost is its time over the
loop's time.
"""

from __future__ import annotations

import time

# About the loop's median time on that guest (Xeon, Python 3.11.7): 6.13 ms
# over the 60 timed runs of trajectory/BENCH_1.json (`calibration_ms`).
# setup_s is set-up time in calibration loops times this constant: seconds on
# that guest at its median speed.  It defines the unit, so it must not change
# between commits.
REFERENCE_S = 0.006


def calibrate() -> float:
    """A few milliseconds of dict, tuple and float work, independent of sinksim."""
    table = {}
    acc = 0.0
    for i in range(20_000):
        pair = (i * 0.5, i % 97)
        table[i % 1024] = pair
        acc += pair[0] * pair[1]
    return acc


def loop_time_s(rounds: int = 10) -> float:
    """Mean time of one calibration loop over `rounds` back-to-back runs."""
    start = time.perf_counter()
    for _ in range(rounds):
        calibrate()
    return (time.perf_counter() - start) / rounds
