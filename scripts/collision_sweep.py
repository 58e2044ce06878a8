#!/usr/bin/env python3
"""Contention-window sweep: closed form vs Monte Carlo, both blocking widths.

Writes CSV curves for the relay case (blocking width = rx->tx switch) and the
ACK case (blocking width = one ACK), in continuous mode and in the 362-level
discrete mode of the node hardware's random generator.  Stops at the first
sweep that fails and exits with its status.
"""

import sys

from sinksim.cli import main

OUT = "out/collision_sweep"

if __name__ == "__main__":
    runs = sys.argv[1] if len(sys.argv) > 1 else "100000"
    for mode, levels in (("continuous", []), ("discrete362", ["--levels", "362"])):
        status = main(
            [
                "collisions",
                "--w-min-ms", "2", "--w-max-ms", "40", "--w-step-ms", "2",
                "--n", "5", "--runs", runs, "--seed", "1", *levels,
                "--out", f"{OUT}/{mode}",
            ]
        )
        if status:
            sys.exit(status)
    print(f"curves under {OUT}/")
