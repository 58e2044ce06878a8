#!/usr/bin/env python3
"""Routing sweeps: restarts/hops on random graphs, miss ratio on the grid.

Pass a run count to trade precision for time (default 2000; the acceptance
suite uses 10000).  Stops at the first sweep that fails and exits with its
status.
"""

import sys

from sinksim.cli import main

if __name__ == "__main__":
    runs = sys.argv[1] if len(sys.argv) > 1 else "2000"
    for argv in (
        [
            "route-sim", "--preset", "random-graph",
            "--degrees", "4,5,6,7,8,9,10", "--speeds", "0,10,25,50",
            "--runs", runs, "--seed", "1", "--out", "out/random_graph",
        ],
        [
            "route-sim", "--preset", "grid25", "--mobility", "both",
            "--speeds", "1,2,3,4,6,8", "--runs", runs, "--seed", "1",
            "--out", "out/grid_crossing",
        ],
    ):
        status = main(argv)
        if status:
            sys.exit(status)
    print("summaries under out/random_graph/ and out/grid_crossing/")
