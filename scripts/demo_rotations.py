#!/usr/bin/env python3
"""Full six-phase rotations over a 16-node field, building the connectivity
graph one queried node at a time (out/demo/graph.dot)."""

import sys

from sinksim.cli import main

if __name__ == "__main__":
    sys.exit(main(["demo", "--grid", "4", "--rotations", "16", "--speed-mps", "7", "--out", "out/demo"]))
