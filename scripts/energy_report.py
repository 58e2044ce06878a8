#!/usr/bin/env python3
"""Print the analytical energy and real-time report for both power settings."""

import sys

from sinksim.cli import main

if __name__ == "__main__":
    sys.exit(main(["analyze"]))
