"""Command-line front end: analytical reports, sweeps, scenarios, codec.

Subcommands: analyze, collisions, route-sim, flood-sim, demo, codec.  Every
run that writes files also writes a manifest.json next to them; rerunning
with the same manifest arguments reproduces byte-identical outputs.  A
command computes everything before it creates its output directory, and bad
input ends in one `error:` line on stderr and exit status 2.

This module parses the command line and the INI file; the command bodies
are in :mod:`sinksim.commands`.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import fields, replace
from typing import Optional, Sequence

from . import __version__
from .commands import (
    _check_analyze_divisors,
    cmd_analyze,
    cmd_codec,
    cmd_collisions,
    cmd_demo,
    cmd_flood_sim,
    cmd_route_sim,
)
from .core import DEFAULT_CONSTANTS, ProtocolConstants, validate_constants
from .radio import UnknownConfiguration
from .routing import RoutingError

# The INI section that fills a command's options left unset on the command
# line, and the keys (option dests) it may hold.
SECTIONS = {
    "route-sim": ("sweep", ("preset", "mobility", "speeds", "degrees", "runs", "seed")),
    "demo": ("scenario", ("topology", "grid", "rotations", "speed_mps", "seed")),
}


def read_config(config_path: Optional[str]) -> configparser.ConfigParser:
    config = configparser.ConfigParser()
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            config.read_file(fh)
    return config


def _convert(section: str, key: str, text: str, cast):
    try:
        return cast(text)
    except ValueError:
        raise ValueError(f"[{section}] {key}: invalid {cast.__name__} value {text!r}") from None


def load_constants(config: configparser.ConfigParser) -> ProtocolConstants:
    """Constants from the [constants] section, defaults elsewhere."""
    known = {f.name for f in fields(ProtocolConstants)}
    overrides = {}
    if config.has_section("constants"):
        for key, value in config.items("constants"):
            if key not in known:
                raise ValueError(f"unknown key {key!r} in [constants]")
            overrides[key] = _convert("constants", key, value, int)
    return replace(DEFAULT_CONSTANTS, **overrides)



def _fill_from_section(parser, argv, args, config) -> argparse.Namespace:
    """`args` parsed again with the command's INI section as the command's
    defaults, so that each value fills only an option the command line left
    unset.  Each value goes through its option's own type; argparse checks
    no choices on defaults, so they are checked here.
    """
    name, keys = SECTIONS.get(args.command, ("", ()))
    if not config.has_section(name):
        return args
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    command = commands[args.command]
    actions = {a.dest: a for a in command._actions}
    defaults = {}
    for key, text in config.items(name):
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in [{name}]")
        action = actions[key]
        value = _convert(name, key, text, action.type or str)
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"[{name}] {key}: {text!r} is not one of {', '.join(action.choices)}")
        defaults[key] = value
    command.set_defaults(**defaults)
    return parser.parse_args(argv)



# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Rejects a command line with one `error:` line and exit status 2, like
    every other bad input; subcommand parsers are of this class too."""

    def error(self, message: str):
        self.exit(2, f"error: {' '.join(message.split())}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sinksim",
        description="mobile-sink sensor network simulator and analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"sinksim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="duty cycle, energy table, lifetimes, speed bounds")
    p.add_argument("--config", help="INI file with a [constants] section")
    p.add_argument("--power", type=int, choices=(0, -25), help="limit to one power setting")
    p.add_argument("--neighbors", type=int, default=5)
    p.add_argument("--battery-j", type=float, default=10_000.0)
    p.add_argument("--csv", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("collisions", help="contention window sweep, closed form vs Monte Carlo")
    p.add_argument("--config", help="INI file with a [constants] section")
    p.add_argument("--w-min-ms", type=float, default=2.0)
    p.add_argument("--w-max-ms", type=float, default=40.0)
    p.add_argument("--w-step-ms", type=float, default=2.0)
    p.add_argument("--n", type=int, default=5, help="contending neighbors")
    p.add_argument("--block-us", type=float, help="custom blocking width (default: both)")
    p.add_argument("--levels", type=int, help="discrete backoff levels (e.g. 362)")
    p.add_argument("--runs", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default="out/collisions")
    p.set_defaults(func=cmd_collisions)

    p = sub.add_parser("route-sim", help="routing sweeps over speed and degree")
    p.add_argument("--config", help="INI file with a [sweep] section")
    p.add_argument("--preset", default="random-graph", choices=("random-graph", "grid25"))
    p.add_argument("--mobility", default="both", choices=("edge", "diagonal", "both"))
    p.add_argument("--coord-mode", default="virtual", choices=("virtual", "physical"))
    p.add_argument("--speeds", help="comma-separated per-round speeds")
    p.add_argument("--degrees", help="comma-separated target degrees (random-graph)")
    p.add_argument("--runs", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default="out/route_sim")
    p.set_defaults(func=cmd_route_sim)

    p = sub.add_parser("flood-sim", help="blind flood timing on a topology")
    p.add_argument("--config", help="INI file with a [constants] section")
    p.add_argument("--topology", help="CSV id,x,y file")
    p.add_argument("--grid", type=int, default=5, help="grid side when no CSV given")
    p.add_argument("--spacing", type=float, default=25.0)
    p.add_argument("--range-m", type=float, default=None)
    p.add_argument("--initiator", type=int, default=0)
    p.add_argument("--source", type=int, default=None)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default="out/flood")
    p.set_defaults(func=cmd_flood_sim)

    p = sub.add_parser("demo", help="full six-phase rotations, connectivity graph discovery")
    p.add_argument("--config", help="INI file with [constants] and [scenario] sections")
    p.add_argument("--topology", help="CSV id,x,y file")
    p.add_argument("--grid", type=int, default=4, help="grid side when no CSV given")
    p.add_argument("--spacing", type=float, default=25.0)
    p.add_argument("--range-m", type=float, default=None)
    p.add_argument("--rotations", type=int, default=16)
    p.add_argument("--speed-mps", type=float, default=7.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default="out/demo")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("codec", help="encode/decode frames as hex")
    p.add_argument("action", choices=("encode", "decode"))
    p.add_argument("--hex", help="hex input for decode (default: stdin)")
    p.add_argument("--kind", choices=("micro", "ack", "data"), default="micro")
    p.add_argument("--preamble", default="drp", help="drp, brp or rrp")
    p.add_argument("--remaining", type=int, default=0)
    p.add_argument("--src", type=lambda s: int(s, 0), default=0)
    p.add_argument("--query", type=lambda s: int(s, 0), default=0)
    p.add_argument("--traversed", help="comma-separated node ids")
    p.add_argument("--neighbors", help="comma-separated node ids")
    p.set_defaults(func=cmd_codec)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = read_config(getattr(args, "config", None))
        args = _fill_from_section(parser, argv, args, config)
        # random.Random(-s) is seeded as Random(s), so a negative seed and its
        # offsets per run would repeat runs.
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be at least 0, got {args.seed}")
        c = load_constants(config)
        if args.func is cmd_analyze:
            _check_analyze_divisors(c)  # before the warning: nothing is printed yet
        violations = validate_constants(c)
        if violations:
            print(f"warning: constants violate: {', '.join(violations)}", file=sys.stderr)
        return args.func(args, c)
    except (ValueError, OverflowError, RoutingError, UnknownConfiguration, configparser.Error,
            OSError) as exc:
        # a KeyError's str() is the repr of its message
        text = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        if isinstance(exc, OverflowError):
            text = f"number too large: {exc}"
        print("error:", " ".join(str(text).split()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

