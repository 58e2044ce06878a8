"""Command-line front end: analytical reports, sweeps, scenarios, codec.

Subcommands: analyze, collisions, route-sim, flood-sim, demo, codec.  Every
run that writes files also writes a manifest.json next to them; rerunning
with the same manifest arguments reproduces byte-identical outputs.  A
command computes everything before it creates its output directory, and bad
input ends in one `error:` line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import List, Optional, Sequence

from . import __version__
from .core import (
    DEFAULT_CONSTANTS,
    ProtocolConstants,
    duty_cycle,
    validate_constants,
)
from .energy import RealTimeParams, lifetime_hours, phase_energy, v_max_bs, v_max_network
from .flood import simulate_flood
from .frames import (
    DataPayload,
    Frame,
    FrameKind,
    PreambleKind,
    ack_frame,
    data_frame,
    decode_data_payload,
    decode_frame,
    encode_frame,
    micro_frame,
)
from .mac import ContentionConfig, collision_probability, simulate_collision
from .radio import (
    E_PREAMB_MJ,
    POWER_TABLES,
    UnknownConfiguration,
    grid_topology,
    load_topology_csv,
    to_dot,
)
from .routing import RoutingError
from .scenario import (
    ScenarioConfig,
    discovered_graph,
    grid_point,
    nodes_for_degree,
    random_graph_point,
    run_scenario,
)

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


def _check_analyze_divisors(c: ProtocolConstants) -> None:
    """Raise ValueError naming the first constant, or sum of constants, that
    `analyze`'s calculators divide by and that is not > 0."""
    p = RealTimeParams()
    network = (
        p.flood_hops * (c.w_br + c.d_brp) + c.b_src + p.worst_hops * (c.d_rrp + c.w_rr + c.d_data)
    )
    for name, value in (
        ("t_cca", c.t_cca),  # duty_cycle
        ("t_dr + d_drp + d_data", c.t_dr + c.d_drp + c.d_data),  # v_max_bs
        (
            f"{p.flood_hops} (w_br + d_brp) + b_src + {p.worst_hops} (d_rrp + w_rr + d_data)",
            network,
        ),  # v_max_network
    ):
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value}")


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


def _write_manifest(out: Path, command: str, args: dict) -> None:
    manifest = {
        "tool": "sinksim",
        "version": __version__,
        "command": command,
        "args": {k: v for k, v in sorted(args.items()) if k != "func"},
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(f"{value:.6g}")
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _at_least_one(args, name: str) -> None:
    value = getattr(args, name)
    if value < 1:
        raise ValueError(f"--{name} must be at least 1, got {value}")


def _topology(args):
    """The --topology CSV, or else the --grid square."""
    if not args.topology:
        _at_least_one(args, "grid")
        return grid_topology(args.grid, args.spacing, args.range_m)
    # 25 m is the range measured at -25 dBm with the antennas 1 m high.
    range_m = 25.0 if args.range_m is None else args.range_m
    topo = load_topology_csv(args.topology, range_m)
    if not topo.positions:
        raise ValueError(f"no nodes in {args.topology}")
    return topo


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args, c: ProtocolConstants) -> int:
    if not (math.isfinite(args.battery_j) and args.battery_j >= 0):
        raise ValueError(f"--battery-j must be finite and at least 0, got {args.battery_j}")
    powers = [args.power] if args.power is not None else [0, -25]
    rows = []
    for dbm in powers:
        table = POWER_TABLES[dbm]
        pe = phase_energy(table, c, args.neighbors, E_PREAMB_MJ[dbm])
        rows.append(
            (
                f"{dbm}dBm",
                pe.e_preamb_mj,
                pe.e_tx_mj,
                pe.e_comp_mj,
                pe.e_rx_mj,
                lifetime_hours(args.battery_j, table.poll),
                lifetime_hours(args.battery_j, table.listen),
            )
        )
    duty = duty_cycle(c)
    vbs = v_max_bs(c)
    vnet = v_max_network(c)
    vnet_diag = v_max_network(c, RealTimeParams(traverse_m=190.0))
    header = (
        "power,e_preamb_mj,e_tx_mj,e_comp_mj,e_rx_mj,"
        "lifetime_sampling_h,lifetime_always_on_h"
    )
    if args.csv:
        print(header)
        for r in rows:
            print(",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in r))
        print(f"duty_cycle,{duty:.6g}")
        print(f"v_max_bs_kmh,{vbs:.6g}")
        print(f"v_max_network_kmh,{vnet:.6g}")
        print(f"v_max_network_diagonal_kmh,{vnet_diag:.6g}")
        return 0
    print(f"idle duty cycle          : {duty * 100:.2f} %")
    for r in rows:
        print(
            f"{r[0]:>7}: E_preamb {r[1]:.3f} mJ  E_tx {r[2]:.3f} mJ  "
            f"E_comp {r[3]:.3f} mJ  E_rx {r[4]:.3f} mJ"
        )
        print(
            f"         lifetime {args.battery_j:.0f} J: sampling {r[5]:.0f} h, "
            f"always-on {r[6]:.1f} h"
        )
    print(f"v_max (base station link): {vbs:.1f} km/h")
    print(f"v_max (network, edge)    : {vnet:.1f} km/h")
    print(f"v_max (network, diagonal): {vnet_diag:.1f} km/h")
    return 0


# ---------------------------------------------------------------------------
# collisions
# ---------------------------------------------------------------------------


def cmd_collisions(args, c: ProtocolConstants) -> int:
    if args.w_step_ms <= 0:
        raise ValueError("empty contention window sweep")
    _at_least_one(args, "runs")
    blocks = {"relay": c.d_rxtx, "ack": c.d_ack}
    if args.block_us is not None:
        blocks = {"custom": args.block_us}
    w_values = []
    w = args.w_min_ms
    while w <= args.w_max_ms + 1e-9:
        w_values.append(round(w, 6))
        w += args.w_step_ms
    # Each block sweeps only the windows that can hold it; every block needs one.
    tables = {}
    for name, block in sorted(blocks.items()):
        fitting = [w_ms for w_ms in w_values if w_ms * 1000.0 >= block]
        if not fitting:
            raise ValueError("empty contention window sweep")
        rows = tables[name] = []
        for w_ms in fitting:
            cfg = ContentionConfig(w_ms * 1000.0, block, args.n, discrete_levels=args.levels)
            closed = collision_probability(cfg)
            sim = simulate_collision(cfg, args.runs, rng_seed=args.seed)
            half = 3.0 * math.sqrt(max(closed * (1 - closed), 1e-12) / args.runs)
            rows.append((w_ms, closed, sim, max(sim - half, 0.0), min(sim + half, 1.0)))
    out = Path(args.out)
    _write_manifest(out, "collisions", vars(args))
    for name, rows in tables.items():
        path = out / f"collisions_{name}.csv"
        _write_csv(path, ["W_ms", "closed_form", "simulated", "ci_low", "ci_high"], rows)
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# route-sim
# ---------------------------------------------------------------------------


def _parse_number_list(text: str, cast=float) -> List:
    try:
        return [cast(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"bad number list {text!r}") from None


def _option_list(args, name: str, default: List[float]) -> List[float]:
    """The numbers of the list option `name`, or `default` when it is unset.
    A list that is given but holds no number is an error, not the default."""
    text = getattr(args, name)
    if text is None:
        return default
    numbers = _parse_number_list(text)
    if not numbers:
        raise ValueError(f"--{name} holds no number: {text!r}")
    return numbers


def cmd_route_sim(args, c: ProtocolConstants) -> int:
    presets = ("random-graph", "grid25")
    if args.preset not in presets:
        raise ValueError(f"unknown preset {args.preset!r}; choose from {presets}")
    _at_least_one(args, "runs")
    if args.preset == "random-graph":
        degrees = _option_list(args, "degrees", [4, 5, 6, 7, 8, 9, 10])
        speeds = _option_list(args, "speeds", [0, 10, 25, 50])
    else:
        if args.degrees is not None:
            raise ValueError("--degrees applies only to the random-graph preset")
        speeds = _option_list(args, "speeds", [1, 2, 3, 4, 6, 8])
        degrees = []
    for speed in speeds:
        if not 0 <= speed < math.inf:
            raise ValueError(f"--speeds must be finite and >= 0, got {speed}")
    for degree in degrees:
        try:
            nodes_for_degree(degree)
        except ValueError as exc:
            raise ValueError(f"--degrees: {exc}") from None
    if args.preset == "random-graph":
        # seed by degree only: speeds are compared on paired replications
        points = [
            random_graph_point(degree, speed, args.runs, args.seed + int(degree) * 1000)
            for degree in degrees
            for speed in speeds
        ]
    else:
        mobilities = ("edge", "diagonal") if args.mobility == "both" else (args.mobility,)
        points = [
            grid_point(
                mobility,
                speed,
                args.runs,
                args.seed + int(speed) * 10 + (0 if mobility == "edge" else 1),
                coord_mode=args.coord_mode,
            )
            for mobility in mobilities
            for speed in speeds
        ]
    rows = [
        (
            pt.mobility,
            pt.speed,
            "" if pt.degree is None else pt.degree,
            pt.mean_restarts,
            pt.restarts_ci95,
            pt.mean_hops,
            pt.hops_ci95,
            pt.miss_ratio,
        )
        for pt in points
    ]
    out = Path(args.out)
    _write_manifest(out, "route-sim", vars(args))
    path = out / "summary.csv"
    _write_csv(
        path,
        [
            "mobility",
            "speed_per_round",
            "degree_target",
            "mean_restarts",
            "restarts_ci95",
            "mean_hops_delivered",
            "hops_ci95",
            "miss_ratio",
        ],
        rows,
    )
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# flood-sim
# ---------------------------------------------------------------------------


def cmd_flood_sim(args, c: ProtocolConstants) -> int:
    _at_least_one(args, "runs")
    topo = _topology(args)
    for name in ("initiator", "source"):
        node = getattr(args, name)
        if node is not None and node not in topo.positions:
            raise ValueError(f"{name} {node} not in topology")
    summary = []
    for i in range(args.runs):
        report = simulate_flood(topo, args.initiator, source=args.source, c=c, seed=args.seed + i)
        max_rx = max(report.first_rx_us.values(), default=0)
        summary.append(
            (i, len(report.reached), len(report.transmissions), max_rx, report.completion_us)
        )
        if i == 0:
            rows = []
            for nid in sorted(topo.positions):
                rows.append(
                    (
                        nid,
                        report.first_rx_us.get(nid, ""),
                        report.tx_start_us.get(nid, ""),
                    )
                )
    out = Path(args.out)
    _write_manifest(out, "flood-sim", vars(args))
    _write_csv(out / "flood_timeline.csv", ["node", "first_rx_us", "tx_us"], rows)
    _write_csv(
        out / "flood_summary.csv",
        ["run", "reached", "transmissions", "max_first_rx_us", "completion_us"],
        summary,
    )
    print(f"wrote {out / 'flood_timeline.csv'} and {out / 'flood_summary.csv'}")
    return 0


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------


def cmd_demo(args, c: ProtocolConstants) -> int:
    _at_least_one(args, "rotations")
    topo = _topology(args)
    node_ids = sorted(topo.positions)
    reports = []
    rows = []
    for rotation in range(args.rotations):
        query = node_ids[rotation % len(node_ids)]
        cfg = ScenarioConfig(
            topology=topo,
            query_node=query,
            constants=c,
            ms_speed_mps=args.speed_mps,
            seed=args.seed + rotation,
        )
        report = run_scenario(cfg)
        reports.append(report)
        route = report.route
        rows.append(
            (
                rotation,
                query,
                int(not report.miss),
                route.hops,
                route.restarts,
                ";".join(str(n) for n in report.neighbors),
                report.phase_times_us.get(1, ""),
                report.phase_times_us.get(4, ""),
                report.phase_times_us.get(6, ""),
            )
        )
    graph = discovered_graph([r for r in reports if not r.miss])
    timeline = [(seg.node, seg.state, seg.start_us, seg.end_us) for seg in reports[0].timeline]
    out = Path(args.out)
    _write_manifest(out, "demo", vars(args))
    (out / "graph.dot").write_text(to_dot(graph, name="discovered"))
    _write_csv(out / "timeline.csv", ["node", "state", "start_us", "end_us"], timeline)
    _write_csv(
        out / "rotations.csv",
        [
            "rotation",
            "query_node",
            "delivered",
            "hops",
            "restarts",
            "neighbors",
            "phase1_us",
            "phase4_us",
            "phase6_us",
        ],
        rows,
    )
    misses = sum(1 for r in reports if r.miss)
    print(f"wrote {out / 'rotations.csv'} and {out / 'graph.dot'} ({misses} missed)")
    return 0


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


def _frame_summary(frame: Frame) -> str:
    parts = [f"kind={frame.kind.value}", f"seq=0x{frame.seq:02x}"]
    if frame.kind is FrameKind.MICRO_FRAME:
        parts.append(f"preamble={frame.preamble_kind().name}")
        parts.append(f"remaining={frame.remaining()}")
    parts.append(f"dest=0x{frame.dest:04x}")
    parts.append(f"src=0x{frame.src:04x}")
    if frame.kind is FrameKind.DATA:
        payload = decode_data_payload(frame.payload)
        parts.append(f"traversed={payload.traversed}")
        parts.append(f"neighbors={payload.neighbors}")
    elif frame.payload:
        parts.append(f"payload={frame.payload.hex()}")
    return " ".join(parts)


def cmd_codec(args, c: ProtocolConstants) -> int:
    if args.action == "decode":
        text = args.hex if args.hex else sys.stdin.read()
        print(_frame_summary(decode_frame(bytes.fromhex("".join(text.split())))))
        return 0
    if not 0 <= args.src <= 0xFFFF:
        raise ValueError(f"--src {args.src:#x} does not fit 16 bits")
    if args.kind == "micro":
        preamble = PreambleKind.__members__.get(args.preamble.upper())
        if preamble is None:
            raise ValueError(f"unknown preamble {args.preamble!r}; choose drp, brp or rrp")
        frame = micro_frame(preamble, args.remaining, args.src, args.query)
    elif args.kind == "ack":
        frame = ack_frame(args.src)
    else:
        payload = DataPayload(
            _parse_number_list(args.traversed, int) if args.traversed else [],
            _parse_number_list(args.neighbors, int) if args.neighbors else [],
        )
        frame = data_frame(args.src, payload)
    print(encode_frame(frame).hex())
    return 0


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
    p.add_argument("--preset", default="random-graph", help="random-graph or grid25")
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
