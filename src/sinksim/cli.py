"""Command-line front end: analytical reports, sweeps, scenarios, codec.

Subcommands: analyze, collisions, route-sim, flood-sim, demo, codec.  Every
run that writes files also writes a manifest.json next to them; rerunning
with the same manifest arguments reproduces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import List, Optional, Sequence

from . import __version__
from .core import (
    DEFAULT_CONSTANTS,
    ProtocolConstants,
    duty_cycle,
    replace_constants,
    validate_constants,
)
from .energy import RealTimeParams, lifetime_hours, phase_energy, v_max_bs, v_max_network
from .flood import simulate_flood
from .frames import (
    DataPayload,
    Frame,
    FrameError,
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
    grid_topology,
    load_topology_csv,
    to_dot,
)
from .scenario import (
    ScenarioConfig,
    discovered_graph,
    grid_point,
    random_graph_point,
    run_scenario,
)


def read_config(config_path: Optional[str]) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    if config_path:
        if not parser.read(config_path):
            raise SystemExit(f"error: cannot read config file {config_path}")
    return parser


def load_constants(config_path: Optional[str]) -> ProtocolConstants:
    """Constants from an INI file's [constants] section, defaults elsewhere."""
    parser = read_config(config_path)
    overrides = {}
    if parser.has_section("constants"):
        known = {f.name for f in fields(ProtocolConstants)}
        for key, value in parser.items("constants"):
            if key not in known:
                raise SystemExit(f"error: unknown constant {key!r} in {config_path}")
            overrides[key] = int(value)
    c = replace_constants(DEFAULT_CONSTANTS, **overrides)
    violations = validate_constants(c)
    if violations:
        print(f"warning: constants violate: {', '.join(violations)}", file=sys.stderr)
    return c


def apply_sweep_config(args, config_path: Optional[str]) -> None:
    """Fill route-sim arguments from a [sweep] section where not given."""
    parser = read_config(config_path)
    if not parser.has_section("sweep"):
        return
    section = parser["sweep"]
    if args.speeds is None and "speeds" in section:
        args.speeds = section["speeds"]
    if args.degrees is None and "degrees" in section:
        args.degrees = section["degrees"]
    if "preset" in section:
        args.preset = section["preset"]
    if "mobility" in section:
        args.mobility = section["mobility"]
    if "runs" in section:
        args.runs = section.getint("runs")
    if "seed" in section:
        args.seed = section.getint("seed")


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


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    c = load_constants(args.config)
    if args.battery_j < 0:
        raise SystemExit(f"error: --battery-j must be at least 0, got {args.battery_j}")
    powers = [args.power] if args.power is not None else [0, -25]
    rows = []
    for dbm in powers:
        table = POWER_TABLES[dbm]
        try:
            pe = phase_energy(table, c, args.neighbors, E_PREAMB_MJ[dbm])
        except ValueError as exc:  # no neighbors, or more ACKs than the window holds
            raise SystemExit(f"error: --neighbors {args.neighbors}: {exc}")
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


def cmd_collisions(args) -> int:
    c = load_constants(args.config)
    if args.w_step_ms <= 0:
        raise SystemExit("error: empty contention window sweep")
    if args.runs < 1:
        raise SystemExit(f"error: --runs must be at least 1, got {args.runs}")
    blocks = {"relay": c.d_rxtx, "ack": c.d_ack}
    if args.block_us is not None:
        blocks = {"custom": args.block_us}
    w_values = []
    w = args.w_min_ms
    while w <= args.w_max_ms + 1e-9:
        w_values.append(round(w, 6))
        w += args.w_step_ms
    # Each block sweeps only the windows that can hold it; every block needs
    # one, and every configuration is checked before anything is written.
    sweeps = {}
    for name, block in sorted(blocks.items()):
        fitting = [w_ms for w_ms in w_values if w_ms * 1000.0 >= block]
        if not fitting:
            raise SystemExit("error: empty contention window sweep")
        try:
            sweeps[name] = [
                (w_ms, ContentionConfig(w_ms * 1000.0, block, args.n, discrete_levels=args.levels))
                for w_ms in fitting
            ]
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    out = Path(args.out)
    _write_manifest(out, "collisions", vars(args))
    for name, sweep in sweeps.items():
        rows = []
        for w_ms, cfg in sweep:
            closed = collision_probability(cfg)
            sim = simulate_collision(cfg, args.runs, rng_seed=args.seed)
            half = 3.0 * math.sqrt(max(closed * (1 - closed), 1e-12) / args.runs)
            rows.append((w_ms, closed, sim, max(sim - half, 0.0), min(sim + half, 1.0)))
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
        raise SystemExit(f"error: bad number list {text!r}")


def cmd_route_sim(args) -> int:
    apply_sweep_config(args, args.config)
    out = Path(args.out)
    presets = ("random-graph", "grid25")
    if args.preset not in presets:
        raise SystemExit(f"error: unknown preset {args.preset!r}; choose from {presets}")
    if args.runs < 1:
        raise SystemExit(f"error: --runs must be at least 1, got {args.runs}")
    if args.preset == "random-graph":
        degrees = _parse_number_list(args.degrees) if args.degrees else [4, 5, 6, 7, 8, 9, 10]
        speeds = _parse_number_list(args.speeds) if args.speeds else [0, 10, 25, 50]
    else:
        speeds = _parse_number_list(args.speeds) if args.speeds else [1, 2, 3, 4, 6, 8]
        degrees = []
    for speed in speeds:
        if not 0 <= speed < math.inf:
            raise SystemExit(f"error: --speeds must be finite and >= 0, got {speed}")
    for degree in degrees:
        if not 0 < degree < math.inf:
            raise SystemExit(f"error: --degrees must be finite and > 0, got {degree}")
    _write_manifest(out, "route-sim", vars(args))
    rows = []
    if args.preset == "random-graph":
        for degree in degrees:
            for speed in speeds:
                # seed by degree only: speeds are compared on paired replications
                pt = random_graph_point(degree, speed, args.runs, args.seed + int(degree) * 1000)
                rows.append(
                    (
                        pt.mobility,
                        pt.speed,
                        pt.degree,
                        pt.mean_restarts,
                        pt.restarts_ci95,
                        pt.mean_hops,
                        pt.hops_ci95,
                        pt.miss_ratio,
                    )
                )
    else:
        mobilities = ("edge", "diagonal") if args.mobility == "both" else (args.mobility,)
        for mobility in mobilities:
            for speed in speeds:
                pt = grid_point(
                    mobility,
                    speed,
                    args.runs,
                    args.seed + int(speed) * 10 + (0 if mobility == "edge" else 1),
                    coord_mode=args.coord_mode,
                )
                rows.append(
                    (
                        pt.mobility,
                        pt.speed,
                        "",
                        pt.mean_restarts,
                        pt.restarts_ci95,
                        pt.mean_hops,
                        pt.hops_ci95,
                        pt.miss_ratio,
                    )
                )
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


def cmd_flood_sim(args) -> int:
    c = load_constants(args.config)
    if args.topology:
        topo = load_topology_csv(args.topology, args.range_m or 25.0)
    else:
        topo = grid_topology(args.grid, args.spacing, args.range_m)
    if args.initiator not in topo.positions:
        raise SystemExit(f"error: initiator {args.initiator} not in topology")
    out = Path(args.out)
    _write_manifest(out, "flood-sim", vars(args))
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


def apply_scenario_config(args, config_path: Optional[str]) -> None:
    """Fill demo arguments from a [scenario] section where not overridden."""
    parser = read_config(config_path)
    if not parser.has_section("scenario"):
        return
    section = parser["scenario"]
    if args.topology is None and "topology" in section:
        args.topology = section["topology"]
    if "rotations" in section:
        args.rotations = section.getint("rotations")
    if "speed_mps" in section:
        args.speed_mps = section.getfloat("speed_mps")
    if "seed" in section:
        args.seed = section.getint("seed")
    if "grid" in section:
        args.grid = section.getint("grid")


def cmd_demo(args) -> int:
    c = load_constants(args.config)
    apply_scenario_config(args, args.config)
    if args.topology:
        topo = load_topology_csv(args.topology, args.range_m or 25.0)
    else:
        topo = grid_topology(args.grid, args.spacing, args.range_m)
    out = Path(args.out)
    _write_manifest(out, "demo", vars(args))
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
    (out / "graph.dot").write_text(to_dot(graph, name="discovered"))
    if reports:
        _write_csv(
            out / "timeline.csv",
            ["node", "state", "start_us", "end_us"],
            [
                (seg.node, seg.state, seg.start_us, seg.end_us)
                for seg in reports[0].timeline
            ],
        )
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


def cmd_codec(args) -> int:
    if args.action == "decode":
        text = args.hex if args.hex else sys.stdin.read()
        try:
            summary = _frame_summary(decode_frame(bytes.fromhex("".join(text.split()))))
        except ValueError as exc:  # a non-hex digit, or any FrameError
            raise SystemExit(f"error: cannot decode frame: {exc}")
        print(summary)
        return 0
    if not 0 <= args.src <= 0xFFFF:
        raise SystemExit(f"error: --src {args.src:#x} does not fit 16 bits")
    try:
        if args.kind == "micro":
            preamble = PreambleKind.__members__.get(args.preamble.upper())
            if preamble is None:
                raise SystemExit(
                    f"error: unknown preamble {args.preamble!r}; choose drp, brp or rrp"
                )
            frame = micro_frame(preamble, args.remaining, args.src, args.query)
        elif args.kind == "ack":
            frame = ack_frame(args.src)
        else:
            payload = DataPayload(
                _parse_number_list(args.traversed, int) if args.traversed else [],
                _parse_number_list(args.neighbors, int) if args.neighbors else [],
            )
            frame = data_frame(args.src, payload)
        encoded = encode_frame(frame)
    except FrameError as exc:
        raise SystemExit(f"error: cannot encode frame: {exc}")
    print(encoded.hex())
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--config", help="INI file with a [constants] section")
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
