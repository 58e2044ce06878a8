"""The bodies of the command-line subcommands, one `cmd_*` function each.

Each takes the parsed arguments and the protocol constants, computes
everything before it creates its output directory, and returns the exit
status.  Bad input raises ValueError, or another error that
:func:`sinksim.cli.main` reports as one `error:` line.  :mod:`sinksim.cli`
is the argparse front end that reads the INI file and dispatches here.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import List, Sequence

from . import __version__
from .core import MAX_NODE_ID, ProtocolConstants, duty_cycle
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
from .presets import discovered_graph
from .radio import E_PREAMB_MJ, POWER_TABLES, grid_topology, load_topology_csv, to_dot
from .scenario import ScenarioConfig, grid_point, nodes_for_degree, random_graph_point, run_scenario


def _check_analyze_divisors(c: ProtocolConstants) -> None:
    """Raise ValueError naming the first constant, or sum of constants, that
    `analyze`'s calculators divide by and that is not > 0: each calculator
    checks its own divisor."""
    duty_cycle(c)
    v_max_bs(c)
    v_max_network(c)


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
    """The --topology CSV, or else the --grid square.  A grid's --spacing and
    the --range-m are checked as `build_udg` checks a range, naming the option,
    and so is the grid's extent, which the pair test squares."""
    for option, value in (("--spacing", None if args.topology else args.spacing), ("--range-m", args.range_m)):
        if value is not None and not (0 <= value and value * value < math.inf):
            raise ValueError(f"{option} must be finite and >= 0 with a finite square, got {value}")
    if not args.topology:
        _at_least_one(args, "grid")
        # before the build, which takes seconds at a side of 300
        if args.grid * args.grid - 1 > MAX_NODE_ID:
            raise ValueError(f"--grid {args.grid} numbers nodes beyond id {MAX_NODE_ID}")
        extent = (args.grid - 1) * args.spacing
        if not extent * extent < math.inf:
            raise ValueError(
                f"--spacing {args.spacing} spreads --grid {args.grid} over {extent} m, whose square is not finite"
            )
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
    _at_least_one(args, "neighbors")
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


# The most contention windows one sweep may hold.  The default sweep holds
# 20; each window runs `--runs` draws per block, and at the default 100,000
# a window takes about 0.08 s for both blocks on a 2-core host (0.16 s with
# `--levels`), so 1,000 windows take 80 to 160 s.
MAX_WINDOWS = 1_000

# The most backoffs one window may draw per block, `--runs` x `--n`.  They are
# a stream, so the bound is one of time: at this bound one block of one window
# takes about 1.3 s on a 2-core host (1.7 s with `--levels`), and the 1e13
# backoffs of 100,000 runs of 1e8 contenders would take some two weeks.
MAX_DRAWS = 10_000_000

# The most replications one route-sim point may hold.  A point keeps every
# replication's draws and outcome at once: 0.67 kB per replication kept and
# 0.84 kB at the peak on the random-graph preset (degree 10, the four paired
# speeds in one process, each tour kept for the next speed) and 145-175 B on
# grid25, measured with tracemalloc.  At this bound a one-point random-graph
# run (degree 10, speed 50) peaked at 71 MB RSS in a process on 2 processes,
# and a grid25 run at 35 MB; 100 million grid25 runs ended in a MemoryError
# from the draw list under a 600 MB address cap.
MAX_RUNS = 100_000


def cmd_collisions(args, c: ProtocolConstants) -> int:
    # The window loop below never ends on an infinite bound, and a nan step
    # ends it after one window.
    for name in ("w_min_ms", "w_max_ms", "w_step_ms"):
        value = getattr(args, name)
        if not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be a finite number, got {value}")
    lo, hi, step = args.w_min_ms, args.w_max_ms, args.w_step_ms
    if step <= 0:
        raise ValueError("empty contention window sweep")
    # The window count is bounded before the loop starts, and a step that
    # rounding loses at some w would keep the loop there.
    top = hi + 1e-9
    if (top - lo) / step >= MAX_WINDOWS:
        raise ValueError(f"the contention window sweep holds more than {MAX_WINDOWS} windows")
    _at_least_one(args, "runs")
    if args.n < 0:
        raise ValueError(f"--n must be at least 0, got {args.n}")
    if args.runs * args.n > MAX_DRAWS:
        raise ValueError(f"--runs x --n is more than the {MAX_DRAWS:,} backoffs a window may draw")
    # ContentionConfig's bound, checked here to name the option: the step
    # W / (levels - 1) must be a float.
    if args.levels is not None and not 2 <= args.levels <= sys.float_info.max:
        raise ValueError(f"--levels must be from 2 to the largest float, about 1.8e308, got {args.levels}")
    if args.block_us is not None and not 0 < args.block_us < math.inf:
        raise ValueError(f"--block-us must be finite and > 0, got {args.block_us}")
    blocks = {"relay": c.d_rxtx, "ack": c.d_ack}
    if args.block_us is not None:
        blocks = {"custom": args.block_us}
    w_values = []
    w = lo
    while w <= top:
        w_values.append(round(w, 6))
        if w + step == w:
            raise ValueError(f"--w-step-ms {step} is lost to rounding at {w} ms")
        w += step
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
    _at_least_one(args, "runs")
    if args.runs > MAX_RUNS:
        raise ValueError(f"--runs {args.runs} is more than the {MAX_RUNS:,} replications a point may hold")
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
            tx_start = dict(report.transmissions)
            rows = [
                (nid, report.first_rx_us.get(nid, ""), tx_start.get(nid, "")) for nid in sorted(topo.positions)
            ]
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
    # Only what is written is kept, not the rotations' reports: the rows, the
    # first rotation's timeline and each delivered rotation's answer.
    rows = []
    first_timeline = None
    answers = []  # (query node, neighbors) of each delivered rotation
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
        if first_timeline is None:
            first_timeline = report.timeline
        if not report.miss:
            answers.append((query, report.neighbors))
        rows.append(
            (
                rotation,
                query,
                int(not report.miss),
                report.route.hops,
                report.route.restarts,
                ";".join(str(n) for n in report.neighbors),
                report.phase_times_us.get(1, ""),
                report.phase_times_us.get(4, ""),
                report.phase_times_us.get(6, ""),
            )
        )
        del report  # not held through the next rotation
    graph = discovered_graph(answers)
    timeline = [(nid, state, s, e) for nid, spans in first_timeline.spans().items() for s, e, state in spans]
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
    misses = len(rows) - len(answers)
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

