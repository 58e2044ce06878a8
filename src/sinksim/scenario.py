"""End-to-end mobile-sink scenarios: the six-phase run and the routing sweeps.

There is one routing walk, :func:`sinksim.routing.route`, driven by two
clocks:

* in the large routing sweeps one round is one unit of sink drift, and the
  round-based tracks of :mod:`sinksim.tracks` step once per round;
* in the event-time six-phase run of :func:`run_scenario` every duration
  comes from the protocol constant table, one round is one hop exchange, and
  the sink is observed at the exchange's ACK instant, a function of elapsed
  microseconds along its flight path.

The six phases of one collection rotation: (1) the base station's periodic
data-request preamble is caught by the mobile sink's channel sampling and
acknowledged; (2) the sink carries the query to the network and transmits
broadcast-request preambles until it hears one relayed; (3) the network
floods the request while the queried source node sits out the storm; (4) the
source routes its answer hop by hop toward the sink; (5) the sink
acknowledges the data; (6) back at the base station the sink answers the next
data-request preamble with the data.

A hop exchange writes each node's spans already filled, in time order, and
hands them to the rotation (:mod:`sinksim.timelines`); `_fill_gaps` then
fills each node that took part in an exchange once.  A node that took part
in none holds at most its flood relay, in the idle state: it polls all
along, and its totals and segment count are closed forms.  A rotation keeps
its timelines as a :class:`~sinksim.radio.Timeline` view: each node's
microseconds per state, added up while its spans are filled, with the base
station's request train priced in closed form.  Segments are built only when
the view is iterated.

The pieces that call no traced name live in their own modules: the sink
tracks (`tracks`), the timeline assembly (`timelines`), the sink's flight
over the network (`flight`) and the sweep presets (`presets`).  The names
this module uses, and those `bench/` reads from it, are bound here as well;
the rest import from their own module.  Every function that calls a name
`bench/tracer.py` wraps in `scenario` stays here, so that the wrapper sees
each call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .core import DEFAULT_CONSTANTS, MAX_NODE_ID, NodeId, Position, ProtocolConstants
from .flight import ConfigError, _first_cca_catch, _flight, _FlyingSink, _strip
from .flood import FloodEngine, FloodReport
from .forkmap import split_map
from .frames import MAX_ADDRESS_COUNT
from .mac import ack_backoff
from .presets import (
    GRID_BOUNDS,
    GRID_CROSSING_SPEED,
    GRID_FIELD_M,
    GRID_SIDE,
    GRID_SINK_VCOORD,
    GRID_SPACING_M,
    RANDOM_FIELD_M,
    RANDOM_RANGE_M,
    RANDOM_TOPOLOGIES,
    SweepPoint,
    _component_labels,
    _Outcome,
    _outcome,
    _sweep_point,
    nodes_for_degree,
)
from .radio import Segment, Span, Timeline, Topology, build_udg, euclid, grid_topology
from .routing import RouteResult, Tour, init_virtual_coords, route
from .stats import mean_ci
from .timelines import BS_ID, MS_ID, _base_station_totals, _fill_gaps, hop_exchange_timeline
from .tracks import BounceTrack, Replay, StaticSink, _check_speed, diagonal_line, edge_line, record

# Bound here for the names bench/tracer.py wraps here: next_hop_3rule and
# timeline_coverage.
from .routing import next_hop_3rule  # noqa: F401
from .timelines import timeline_coverage  # noqa: F401

# ---------------------------------------------------------------------------
# Six-phase scenario
# ---------------------------------------------------------------------------


# The longest round trip a rotation may fly.  The base station polls every
# t_dr (200 ms) all along, and a rotation's timeline lists every poll: an hour
# holds 18,000.  A 2,600 km round trip at 7 m/s (`demo --grid 2 --spacing
# 1e6`) held 3.7 million segments and took 1.1 GB and 20 s.  The round trip
# over the 12x12 grid at 25 m takes under 2 minutes.
MAX_ROUND_TRIP_S = 3_600


@dataclass
class ScenarioConfig:
    topology: Topology
    query_node: NodeId
    constants: ProtocolConstants = DEFAULT_CONSTANTS
    bs_position: Position = (-80.0, 37.5)
    ms_speed_mps: float = 7.0
    seed: int = 0
    # Set both to route on virtual coordinates toward the sink's fixed one;
    # with neither set, routing runs on the physical positions.
    virtual_coords: Optional[Mapping[NodeId, Position]] = None
    ms_virtual_coord: Optional[Position] = None
    hop_limit: Optional[int] = None  # route()'s round_limit: every round counts
    collisions: bool = False


@dataclass
class ScenarioReport:
    """Outcome of one rotation over [0, horizon_us].

    `timeline` is a read-only view: each node's microseconds per state and
    the active time clipped where its spans overlapped, both counted during
    assembly, and the segment count; iterating it builds the segments.
    """

    config_seed: int
    query_node: NodeId
    phase_times_us: Dict[int, int]
    route: Optional[RouteResult]
    miss: bool
    neighbors: List[NodeId]
    flood: Optional[FloodReport]
    timeline: Timeline
    horizon_us: int = 0


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    """One full collection rotation; deterministic for a given config."""
    topo = cfg.topology
    c = cfg.constants
    rng = random.Random(cfg.seed)
    if cfg.query_node not in topo.positions:
        raise ConfigError(f"query node {cfg.query_node} not in topology")
    if (cfg.virtual_coords is None) != (cfg.ms_virtual_coord is None):
        raise ConfigError("virtual_coords and ms_virtual_coord are set together or not at all")
    # timers the rotation divides by or draws offsets within
    for name in ("t_dr", "t_cca", "t_brp"):
        if getattr(c, name) <= 0:
            raise ConfigError(f"{name} must be > 0, got {getattr(c, name)}")
    if c.d_rrp < c.d_cca:
        raise ConfigError(f"d_rrp ({c.d_rrp}) must be >= d_cca ({c.d_cca})")

    view = topo.view
    for nid in (view.ids[0], view.ids[-1]):
        if not 0 <= nid <= MAX_NODE_ID:
            raise ConfigError(f"node id {nid} does not fit the one byte a DATA payload gives it")
    x0, y0, x1, y1 = view.bbox
    flight = _flight(topo, cfg.bs_position, cfg.ms_speed_mps, c.t_brp, c.d_brp)
    track, exit_dist = flight.track, flight.exit_dist
    if track.duration_us() > MAX_ROUND_TRIP_S * 1_000_000:
        raise ConfigError(
            f"the sink's round trip takes {track.duration_us() / 1e6:.4g} s, more than {MAX_ROUND_TRIP_S} s"
        )

    phase_times: Dict[int, int] = {}
    # Active (start, end, state) spans of the sink and of each node a hop
    # exchange involves; the flood relays stay in the flood report, and the
    # base station's train is built apart, after the horizon is known.
    ms_active: List[Span] = []
    active: Dict[NodeId, List[Span]] = {MS_ID: ms_active}

    # Phase 1: query handed from base station to sink.
    cca_offset = rng.randrange(c.t_cca)
    drp_end = _first_cca_catch(c, cca_offset, 0)
    phase_times[1] = drp_end + c.d_ack
    ms_active.append((drp_end, drp_end + c.d_ack, "tx"))
    fly_start = phase_times[1]

    def ms_pos(t_us: int) -> Position:
        if t_us <= fly_start:
            return cfg.bs_position
        return track.position_at(t_us - fly_start)

    def ms_departed(t_us: int) -> bool:
        return t_us > fly_start and track.distance_at(t_us - fly_start) >= exit_dist

    # Phases 2 and 3: the sink repeats its request preamble until it hears a
    # relayed copy; every preamble seeds whatever idle nodes are in range at
    # the time, and the flood runs interleaved with the retries.  Which nodes
    # those are, and when the sink has left, the flight keeps.
    engine = FloodEngine(
        topo, c, source=cfg.query_node, seed=rng.randrange(2**31), collisions=cfg.collisions
    )
    relay_heard: Optional[int] = None
    seeded = False
    scanned = 0
    inject, run_until, heard = engine.inject_reception, engine.run_until, flight.hearers
    transmissions = engine.report.transmissions
    t_brp, d_brp = c.t_brp, c.d_brp
    retries = 1_000_000
    # the passes before the sink can be heard only poll
    quiet = min(flight.quiet, retries)
    ms_active += [
        (fly_start + i * t_brp, fly_start + i * t_brp + d_brp, "poll") for i in range(quiet)
    ]
    for i in range(quiet, retries):
        brp_start = fly_start + i * t_brp
        brp_end = brp_start + d_brp
        # ascending ids: injection order sets the event order
        hearers = heard(i)
        if hearers is None:  # the sink has left
            if seeded:
                break  # query handed off; the sink flies on without hearing back
            raise ConfigError("sink crossed the network without being heard")
        if hearers:
            if not seeded:
                phase_times[2] = brp_end
            seeded = True
            for nid in hearers:
                inject(nid, brp_end)
        ms_active.append((brp_start, brp_end, "poll"))
        run_until(brp_start + t_brp)
        while scanned < len(transmissions):
            nid, ts = transmissions[scanned]
            scanned += 1
            if topo.in_range(nid, ms_pos(ts)):
                relay_heard = ts + d_brp
                break
        if relay_heard is not None:
            break
    if not seeded:
        raise ConfigError("sink never came within range of the network")
    flood_report = engine.run()
    if cfg.query_node not in flood_report.reached:
        raise ConfigError("flood never reached the queried node")
    phase_times[3] = max(flood_report.tx_end_us.values(), default=phase_times[2])

    # Phase 4: source routes the answer toward the moving sink, one hop
    # exchange per round of the routing walk.
    coords = topo.positions if cfg.virtual_coords is None else cfg.virtual_coords
    metric_max = max(euclid((x0, y0), (x1, y1)), 1.0) * 2
    # channel-check offsets are uniform in [0, d_rrp - d_cca]: randrange's
    # own rejection draw, inline, and the same stream
    cca_window = c.d_rrp - c.d_cca + 1
    getrandbits, cca_bits = rng.getrandbits, cca_window.bit_length()
    sink = _FlyingSink(ms_pos, ms_departed, flood_report.source_wait_expiry_us, c)

    def hop_exchange(current: NodeId, action, header) -> None:
        if action.kind not in ("deliver", "forward", "backtrack"):
            return  # no move: the packet waits the round out
        responders = []
        for nid in topo.adjacency[current]:
            # virtual coordinates live in an unbounded space; clamp the metric
            metric = min(euclid(coords[nid], header.dest_coord), metric_max)
            responders.append((nid, int(round(ack_backoff(metric, metric_max, c.w_rr)))))
        target = action.target
        if action.kind == "deliver":
            responders.append((MS_ID, 0))
            target = MS_ID
        cca = {}
        for nid, _ in sorted(responders):
            r = getrandbits(cca_bits)
            while r >= cca_window:
                r = getrandbits(cca_bits)
            cca[nid] = r
        exchange = hop_exchange_timeline(c, current, responders, target, sink.t, cca)
        for nid, spans in exchange.items():
            active.setdefault(nid, []).extend(spans)

    route_result = route(
        topo,
        coords,
        cfg.query_node,
        sink,
        sink_coord=cfg.ms_virtual_coord,
        round_limit=cfg.hop_limit,
        on_round=hop_exchange,
        # the answer carries the traversed list and the source's neighbors
        max_traversed=MAX_ADDRESS_COUNT - len(topo.adjacency[cfg.query_node]),
    )
    miss = not route_result.delivered
    horizon = sink.t
    if not miss:
        t = sink.t + sink.hop_us  # end of the delivering exchange
        phase_times[4] = t
        # Phase 5: sink acknowledges the data.
        ms_active.append((t, t + c.d_ack, "tx"))
        phase_times[5] = t + c.d_ack
        # Phase 6: back at the base station, answer the next request with data.
        arrival = fly_start + track.duration_us()
        drp_end = _first_cca_catch(c, cca_offset, max(arrival, phase_times[5]))
        ms_active.append((drp_end, drp_end + c.d_data, "tx"))
        phase_times[6] = drp_end + c.d_data
        horizon = phase_times[6]

    # Base station: request preambles all along, listening in between, its
    # totals in closed form.  Then every node in ascending id order, the
    # sink's among them, its untracked stretches in the idle sampling state.
    # A node that took part in no hop exchange holds at most its flood relay,
    # in that state too: it polls all along, its totals and segment count are
    # closed forms, and its spans are filled only when the view is iterated.
    # Every other node is filled once: its spans are added up here and kept
    # for the segments.
    bs_totals, length = _base_station_totals(c, horizon)
    totals = {BS_ID: bs_totals}
    clipped: Dict[NodeId, int] = {}
    filled: Dict[NodeId, List[Span]] = {}
    relay_start, relay_end = flood_report.tx_start_us, flood_report.tx_end_us
    order = [MS_ID, *view.ids]
    for nid in order:
        spans = active.get(nid)
        if spans is None:
            if horizon > 0:
                totals[nid] = {"poll": horizon}
                length += 1
                if nid in relay_start:  # relays start at 0 or later
                    s, e = relay_start[nid], min(relay_end[nid], horizon)
                    if s < e:  # the polling before and after the relay
                        length += (s > 0) + (e < horizon)
            else:
                totals[nid] = {}
            continue
        if nid in relay_start:
            spans.append((relay_start[nid], relay_end[nid], "poll"))
        filled[nid], totals[nid], cut = _fill_gaps(spans, 0, horizon, "poll")
        length += len(filled[nid])
        if cut:
            clipped[nid] = cut

    def segments() -> List[Segment]:
        polls = [(k, k + c.d_drp, "poll") for k in range(0, horizon, c.t_dr)]
        spans = {BS_ID: _fill_gaps(polls, 0, horizon, "listen")[0]}
        for nid in order:
            if nid in filled:
                spans[nid] = filled[nid]
            else:
                relay = [(relay_start[nid], relay_end[nid], "poll")] if nid in relay_start else []
                spans[nid] = _fill_gaps(relay, 0, horizon, "poll")[0]
        return [Segment(nid, state, s, e) for nid, ss in spans.items() for s, e, state in ss]

    return ScenarioReport(
        config_seed=cfg.seed,
        query_node=cfg.query_node,
        phase_times_us=phase_times,
        route=route_result,
        miss=miss,
        neighbors=list(topo.adjacency[cfg.query_node]),
        flood=flood_report,
        timeline=Timeline(totals, clipped, length, segments),
        horizon_us=horizon,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


# One replication's speed-free draws: (topology, source, sink start, track
# seed, coordinate seed).
_Replication = Tuple[Topology, NodeId, Position, int, int]

# The one set-up kept between calls, keyed by every argument that decides its
# draws: each replication next to its routing tour, as far as earlier calls
# grew it.  Sweeps walk all speeds of one degree in a row, so one entry serves
# them; it is emptied before a new set-up is drawn, so that two set-ups are
# never alive at once.
_SETUP_CACHE: Dict[tuple, List[Tuple[_Replication, Tour]]] = {}


def _random_graph_setup(
    n: int, runs: int, seed: int, field: float, range_m: float, topologies: int
) -> List[Tuple[_Replication, Tour]]:
    """The replications of a point and their tours, drawn or reused from the
    last call.

    Every topology's positions are drawn, so that the stream stays the same,
    but only those a replication uses are built.  A fresh tour holds only the
    source.
    """
    key = (n, runs, seed, field, range_m, topologies)
    setup = _SETUP_CACHE.get(key)
    if setup is not None:
        return setup
    _SETUP_CACHE.clear()
    rng = random.Random(seed)
    # rng.uniform(0, field) is 0 + (field - 0) * rng.random(), i.e. field * rng.random().
    draw = rng.random
    topos = []
    for t in range(topologies):
        positions = {i: (field * draw(), field * draw()) for i in range(n)}
        if t < runs:  # replication i uses topology i % topologies
            topo = build_udg(positions, range_m)
            label = _component_labels(topo.adjacency)
            members: Dict[int, List[NodeId]] = {}
            for nid in range(n):
                members.setdefault(label[nid], []).append(nid)
            order = sorted(topo.positions, key=topo.positions.__getitem__)
            points = [topo.positions[nid] for nid in order]
            topos.append((topo, [x for x, _ in points], points, [label[nid] for nid in order], members))

    r2 = float(range_m) ** 2
    setup = []
    for i in range(runs):
        topo, xs, points, labels, members = topos[i % topologies]
        # Redraw the sink until some node is in range of it; the source is
        # then uniform over the components of the nodes in range.  Only the
        # nodes in the sink's x strip can be.
        while True:
            sx, sy = field * draw(), field * draw()
            strip = _strip(xs, sx, range_m)
            heard = {
                lab for (x, y), lab in zip(points[strip], labels[strip]) if (x - sx) ** 2 + (y - sy) ** 2 <= r2
            }
            if heard:
                break
        # The ids of the heard components, ascending.
        ids = [members[lab] for lab in heard]
        source = rng.choice(ids[0] if len(ids) == 1 else sorted(nid for c in ids for nid in c))
        rep = (topo, source, (sx, sy), rng.randrange(2**31), rng.randrange(2**31))
        setup.append((rep, Tour([source])))
    _SETUP_CACHE[key] = setup
    return setup


def random_graph_point(
    degree: float,
    speed: float,
    runs: int,
    seed: int,
    *,
    workers: Optional[int] = None,
) -> SweepPoint:
    """One point of the random-graph sweep.

    Nodes are placed uniformly on the RANDOM_FIELD_M square with range
    RANDOM_RANGE_M, and the replications cycle over RANDOM_TOPOLOGIES
    topologies.  The sink starts at a uniform position in range of at least
    one node and drifts with the bounce model, and the message leaves a
    uniformly chosen node of the sink's component.
    Routing runs on per-replication random virtual coordinates aimed at the
    sink's fixed virtual coordinate (the field center); the round limit is
    one round per node, the sweep's simulation horizon.  Restarts average
    over all replications, hop counts over delivered ones only.

    The same `seed` re-draws the same topologies, sources, coordinates and
    sink tracks for every speed, so points that differ only in speed are
    paired: speed scales the per-round drift of an otherwise identical run.
    Consecutive calls with the same node count, `runs` and `seed` reuse the
    set-up the first one drew and only walk again; the results are those of
    a fresh draw.

    With the sink's virtual coordinate fixed, a replication's depth-first
    tour (:class:`sinksim.routing.Tour`) does not depend on the speed: speed
    decides only the round in which the scan along it delivers, restarts or
    runs out.  So the set-up memo keeps each replication's tour, grown as far
    as any call has walked it, and a later speed scans it again.  Its
    coordinates are made from the stored seed only when the tour has to grow
    further.  The degree must be finite and > 0, and its node count at most
    MAX_NODES (see :func:`nodes_for_degree`); a speed of 0 walks against a
    static sink, which a bounce at speed 0 is.

    The set-up is drawn in the calling process; the walks then run in
    contiguous slices over `workers` processes, all but the first forked
    (:func:`sinksim.forkmap.split_map`).  ``None`` takes the CPUs available,
    with at least 100 replications per worker.  Each walk sends back its
    outcome and the entries its tour grew, and the caller merges them into
    the memo in slice order.  The point is bit-identical for any worker
    count and any order of the speeds.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs!r}")
    _check_speed(speed)
    field = RANDOM_FIELD_M
    n = nodes_for_degree(degree)
    setup = _random_graph_setup(n, runs, seed, field, RANDOM_RANGE_M, RANDOM_TOPOLOGIES)

    bounds = ((0, field), (0, field))
    sink_coord = (field / 2, field / 2)

    def walk(item: Tuple[_Replication, Tour]) -> Tuple[_Outcome, Optional[tuple]]:
        (topo, source, start, track_seed, vc_seed), known = item
        # A copy, so that the caller's tours change only in the merge below.
        tour = Tour(list(known.entries), known.complete, known.overflow)
        # A bounce at speed 0 never moves: it is a static sink, without the draws.
        track = BounceTrack(start, speed, field, seed=track_seed) if speed else StaticSink(start)
        res = route(
            topo,
            lambda: init_virtual_coords(topo, vc_seed, bounds),
            source,
            track,
            sink_coord=sink_coord,
            round_limit=n,
            tour=tour,
        )
        grown = len(tour.entries) > len(known.entries) or tour.complete != known.complete
        added = (tour.entries[len(known.entries) :], tour.complete, tour.overflow)
        return _outcome(res), added if grown else None

    results = split_map(walk, setup, workers)
    for (_, tour), (_, grown) in zip(setup, results):
        if grown is not None:
            added, tour.complete, tour.overflow = grown
            tour.entries += added
    return _sweep_point("bounce", speed, degree, [outcome for outcome, _ in results])


def grid_point(
    mobility: str,
    speed: float,
    runs: int,
    seed: int,
    *,
    coord_mode: str = "virtual",
    workers: Optional[int] = None,
) -> SweepPoint:
    """One point of the regular-grid crossing sweep.

    The sink crosses the 5x5 grid in a straight line along one edge or the
    diagonal at a constant per-round speed; the source is uniform over the
    nodes.  Virtual mode (the default) draws fresh random coordinates per
    replication and aims at the sink's fixed virtual coordinate in the field
    center; physical mode routes on the true positions with a snapshot of the
    sink's position as destination.

    Each replication's source and coordinate seed are drawn up front, in the
    order of a serial sweep; the walks then run in `workers` slices as in
    :func:`random_graph_point`, and the point is bit-identical for any
    worker count.  The crossing draws nothing, so every walk of a point takes
    the same sink path: it is recorded once, before the workers fork, as far
    as the round limit of four rounds per node (:func:`sinksim.tracks.record`),
    and each walk replays it.
    """
    if mobility not in ("edge", "diagonal"):
        raise ValueError("grid mobility must be 'edge' or 'diagonal'")
    if coord_mode not in ("physical", "virtual"):
        raise ValueError(f"unknown coordinate mode {coord_mode!r}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs!r}")
    _check_speed(speed)
    rng = random.Random(seed)
    virtual = coord_mode == "virtual"
    # (source, coordinate seed or None)
    draws = [(rng.randrange(GRID_SIDE**2), rng.randrange(2**31) if virtual else None) for _ in range(runs)]
    make_track = edge_line if mobility == "edge" else diagonal_line
    return _sweep_point(mobility, speed, None, _crossing_walks([make_track], speed, draws, workers))


def grid_crossing_hops(
    runs: int, seed: int, *, workers: Optional[int] = None
) -> Tuple[float, float]:
    """Delivered-only mean hop count of the reference grid crossing.

    Pools edge and diagonal crossings at the reference per-round speed over
    per-replication random virtual coordinates; returns (mean, ci95).  The
    sources and coordinate seeds are drawn up front, the two crossings
    recorded once, and the walks split across `workers` as in
    :func:`grid_point`, bit-identical for any count.
    """
    rng = random.Random(seed)
    draws = [(rng.randrange(GRID_SIDE**2), rng.randrange(2**31)) for _ in range(runs)]
    outcomes = _crossing_walks([edge_line, diagonal_line], GRID_CROSSING_SPEED, draws, workers)
    return mean_ci([h for _, h in outcomes if h is not None])


def _crossing_walks(
    makes: List[Callable], speed: float, draws: List[Tuple[NodeId, Optional[int]]], workers: Optional[int]
) -> List[_Outcome]:
    """The outcomes of the walks on the 5x5 grid, one per (source,
    coordinate seed) of `draws`, walk i against the crossing that
    `makes[i % len(makes)]` makes at `speed`.

    Each crossing is recorded once, as far as the round limit of four rounds
    per node, and every walk replays it.  A seed routes on fresh virtual
    coordinates, made only if the walk moves at all, toward the sink's fixed
    one; None routes on the true positions.  The walks run in `workers`
    slices (:func:`sinksim.forkmap.split_map`).
    """
    g = grid_topology(GRID_SIDE, GRID_SPACING_M)
    limit = 4 * len(g)
    paths = [record(make(GRID_FIELD_M, speed), limit) for make in makes]

    def walk(i: int) -> _Outcome:
        source, vc_seed = draws[i]
        path = Replay(paths[i % len(paths)])
        if vc_seed is None:
            return _outcome(route(g, g.positions, source, path, round_limit=limit))
        return _outcome(
            route(
                g,
                lambda: init_virtual_coords(g, vc_seed, GRID_BOUNDS),
                source,
                path,
                sink_coord=GRID_SINK_VCOORD,
                round_limit=limit,
            )
        )

    return split_map(walk, range(len(draws)), workers)
