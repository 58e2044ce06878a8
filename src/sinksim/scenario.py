"""End-to-end mobile-sink scenarios: the six-phase run and the routing sweeps.

There is one routing walk, :func:`sinksim.routing.route`, driven by two
clocks:

* in the large routing sweeps one round is one unit of sink drift: the
  walk reads one state of a round-based track of :mod:`sinksim.tracks`
  per round;
* in the event-time six-phase run of :func:`run_scenario` every duration
  comes from the protocol constant table, one round is one hop exchange, and
  the sink's state is observed at the exchange's ACK instant, a function of
  elapsed microseconds along its flight path (:mod:`sinksim.flight`).

The six phases of one collection rotation: (1) the base station's periodic
data-request preamble is caught by the mobile sink's channel sampling and
acknowledged; (2) the sink carries the query to the network and transmits
broadcast-request preambles until it hears one relayed; (3) the network
floods the request while the queried source node sits out the storm; (4) the
source routes its answer hop by hop toward the sink; (5) the sink
acknowledges the data; (6) back at the base station the sink answers the next
data-request preamble with the data.

Each node's radio states over the rotation are assembled into one
:class:`~sinksim.radio.Timeline` view (:mod:`sinksim.timelines`).

The pieces that call no traced name live in their own modules: the sweeps'
round-based sink tracks (`tracks`), the timeline assembly (`timelines`),
the six-phase run's three-leg flight over the network (`flight`) and the
sweep presets (`presets`).  The names this module uses, and those `bench/`
reads from it, are bound here as well; the rest import from their own
module.  Every function that calls a name `bench/tracer.py` wraps in
`scenario` stays here, so that the wrapper sees each call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count, repeat
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .core import DEFAULT_CONSTANTS, MAX_NODE_ID, NodeId, Position, ProtocolConstants
from .flight import MAX_PASSES, ConfigError, _first_cca_catch, _flight, _hearers
from .flood import FloodEngine, FloodReport
from .forkmap import split_call
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
from .radio import Span, Topology, build_udg, euclid, grid_topology
from .routing import RouteResult, Tour, init_virtual_coords, route
from .stats import mean_ci
from .timelines import BS_ID, MS_ID, hop_exchange_timeline, rotation_timeline
from .tracks import _check_speed, bounce, line_crossing

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
    collisions: bool = False


@dataclass
class ScenarioReport:
    """Outcome of one rotation over [0, horizon_us].

    `timeline` is the rotation's :class:`sinksim.radio.Timeline` view, made
    by :func:`sinksim.timelines.rotation_timeline`.
    """

    config_seed: int
    query_node: NodeId
    phase_times_us: Dict[int, int]
    route: RouteResult
    miss: bool
    neighbors: List[NodeId]
    flood: FloodReport
    timeline: "Timeline"
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
    if flight.duration_us > MAX_ROUND_TRIP_S * 1_000_000:
        raise ConfigError(
            f"the sink's round trip takes {flight.duration_us / 1e6:.4g} s, more than {MAX_ROUND_TRIP_S} s"
        )
    # A sink gone by the end of the last pass it may send finds some pass
    # before it heard or gone, so phases 2 and 3 end within the cap.
    if not flight.departed((MAX_PASSES - 1) * c.t_brp + c.d_brp):
        raise ConfigError(
            f"t_brp = {c.t_brp} us is too short: the sink's {MAX_PASSES} request passes"
            " end before it leaves the network"
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

    # Phases 2 and 3: the sink repeats its request preamble until it hears a
    # relayed copy; every preamble seeds whatever idle nodes are in range at
    # the time, and the flood runs interleaved with the retries.  Which nodes
    # those are, and when the sink has left, the flight keeps.
    engine = FloodEngine(
        topo, c, source=cfg.query_node, seed=rng.randrange(2**31), collisions=cfg.collisions
    )
    quiet = flight.quiet
    if flight.hearers(quiet) is None:
        raise ConfigError("sink crossed the network without being heard")
    t_brp, d_brp = c.t_brp, c.d_brp
    phase_times[2] = fly_start + quiet * t_brp + d_brp
    # the passes before the sink is heard only poll
    ms_active += [
        (fly_start + i * t_brp, fly_start + i * t_brp + d_brp, "poll") for i in range(quiet)
    ]
    scanned = 0
    inject, run_until, heard = engine.inject_reception, engine.run_until, flight.hearers
    transmissions, in_range = engine.report.transmissions, topo.in_range
    for i in range(quiet, MAX_PASSES):
        brp_start = fly_start + i * t_brp
        brp_end = brp_start + d_brp
        # ascending ids: injection order sets the event order
        hearers = heard(i)
        if hearers is None:
            break  # query handed off; the sink flies on without hearing back
        for nid in hearers:
            inject(nid, brp_end)
        ms_active.append((brp_start, brp_end, "poll"))
        run_until(brp_start + t_brp)
        # the sink hears the first relay it is in range of, and stops
        if any(in_range(nid, flight.position(ts - fly_start)) for nid, ts in transmissions[scanned:]):
            break
        scanned = len(transmissions)
    flood_report = engine.run()
    if cfg.query_node not in flood_report.reached:
        raise ConfigError("flood never reached the queried node")
    # the end of the last relay: relays are booked in start order, and every
    # one lasts d_brp
    phase_times[3] = transmissions[-1][1] + d_brp if transmissions else phase_times[2]

    # Phase 4: source routes the answer toward the moving sink.  Round k of
    # the routing walk is the hop exchange starting at start + k * hop_us,
    # whether or not it sends a frame, and the walk observes the sink at the
    # exchange's ACK instant, d_rrp after its start.
    start, hop_us = flood_report.source_wait_expiry_us, c.d_rrp + c.w_rr + c.d_data
    ack_dts = count(start + c.d_rrp - fly_start, hop_us)  # from the sink's set-off
    sink = ((flight.position(dt), flight.departed(dt)) for dt in ack_dts)
    coords = topo.positions if cfg.virtual_coords is None else cfg.virtual_coords
    metric_max = max(euclid((x0, y0), (x1, y1)), 1.0) * 2
    # channel-check offsets are uniform in [0, d_rrp - d_cca]: randrange's
    # own rejection draw, inline, and the same stream
    cca_window = c.d_rrp - c.d_cca + 1
    getrandbits, cca_bits = rng.getrandbits, cca_window.bit_length()

    def hop_exchange(k: int, current: NodeId, target: Optional[NodeId], dest: Position) -> None:
        responders = []
        for nid in topo.adjacency[current]:
            # virtual coordinates live in an unbounded space; clamp the metric
            metric = min(euclid(coords[nid], dest), metric_max)
            responders.append((nid, int(round(ack_backoff(metric, metric_max, c.w_rr)))))
        if target is None:  # delivery: the sink answers with metric 0
            responders.append((MS_ID, 0))
            target = MS_ID
        cca = {}
        for nid, _ in sorted(responders):
            r = getrandbits(cca_bits)
            while r >= cca_window:
                r = getrandbits(cca_bits)
            cca[nid] = r
        exchange = hop_exchange_timeline(c, current, responders, target, start + k * hop_us, cca)
        for nid, spans in exchange.items():
            active.setdefault(nid, []).extend(spans)

    route_result = route(
        topo,
        coords,
        cfg.query_node,
        sink,
        sink_coord=cfg.ms_virtual_coord,
        on_round=hop_exchange,
        # the answer carries the traversed list and the source's neighbors
        max_traversed=MAX_ADDRESS_COUNT - len(topo.adjacency[cfg.query_node]),
    )
    miss = not route_result.delivered
    horizon = start + route_result.rounds * hop_us
    if not miss:
        t = horizon + hop_us  # end of the delivering exchange
        phase_times[4] = t
        # Phase 5: sink acknowledges the data.
        ms_active.append((t, t + c.d_ack, "tx"))
        phase_times[5] = t + c.d_ack
        # Phase 6: back at the base station, answer the next request with data.
        arrival = fly_start + flight.duration_us
        drp_end = _first_cca_catch(c, cca_offset, max(arrival, phase_times[5]))
        ms_active.append((drp_end, drp_end + c.d_data, "tx"))
        phase_times[6] = drp_end + c.d_data
        horizon = phase_times[6]

    return ScenarioReport(
        config_seed=cfg.seed,
        query_node=cfg.query_node,
        phase_times_us=phase_times,
        route=route_result,
        miss=miss,
        neighbors=list(topo.adjacency[cfg.query_node]),
        flood=flood_report,
        timeline=rotation_timeline(c, horizon, active, dict(flood_report.transmissions), view.ids),
        horizon_us=horizon,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


# A replication's draws past its topology: (source, sink start, track seed, coordinate seed).
_Placement = Tuple[NodeId, Position, int, int]


class _Drawn(NamedTuple):
    """A random-graph topology and what its placements read: each node's
    component label and each component's ids."""

    topology: Topology
    labels: List[int]  # each node's component label, by id
    members: Dict[int, List[NodeId]]  # each component's ids, ascending


def _draw_topology(n: int, seed: int, t: int, field: float, range_m: float) -> _Drawn:
    """Topology `t` of the random-graph set-up of `n` nodes and `seed`: the
    nodes uniform on the `field` square, drawn from the topology's own stream."""
    draw = random.Random(f"{seed}/topology/{t}").random
    # rng.uniform(0, field) is 0 + (field - 0) * rng.random(), i.e. field * rng.random().
    topo = build_udg({i: (field * draw(), field * draw()) for i in range(n)}, range_m)
    labels = _component_labels(topo.adjacency)
    members: Dict[int, List[NodeId]] = {}
    for nid, lab in enumerate(labels):
        members.setdefault(lab, []).append(nid)
    return _Drawn(topo, labels, members)


def _place_sink(drawn: _Drawn, seed: int, i: int, field: float) -> _Placement:
    """Replication `i`'s placement on its topology, from the replication's
    own stream of the set-up of `seed`."""
    rng = random.Random(f"{seed}/placement/{i}")
    draw = rng.random
    topo, labels = drawn.topology, drawn.labels
    # Redraw the sink until some node is in range of it; the source is then
    # uniform over the components of the nodes in range.
    while True:
        sx, sy = field * draw(), field * draw()
        heard = {labels[nid] for nid in _hearers(topo.positions, topo.range_m, (sx, sy))}
        if heard:
            break
    # The ids of the heard components, ascending.
    ids = [drawn.members[lab] for lab in heard]
    source = rng.choice(ids[0] if len(ids) == 1 else sorted(nid for c in ids for nid in c))
    return source, (sx, sy), rng.randrange(2**31), rng.randrange(2**31)


@dataclass
class _SetUp:
    """What this process has made of one random-graph set-up."""

    built: Dict[int, _Drawn]  # by topology index
    # (sink x, sink y, track seed, coordinate seed, tour), the tour grown by
    # the walks here; its first entry is the source
    replications: Dict[int, Tuple[float, float, int, int, Tour]]


# The one set-up kept between calls, keyed by the node count and seed, which
# decide every draw.  Every process keeps its own and makes in it only what
# its slices walk: their topologies, and their replications' placements and
# tours.  Sweeps walk all speeds of one degree in a row, so one entry serves
# them; it is emptied before a new set-up starts, so that two set-ups are
# never alive at once.
_SETUP_CACHE: Dict[Tuple[int, int], _SetUp] = {}


def _walk_order(runs: int, topologies: int) -> List[int]:
    """The replications, those of each topology (i % topologies) in a row,
    so that contiguous slices of the order share few topologies."""
    return [i for t in range(min(runs, topologies)) for i in range(t, runs, topologies)]


def _check_runs_and_seed(runs: int, seed: int) -> None:
    """Reject a count or seed that is not an int (a bool is not), and runs < 1."""
    for name, value in (("runs", runs), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs!r}")


def random_graph_point(degree: float, speed: float, runs: int, seed: int) -> SweepPoint:
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

    Each topology's positions, and each replication's placement (sink
    start, source, track seed and coordinate seed), come from a
    `random.Random` of their own, keyed by `seed`, the kind and the index
    (:func:`_draw_topology`, :func:`_place_sink`): a replication's draws
    depend on the node count, `seed` and its index only.  So the same `seed`
    re-draws the same topologies, sources, coordinates and sink tracks for
    every speed, and points that differ only in speed are paired: speed
    scales the per-round drift of an otherwise identical run.  Consecutive
    calls with the same node count and `seed` reuse the set-up memo and only
    walk again; the results are those of a fresh draw.

    With the sink's virtual coordinate fixed, a replication's depth-first
    tour (:class:`sinksim.routing.Tour`) does not depend on the speed: speed
    decides only the round in which the scan along it delivers, restarts or
    runs out.  So the set-up memo keeps each replication's tour, grown as far
    as any walk of it has gone, and a later speed scans it again.  Its
    coordinates are made from the stored seed only when the tour has to grow
    further.  The degree must be finite and > 0, and its node count at most
    MAX_NODES (see :func:`nodes_for_degree`); `runs` and `seed` must be ints
    and `runs` >= 1.  A speed of 0 walks against a static sink, which a
    bounce at speed 0 is.

    The replications are walked grouped by topology (:func:`_walk_order`),
    in contiguous slices, one per CPU with at least MIN_SLICE per worker:
    the caller walks the first, and each persistent forked worker is sent
    the point's arguments and its slice (:func:`sinksim.forkmap.split_call`).
    Each process makes in its own memo only the topologies and placements
    of the replications its slices walk, the first time it walks them, and
    grows those tours there (:func:`_random_graph_walks`).  The point is
    bit-identical for any worker count and any order of speeds.
    """
    _check_runs_and_seed(runs, seed)
    _check_speed(speed)
    n = nodes_for_degree(degree)
    walked = split_call(_random_graph_walks, (n, speed, runs, seed), runs)
    outcomes = [outcome for _, outcome in sorted(zip(_walk_order(runs, RANDOM_TOPOLOGIES), walked))]
    return _sweep_point("bounce", speed, degree, outcomes)


def _random_graph_walks(n: int, speed: float, runs: int, seed: int, lo: int, hi: int) -> List[_Outcome]:
    """The outcomes of walks `lo` to `hi`, in walk order, of the
    random-graph point with `n` nodes.  A walk draws its topology and its
    placement into this process's memo the first time a walk here needs
    them, and grows its tour there."""
    field, range_m, topologies = RANDOM_FIELD_M, RANDOM_RANGE_M, RANDOM_TOPOLOGIES
    setup = _SETUP_CACHE.get((n, seed))
    if setup is None:
        _SETUP_CACHE.clear()
        setup = _SETUP_CACHE[(n, seed)] = _SetUp({}, {})
    built, replications = setup.built, setup.replications
    bounds = ((0, field), (0, field))
    sink_coord = (field / 2, field / 2)

    def walk(i: int) -> _Outcome:
        t = i % topologies
        if t not in built:
            built[t] = _draw_topology(n, seed, t, field, range_m)
        if i not in replications:
            source, (sx, sy), track_seed, vc_seed = _place_sink(built[t], seed, i, field)
            replications[i] = (sx, sy, track_seed, vc_seed, Tour([source]))
        topo = built[t].topology
        sx, sy, track_seed, vc_seed, tour = replications[i]
        start, source = (sx, sy), tour.entries[0]
        # A bounce at speed 0 never moves: it is a static sink, without the draws.
        states = bounce(start, speed, field, seed=track_seed) if speed else repeat((start, False))
        res = route(
            topo,
            lambda: init_virtual_coords(topo, vc_seed, bounds),
            source,
            states,
            sink_coord=sink_coord,
            round_limit=n,
            tour=tour,
        )
        return _outcome(res)

    return [walk(i) for i in _walk_order(runs, topologies)[lo:hi]]


# The end of each grid crossing, which starts at the origin: along one side
# of the square field (the shortest connected time) or corner to corner (the
# longest).
_CROSSING_ENDS = {"edge": (GRID_FIELD_M, 0.0), "diagonal": (GRID_FIELD_M, GRID_FIELD_M)}


def grid_point(
    mobility: str,
    speed: float,
    runs: int,
    seed: int,
    *,
    coord_mode: str = "virtual",
) -> SweepPoint:
    """One point of the regular-grid crossing sweep.

    The sink crosses the 5x5 grid in a straight line along one edge or the
    diagonal at a constant per-round speed; the source is uniform over the
    nodes.  Virtual mode (the default) draws fresh random coordinates per
    replication and aims at the sink's fixed virtual coordinate in the field
    center; physical mode routes on the true positions with a snapshot of the
    sink's position as destination.

    Each replication's source and coordinate seed are drawn in the order of
    a serial sweep, and the walks run in slices as in
    :func:`random_graph_point` (:func:`_crossing_walks`): the point is
    bit-identical for any worker count.
    """
    if mobility not in _CROSSING_ENDS:
        raise ValueError("grid mobility must be 'edge' or 'diagonal'")
    if coord_mode not in ("physical", "virtual"):
        raise ValueError(f"unknown coordinate mode {coord_mode!r}")
    _check_runs_and_seed(runs, seed)
    _check_speed(speed)
    args = ((mobility,), speed, seed, coord_mode == "virtual")
    return _sweep_point(mobility, speed, None, split_call(_crossing_walks, args, runs))


def grid_crossing_hops(runs: int, seed: int) -> Tuple[float, float]:
    """Delivered-only mean hop count of the reference grid crossing.

    Pools edge and diagonal crossings at the reference per-round speed over
    per-replication random virtual coordinates; returns (mean, ci95).  The
    sources and coordinate seeds are drawn, and the walks split across
    processes, as in :func:`grid_point`, bit-identical for any count.

    No `route-sim` preset writes this figure; it stays a function of its own
    because it is criterion 9's reference.  That criterion pools the two
    crossings, alternated walk by walk at `GRID_CROSSING_SPEED`, and reads
    only the hop count of the delivered walks, which no :class:`SweepPoint`
    of :func:`grid_point` reports.
    """
    _check_runs_and_seed(runs, seed)
    args = (tuple(_CROSSING_ENDS), GRID_CROSSING_SPEED, seed, True)
    outcomes = split_call(_crossing_walks, args, runs)
    return mean_ci([h for _, h in outcomes if h is not None])


def _crossing_walks(
    crossings: Tuple[str, ...], speed: float, seed: int, virtual: bool, lo: int, hi: int
) -> List[_Outcome]:
    """The outcomes of walks `lo` to `hi` on the 5x5 grid, walk i against
    the crossing `crossings[i % len(crossings)]` (a key of `_CROSSING_ENDS`)
    from the field's corner at the origin at `speed`.

    Walk i's source and, if `virtual`, coordinate seed are the i-th of the
    draws that `seed` gives in the order of a serial sweep; this process
    draws them as far as `hi`.  Each crossing is recorded once per call, as
    far as the round limit of four rounds per node
    (:func:`sinksim.tracks.line_crossing`), and every walk iterates it.  A
    seed routes on fresh virtual coordinates, made only if the walk moves at
    all, toward the sink's fixed one; without one the walk routes on the
    true positions.
    """
    rng = random.Random(seed)
    # (source, coordinate seed or None)
    draws = [(rng.randrange(GRID_SIDE * GRID_SIDE), rng.randrange(2**31) if virtual else None) for _ in range(hi)]
    g = grid_topology(GRID_SIDE, GRID_SPACING_M)
    limit = 4 * len(g)
    paths = [line_crossing((0.0, 0.0), _CROSSING_ENDS[name], speed, limit) for name in crossings]

    def walk(i: int) -> _Outcome:
        source, vc_seed = draws[i]
        path = paths[i % len(paths)]
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

    return [walk(i) for i in range(lo, hi)]
