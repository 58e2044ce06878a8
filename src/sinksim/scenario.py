"""End-to-end mobile-sink scenarios and sink mobility models.

There is one routing walk, :func:`sinksim.routing.route`, driven by two
clocks:

* in the large routing sweeps one round is one unit of sink drift, and the
  round-based tracks below step once per round;
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

Radio activity is recorded as a per-node timeline of (state, start, end)
segments which partitions each node's simulated time; un-involved stretches
are the idle sampling state.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from scipy.stats import t as t_dist

from .core import DEFAULT_CONSTANTS, NodeId, Position, ProtocolConstants
from .flood import FloodEngine, FloodReport
from .mac import ack_backoff
from .radio import Topology, build_udg, euclid, grid_topology
from .routing import (  # noqa: F401  next_hop_3rule stays bound for bench/tracer.py
    RouteResult,
    VirtualCoords,
    init_virtual_coords,
    next_hop_3rule,
    route,
)

MS_ID = -1  # mobile sink pseudo node in timelines
BS_ID = -2  # base station pseudo node in timelines


# ---------------------------------------------------------------------------
# Sink mobility (round-based tracks)
# ---------------------------------------------------------------------------


class StaticSink:
    """Sink that never moves; `route` fails instead of restarting against it."""

    def __init__(self, position: Position):
        self.position = (float(position[0]), float(position[1]))
        self.departed = False

    def step(self) -> None:
        pass


class BounceTrack:
    """Random drift bouncing off the field borders like a billiard ball.

    Each round both coordinates advance by independent uniform draws in
    [0, speed_max] along the current diagonal direction; hitting a border
    flips that direction component.
    """

    def __init__(
        self,
        position: Position,
        speed_max: float,
        field_size: float = 1000.0,
        seed: int = 0,
    ):
        self.position = (float(position[0]), float(position[1]))
        self.speed_max = float(speed_max)
        self.field_size = float(field_size)
        self.rng = random.Random(seed)
        self.direction = (self.rng.choice((-1, 1)), self.rng.choice((-1, 1)))
        self.departed = False

    def _advance(self, value: float, sign: int, dist: float) -> Tuple[float, int]:
        value += sign * dist
        while not 0.0 <= value <= self.field_size:
            if value > self.field_size:
                value = 2 * self.field_size - value
                sign = -1
            elif value < 0.0:
                value = -value
                sign = 1
        return value, sign

    def step(self) -> None:
        dx = self.rng.uniform(0.0, self.speed_max)
        dy = self.rng.uniform(0.0, self.speed_max)
        x, sx = self._advance(self.position[0], self.direction[0], dx)
        y, sy = self._advance(self.position[1], self.direction[1], dy)
        self.position = (x, y)
        self.direction = (sx, sy)


class LineTrack:
    """Constant-speed straight line; departed once the far end is reached."""

    def __init__(self, start: Position, end: Position, speed: float):
        self.start = (float(start[0]), float(start[1]))
        self.end = (float(end[0]), float(end[1]))
        self.speed = float(speed)
        self.length = euclid(self.start, self.end)
        self.traveled = 0.0
        self.position = self.start
        self.departed = self.length == 0.0

    def step(self) -> None:
        self.traveled += self.speed
        frac = min(self.traveled / self.length, 1.0) if self.length else 1.0
        self.position = (
            self.start[0] + (self.end[0] - self.start[0]) * frac,
            self.start[1] + (self.end[1] - self.start[1]) * frac,
        )
        if self.traveled >= self.length:
            self.departed = True


def edge_line(field: float, speed: float) -> LineTrack:
    """Crossing along one side of the square field (shortest connected time)."""
    return LineTrack((0.0, 0.0), (field, 0.0), speed)


def diagonal_line(field: float, speed: float) -> LineTrack:
    """Corner-to-corner crossing (longest connected time)."""
    return LineTrack((0.0, 0.0), (field, field), speed)


# ---------------------------------------------------------------------------
# Event-time sink path
# ---------------------------------------------------------------------------


class WaypointTrack:
    """Piecewise-linear flight path traversed at constant ground speed."""

    def __init__(self, points: Sequence[Position], speed_mps: float):
        if len(points) < 2:
            raise ValueError("need at least two waypoints")
        if speed_mps <= 0:
            raise ValueError("speed must be positive")
        self.points = [(float(x), float(y)) for x, y in points]
        self.speed_mps = float(speed_mps)
        self.cum = [0.0]
        for a, b in zip(self.points, self.points[1:]):
            self.cum.append(self.cum[-1] + euclid(a, b))

    @property
    def total_length(self) -> float:
        return self.cum[-1]

    def duration_us(self) -> int:
        return int(math.ceil(self.total_length / self.speed_mps * 1e6))

    def distance_at(self, dt_us: float) -> float:
        return min(self.speed_mps * dt_us / 1e6, self.total_length)

    def position_at(self, dt_us: float) -> Position:
        d = self.distance_at(dt_us)
        for i in range(len(self.points) - 1):
            if d <= self.cum[i + 1] or i == len(self.points) - 2:
                seg = self.cum[i + 1] - self.cum[i]
                frac = (d - self.cum[i]) / seg if seg else 1.0
                frac = min(max(frac, 0.0), 1.0)
                ax, ay = self.points[i]
                bx, by = self.points[i + 1]
                return (ax + (bx - ax) * frac, ay + (by - ay) * frac)
        return self.points[-1]


# ---------------------------------------------------------------------------
# Radio-state timelines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    node: NodeId
    state: str
    start_us: int
    end_us: int


def _fill_gaps(
    node: NodeId, active: List[Tuple[int, int, str]], start: int, end: int, idle: str
) -> List[Segment]:
    """Explicit segments for `node` covering [start, end], idle state in gaps."""
    out: List[Segment] = []
    t = start
    for s, e, state in sorted(active):
        s, e = max(s, start), min(e, end)
        if e <= t:
            continue
        if s > t:
            out.append(Segment(node, idle, t, s))
        out.append(Segment(node, state, max(s, t), e))
        t = max(e, t)
    if t < end:
        out.append(Segment(node, idle, t, end))
    return out


def hop_exchange_timeline(
    c: ProtocolConstants,
    sender: NodeId,
    responders: Sequence[Tuple[NodeId, int]],
    data_target: Optional[NodeId],
    t0: int = 0,
    cca_offsets: Optional[Dict[NodeId, int]] = None,
) -> List[Segment]:
    """Radio states of one routing hop: preamble, ACK window, data.

    `responders` are (node, ack backoff in us) pairs.  The sender runs the
    micro-frame train for d_rrp (recorded as the sampling-average `poll`
    state), listens through the whole contention window receiving each ACK,
    then transmits the data to `data_target`, which receives it.  Every
    responder wakes once during the preamble for a d_cca channel check and
    otherwise sleeps through the exchange apart from its own ACK.
    """
    cca_offsets = cca_offsets or {}
    t_win = t0 + c.d_rrp
    t_data = t_win + c.w_rr
    t_end = t_data + (c.d_data if data_target is not None else 0)
    segments: List[Segment] = []

    ack_spans = []
    for node, backoff in responders:
        ack_spans.append((t_win + int(backoff), t_win + int(backoff) + c.d_ack, node))

    # sender: preamble train, then listen with rx during each (merged) ACK
    rx_spans: List[Tuple[int, int]] = []
    for s, e, _ in sorted(ack_spans):
        e = min(e, t_data)
        if s >= t_data:
            continue
        if rx_spans and s <= rx_spans[-1][1]:
            rx_spans[-1] = (rx_spans[-1][0], max(rx_spans[-1][1], e))
        else:
            rx_spans.append((s, e))
    active = [(s, e, "rx") for s, e in rx_spans]
    if data_target is not None:
        active.append((t_data, t_end, "tx"))
    segments.append(Segment(sender, "poll", t0, t_win))
    segments.extend(_fill_gaps(sender, active, t_win, t_end, "listen"))

    for node, backoff in responders:
        offset = cca_offsets.get(node, 0)
        offset = min(max(offset, 0), c.d_rrp - c.d_cca)
        active = [(t0 + offset, t0 + offset + c.d_cca, "rx")]
        ack_start = t_win + int(backoff)
        active.append((ack_start, ack_start + c.d_ack, "tx"))
        if node == data_target:
            active.append((t_data, t_end, "rx"))
        segments.extend(_fill_gaps(node, active, t0, t_end, "sleep"))
    return segments


def timeline_coverage(segments: Sequence[Segment]) -> Dict[NodeId, int]:
    """Total covered microseconds per node; raises on overlapping segments."""
    by_node: Dict[NodeId, List[Segment]] = {}
    for seg in segments:
        by_node.setdefault(seg.node, []).append(seg)
    totals = {}
    for node, segs in by_node.items():
        segs.sort(key=lambda s: s.start_us)
        total = 0
        last_end = None
        for seg in segs:
            if last_end is not None and seg.start_us < last_end:
                raise ValueError(f"overlapping segments for node {node}")
            total += seg.end_us - seg.start_us
            last_end = seg.end_us
        totals[node] = total
    return totals


# ---------------------------------------------------------------------------
# Six-phase scenario
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    topology: Topology
    query_node: NodeId
    constants: ProtocolConstants = DEFAULT_CONSTANTS
    bs_position: Position = (-80.0, 37.5)
    entry: Optional[Position] = None
    exit: Optional[Position] = None
    ms_speed_mps: float = 7.0
    seed: int = 0
    coord_mode: str = "physical"  # physical | virtual
    virtual_coords: Optional[VirtualCoords] = None
    ms_virtual_coord: Optional[Position] = None
    hop_limit: Optional[int] = None  # route()'s round_limit: every round counts
    collisions: bool = False


@dataclass
class ScenarioReport:
    config_seed: int
    query_node: NodeId
    phase_times_us: Dict[int, int]
    route: Optional[RouteResult]
    miss: bool
    neighbors: List[NodeId]
    flood: Optional[FloodReport]
    timeline: List[Segment] = field(default_factory=list)
    horizon_us: int = 0


def _network_bbox(topology: Topology) -> Tuple[float, float, float, float]:
    xs = [p[0] for p in topology.positions.values()]
    ys = [p[1] for p in topology.positions.values()]
    return min(xs), min(ys), max(xs), max(ys)


def _first_cca_catch(c: ProtocolConstants, cca_offset: int, not_before: int) -> int:
    """End time of the first request preamble whose transmission fully
    contains one of the sink's channel checks at or after `not_before`.

    Preambles occupy [k*t_dr, k*t_dr + d_drp); checks run every t_cca.  The
    check window spans a whole micro-frame slot and the preamble outlasts the
    check period, so a hit lands within a couple of periods.
    """
    j = max(0, (not_before - cca_offset) // c.t_cca)
    for _ in range(10_000):
        t = cca_offset + j * c.t_cca
        if t >= not_before:
            k = t // c.t_dr
            drp_start = k * c.t_dr
            if drp_start <= t and t + c.d_cca <= drp_start + c.d_drp:
                return drp_start + c.d_drp
        j += 1
    raise ConfigError("sink channel sampling never catches a request preamble")


class _FlyingSink:
    """The flying sink as the routing walk sees it in event time.

    A round is the hop exchange starting at `t`; the sink is observed at the
    exchange's ACK instant, t + d_rrp, and `step()` moves on by one exchange,
    d_rrp + w_rr + d_data.
    """

    def __init__(self, position_at, departed_at, t: int, c: ProtocolConstants):
        self._position_at = position_at
        self._departed_at = departed_at
        self._ack_us = c.d_rrp
        self.hop_us = c.d_rrp + c.w_rr + c.d_data
        self.t = t
        self._observe()

    def _observe(self) -> None:
        ack_at = self.t + self._ack_us
        self.position = self._position_at(ack_at)
        self.departed = self._departed_at(ack_at)

    def step(self) -> None:
        self.t += self.hop_us
        self._observe()


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    """One full collection rotation; deterministic for a given config."""
    topo = cfg.topology
    c = cfg.constants
    rng = random.Random(cfg.seed)
    if cfg.query_node not in topo.positions:
        raise ConfigError(f"query node {cfg.query_node} not in topology")
    if cfg.coord_mode not in ("physical", "virtual"):
        raise ConfigError(f"unknown coordinate mode {cfg.coord_mode!r}")
    if cfg.coord_mode == "virtual" and (
        cfg.virtual_coords is None or cfg.ms_virtual_coord is None
    ):
        raise ConfigError("virtual mode needs virtual_coords and ms_virtual_coord")

    x0, y0, x1, y1 = _network_bbox(topo)
    entry = cfg.entry if cfg.entry is not None else (x0, (y0 + y1) / 2)
    exit_ = cfg.exit if cfg.exit is not None else (x1, (y0 + y1) / 2)
    track = WaypointTrack([cfg.bs_position, entry, exit_, cfg.bs_position], cfg.ms_speed_mps)
    exit_dist = euclid(cfg.bs_position, entry) + euclid(entry, exit_)

    phase_times: Dict[int, int] = {}
    timeline: List[Segment] = []

    # Phase 1: query handed from base station to sink.
    cca_offset = rng.randint(0, c.t_cca - 1)
    drp_end = _first_cca_catch(c, cca_offset, 0)
    phase_times[1] = drp_end + c.d_ack
    timeline.append(Segment(MS_ID, "tx", drp_end, drp_end + c.d_ack))
    fly_start = phase_times[1]

    def ms_pos(t_us: int) -> Position:
        if t_us <= fly_start:
            return cfg.bs_position
        return track.position_at(t_us - fly_start)

    def ms_departed(t_us: int) -> bool:
        return t_us > fly_start and track.distance_at(t_us - fly_start) >= exit_dist

    # Phases 2 and 3: the sink repeats its request preamble until it hears a
    # relayed copy; every preamble seeds whatever idle nodes are in range at
    # the time, and the flood runs interleaved with the retries.
    engine = FloodEngine(
        topo, c, source=cfg.query_node, seed=rng.randrange(2**31), collisions=cfg.collisions
    )
    relay_heard: Optional[int] = None
    seeded = False
    scanned = 0
    for i in range(1_000_000):
        brp_start = fly_start + i * c.t_brp
        brp_end = brp_start + c.d_brp
        if ms_departed(brp_end):
            if seeded:
                break  # query handed off; the sink flies on without hearing back
            raise ConfigError("sink crossed the network without being heard")
        pos = ms_pos(brp_end)
        hearers = [nid for nid in sorted(topo.positions) if topo.in_range(nid, pos)]
        if hearers:
            if not seeded:
                phase_times[2] = brp_end
            seeded = True
            for nid in hearers:
                engine.inject_reception(nid, brp_end)
        timeline.append(Segment(MS_ID, "poll", brp_start, brp_end))
        engine.run_until(brp_start + c.t_brp)
        while scanned < len(engine.report.transmissions):
            nid, ts = engine.report.transmissions[scanned]
            scanned += 1
            if topo.in_range(nid, ms_pos(ts)):
                relay_heard = ts + c.d_brp
                break
        if relay_heard is not None:
            break
    if not seeded:
        raise ConfigError("sink never came within range of the network")
    flood_report = engine.run()
    if cfg.query_node not in flood_report.reached:
        raise ConfigError("flood never reached the queried node")
    phase_times[3] = max(flood_report.tx_end_us.values(), default=phase_times[2])
    for nid, ts in sorted(flood_report.tx_start_us.items()):
        timeline.append(Segment(nid, "poll", ts, flood_report.tx_end_us[nid]))

    # Phase 4: source routes the answer toward the moving sink, one hop
    # exchange per round of the routing walk.
    coords = topo.positions if cfg.coord_mode == "physical" else cfg.virtual_coords.coords
    metric_max = max(euclid((x0, y0), (x1, y1)), 1.0) * 2
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
        cca = {nid: rng.randint(0, c.d_rrp - c.d_cca) for nid, _ in sorted(responders)}
        timeline.extend(hop_exchange_timeline(c, current, responders, target, sink.t, cca))

    route_result = route(
        topo,
        coords,
        cfg.query_node,
        sink,
        sink_coord=cfg.ms_virtual_coord if cfg.coord_mode == "virtual" else None,
        round_limit=cfg.hop_limit,
        on_round=hop_exchange,
    )
    miss = not route_result.delivered
    horizon = sink.t
    if not miss:
        t = sink.t + sink.hop_us  # end of the delivering exchange
        phase_times[4] = t
        # Phase 5: sink acknowledges the data.
        timeline.append(Segment(MS_ID, "tx", t, t + c.d_ack))
        phase_times[5] = t + c.d_ack
        # Phase 6: back at the base station, answer the next request with data.
        arrival = fly_start + track.duration_us()
        drp_end = _first_cca_catch(c, cca_offset, max(arrival, phase_times[5]))
        timeline.append(Segment(MS_ID, "tx", drp_end, drp_end + c.d_data))
        phase_times[6] = drp_end + c.d_data
        horizon = phase_times[6]

    # Base station: request preambles all along, listening in between.
    bs_active = []
    k = 0
    while k * c.t_dr < horizon:
        bs_active.append((k * c.t_dr, min(k * c.t_dr + c.d_drp, horizon), "poll"))
        k += 1
    timeline.extend(_fill_gaps(BS_ID, bs_active, 0, horizon, "listen"))

    # Fill every node's untracked stretches with the idle sampling state.
    by_node: Dict[NodeId, List[Tuple[int, int, str]]] = {nid: [] for nid in topo.positions}
    by_node[MS_ID] = []
    by_node[BS_ID] = []
    for seg in timeline:
        by_node.setdefault(seg.node, []).append((seg.start_us, seg.end_us, seg.state))
    full: List[Segment] = []
    for nid in sorted(by_node):
        full.extend(_fill_gaps(nid, by_node[nid], 0, horizon, "poll"))

    return ScenarioReport(
        config_seed=cfg.seed,
        query_node=cfg.query_node,
        phase_times_us=phase_times,
        route=route_result,
        miss=miss,
        neighbors=list(topo.adjacency[cfg.query_node]),
        flood=flood_report,
        timeline=full,
        horizon_us=horizon,
    )


def discovered_graph(reports: Sequence[ScenarioReport]) -> Dict[NodeId, Tuple[NodeId, ...]]:
    """Union of (queried node -> neighbor) edges across successful rotations."""
    edges: Dict[NodeId, set] = {}
    for rep in reports:
        edges.setdefault(rep.query_node, set())
        for nbr in rep.neighbors:
            edges.setdefault(nbr, set())
            edges[rep.query_node].add(nbr)
            edges[nbr].add(rep.query_node)
    return {nid: tuple(sorted(nbrs)) for nid, nbrs in sorted(edges.items())}


# ---------------------------------------------------------------------------
# Replication statistics and sweep presets
# ---------------------------------------------------------------------------


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> Tuple[float, float]:
    """Sample mean and Student-t confidence half-width."""
    n = len(values)
    if n == 0:
        return float("nan"), float("nan")
    mean = sum(values) / n
    if n == 1:
        return mean, float("inf")
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = float(t_dist.ppf(0.5 + confidence / 2, n - 1)) * math.sqrt(var / n)
    return mean, half


@dataclass
class SweepPoint:
    """Aggregated replications of one (mobility, speed, degree) setting."""

    mobility: str
    speed: float
    degree: Optional[float]
    runs: int
    mean_restarts: float
    restarts_ci95: float
    mean_hops: float
    hops_ci95: float
    miss_ratio: float


RANDOM_FIELD_M = 1000.0
RANDOM_RANGE_M = 200.0
GRID_SIDE = 5
GRID_SPACING_M = 25.0
GRID_FIELD_M = GRID_SPACING_M * (GRID_SIDE - 1)
GRID_SINK_VCOORD = (GRID_FIELD_M / 2, GRID_FIELD_M / 2)
GRID_CROSSING_SPEED = 4.0  # field units per round, hop-count reference setting


def nodes_for_degree(degree: float, field: float = RANDOM_FIELD_M, range_m: float = RANDOM_RANGE_M) -> int:
    """Node count giving the target mean neighbor count on a uniform field."""
    return max(2, round(1 + degree * field * field / (math.pi * range_m * range_m)))


def _sink_component(topology: Topology, sink_pos: Position) -> List[NodeId]:
    """Nodes connected (over the graph) to some node in range of the sink."""
    seed_nodes = [nid for nid in sorted(topology.positions) if topology.in_range(nid, sink_pos)]
    seen = set(seed_nodes)
    queue = deque(seed_nodes)
    while queue:
        u = queue.popleft()
        for v in topology.adjacency[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return sorted(seen)


def random_graph_point(
    degree: float,
    speed: float,
    runs: int,
    seed: int,
    *,
    field: float = RANDOM_FIELD_M,
    range_m: float = RANDOM_RANGE_M,
    topologies: int = 50,
) -> SweepPoint:
    """One point of the random-graph sweep.

    Nodes are placed uniformly on the field, the sink starts at a uniform
    position in range of at least one node and drifts with the bounce model,
    and the message leaves a uniformly chosen node of the sink's component.
    Routing runs on per-replication random virtual coordinates aimed at the
    sink's fixed virtual coordinate (the field center); the round limit is
    one round per node, the sweep's simulation horizon.  Restarts average
    over all replications, hop counts over delivered ones only.

    The same `seed` re-draws the same topologies, sources, coordinates and
    sink tracks for every speed, so points that differ only in speed are
    paired: speed scales the per-round drift of an otherwise identical run.
    """
    rng = random.Random(seed)
    n = nodes_for_degree(degree, field, range_m)
    topos = []
    for _ in range(topologies):
        positions = {i: (rng.uniform(0, field), rng.uniform(0, field)) for i in range(n)}
        topos.append(build_udg(positions, range_m))

    restarts: List[float] = []
    hops: List[float] = []
    missed = 0
    for i in range(runs):
        topo = topos[i % len(topos)]
        while True:
            sink_pos = (rng.uniform(0, field), rng.uniform(0, field))
            if any(topo.in_range(nid, sink_pos) for nid in topo.positions):
                break
        component = _sink_component(topo, sink_pos)
        source = rng.choice(component)
        track = BounceTrack(sink_pos, speed, field, seed=rng.randrange(2**31))
        vc = init_virtual_coords(topo, rng.randrange(2**31), ((0, field), (0, field)))
        res = route(
            topo,
            vc.coords,
            source,
            track,
            sink_coord=(field / 2, field / 2),
            round_limit=n,
        )
        restarts.append(res.restarts)
        if res.delivered:
            hops.append(res.hops)
        else:
            missed += 1
    rm, rci = mean_ci(restarts)
    hm, hci = mean_ci(hops)
    return SweepPoint("bounce", speed, degree, runs, rm, rci, hm, hci, missed / runs)


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
    """
    if mobility not in ("edge", "diagonal"):
        raise ValueError("grid mobility must be 'edge' or 'diagonal'")
    rng = random.Random(seed)
    g = grid_topology(GRID_SIDE, GRID_SPACING_M)
    make_track = edge_line if mobility == "edge" else diagonal_line

    restarts: List[float] = []
    hops: List[float] = []
    missed = 0
    for _ in range(runs):
        source = rng.randrange(len(g))
        track = make_track(GRID_FIELD_M, speed)
        if coord_mode == "virtual":
            vc = init_virtual_coords(
                g, rng.randrange(2**31), ((0, GRID_FIELD_M), (0, GRID_FIELD_M))
            )
            res = route(g, vc.coords, source, track, sink_coord=GRID_SINK_VCOORD)
        else:
            res = route(g, g.positions, source, track)
        restarts.append(res.restarts)
        if res.delivered:
            hops.append(res.hops)
        else:
            missed += 1
    rm, rci = mean_ci(restarts)
    hm, hci = mean_ci(hops)
    return SweepPoint(mobility, speed, None, runs, rm, rci, hm, hci, missed / runs)


def grid_crossing_hops(runs: int, seed: int) -> Tuple[float, float]:
    """Delivered-only mean hop count of the reference grid crossing.

    Pools edge and diagonal crossings at the reference per-round speed over
    per-replication random virtual coordinates; returns (mean, ci95).
    """
    rng = random.Random(seed)
    g = grid_topology(GRID_SIDE, GRID_SPACING_M)
    hops: List[float] = []
    for i in range(runs):
        source = rng.randrange(len(g))
        make_track = edge_line if i % 2 == 0 else diagonal_line
        track = make_track(GRID_FIELD_M, GRID_CROSSING_SPEED)
        vc = init_virtual_coords(g, rng.randrange(2**31), ((0, GRID_FIELD_M), (0, GRID_FIELD_M)))
        res = route(g, vc.coords, source, track, sink_coord=GRID_SINK_VCOORD)
        if res.delivered:
            hops.append(res.hops)
    return mean_ci(hops)
