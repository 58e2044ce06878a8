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

Radio activity partitions each node's simulated time into (state, start,
end) segments; un-involved stretches are the idle sampling state.  A rotation
keeps its timelines as a :class:`~sinksim.radio.Timeline` view: each node's
microseconds per state, added up while the timeline is assembled, with the
base station's request train priced in closed form.  The segments themselves
are built only when the view is iterated.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import attrgetter
from statistics import NormalDist
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .core import DEFAULT_CONSTANTS, NodeId, Position, ProtocolConstants
from .flood import FloodEngine, FloodReport
from .forkmap import split_map
from .mac import ack_backoff
from .radio import Segment, Timeline, Topology, build_udg, euclid, grid_topology
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


def _check_speed(speed: float) -> None:
    if not 0.0 <= speed < math.inf:
        raise ValueError(f"speed must be finite and >= 0, got {speed!r}")


class BounceTrack:
    """Random drift bouncing off the field borders like a billiard ball.

    Each round both coordinates advance by independent uniform draws in
    [0, speed_max] along the current diagonal direction; hitting a border
    flips that direction component.  A speed that is negative or not finite
    raises ValueError.
    """

    def __init__(
        self,
        position: Position,
        speed_max: float,
        field_size: float = 1000.0,
        seed: int = 0,
    ):
        _check_speed(speed_max)
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
        # rng.uniform(0.0, s) is 0.0 + (s - 0.0) * rng.random(), i.e. s * rng.random().
        draw = self.rng.random
        dx = self.speed_max * draw()
        dy = self.speed_max * draw()
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


def _fill_gaps(
    node: NodeId, active: List[Tuple[int, int, str]], start: int, end: int, idle: str
) -> List[Segment]:
    """Explicit segments for `node` covering [start, end], idle state in gaps.

    Active (start, end, state) spans are taken in sorted order and clipped to
    [start, end]; one left empty is skipped, and one that starts before the
    span before it ends keeps only its part after that end.
    """
    out: List[Segment] = []
    t = start
    for s, e, state in sorted(active):
        if s < start:
            s = start
        if e > end:
            e = end
        if e <= s or e <= t:
            continue
        if s > t:
            out.append(Segment(node, idle, t, s))
            t = s
        out.append(Segment(node, state, t, e))
        t = e
    if t < end:
        out.append(Segment(node, idle, t, end))
    return out


def _span_totals(
    active: List[Tuple[int, int, str]], start: int, end: int, idle: str
) -> Tuple[Dict[str, int], int, int]:
    """What `_fill_gaps` builds, without building it: the microseconds per
    state, the number of segments, and the active microseconds clipped where
    spans overlap (each span's part that lies before the end of the spans
    sorted ahead of it).  Same clipping rules; a state without time is left
    out.
    """
    totals: Dict[str, int] = {}
    count = clipped = 0
    t = start
    for s, e, state in sorted(active):
        if s < start:
            s = start
        if e > end:
            e = end
        if e <= s:
            continue
        if s < t:
            if e <= t:
                clipped += e - s
                continue
            clipped += t - s
            s = t
        elif s > t:
            totals[idle] = totals.get(idle, 0) + (s - t)
            count += 1
        totals[state] = totals.get(state, 0) + (e - s)
        count += 1
        t = e
    if t < end:
        totals[idle] = totals.get(idle, 0) + (end - t)
        count += 1
    return totals, count, clipped


def _base_station_totals(c: ProtocolConstants, horizon: int) -> Tuple[Dict[str, int], int]:
    """Microseconds per state and segment count of `_base_station_timeline`,
    in closed form.

    Each full request period polls for min(d_drp, t_dr), the part before the
    horizon for min(d_drp, rest), and the base station listens for the
    remainder.  With d_drp = 0 that is one listening stretch.  Otherwise a
    preamble adds a segment unless the one before it already reached the
    horizon (with overlapping preambles each ends where the next begins), a
    listening stretch precedes every later preamble while d_drp < t_dr, and
    one follows the last preamble if it ends before the horizon.
    """
    if horizon <= 0:
        return {}, 0
    period, d_drp = c.t_dr, c.d_drp
    if d_drp == 0:
        return {"listen": horizon}, 1
    full, rest = divmod(horizon, period)
    preambles = full + (rest > 0)  # those starting before the horizon
    poll = full * min(d_drp, period) + min(d_drp, rest)
    # the first preamble, then those whose predecessor ends before the horizon
    polls = 1 + min(preambles - 1, max(0, -((d_drp - horizon) // period)))
    listens = (preambles - 1 if d_drp < period else 0) + (
        (preambles - 1) * period + d_drp < horizon
    )
    totals = {"listen": horizon - poll, "poll": poll}
    return {state: us for state, us in totals.items() if us}, polls + listens


def _base_station_timeline(c: ProtocolConstants, horizon: int) -> List[Segment]:
    """The base station over [0, horizon]: a data-request preamble (`poll`)
    every t_dr, listening in between.

    Built directly in final form, equal for any constants to the preambles
    passed through `_fill_gaps` and then through the idle fill: where
    preambles overlap (d_drp > t_dr) one starts where the one before it ends,
    and with d_drp = 0 there is no preamble and one listening stretch.
    """
    out: List[Segment] = []
    d_drp = c.d_drp
    t = 0
    for k in range(0, horizon, c.t_dr):
        poll_end = k + d_drp
        if poll_end > horizon:
            poll_end = horizon
        if poll_end <= k or poll_end <= t:
            continue
        if k > t:
            out.append(Segment(BS_ID, "listen", t, k))
            t = k
        out.append(Segment(BS_ID, "poll", t, poll_end))
        t = poll_end
    if t < horizon:
        out.append(Segment(BS_ID, "listen", t, horizon))
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


def timeline_coverage(timeline: Union[Timeline, Sequence[Segment]]) -> Dict[NodeId, int]:
    """Total covered microseconds per node.

    A `Timeline` view's state totals are summed per node (its overlaps are
    counted in `clipped_us`); a plain segment list raises ValueError on
    overlapping segments.
    """
    if isinstance(timeline, Timeline):
        return {node: sum(states.values()) for node, states in timeline.totals.items()}
    by_node: Dict[NodeId, List[Segment]] = {}
    for seg in timeline:
        by_node.setdefault(seg.node, []).append(seg)
    totals = {}
    start_us = attrgetter("start_us")
    for node, segs in by_node.items():
        segs.sort(key=start_us)
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


def _network_bbox(topology: Topology) -> Tuple[float, float, float, float]:
    xs = [p[0] for p in topology.positions.values()]
    ys = [p[1] for p in topology.positions.values()]
    return min(xs), min(ys), max(xs), max(ys)


def _hearers(
    nodes: Sequence[Tuple[NodeId, Position]],
    bbox: Tuple[float, float, float, float],
    r2: float,
    point: Position,
) -> List[NodeId]:
    """Ids of the `nodes` within range of `point`, in the order given.

    `nodes` are (id, position) pairs inside `bbox`, `r2` the squared range.
    The pair test is the expression of Topology.in_range.  Rounding is
    monotone, so no node's computed squared distance falls below the box's:
    when the box is out of range, so is every node, and the scan is skipped.
    """
    px, py = point
    x0, y0, x1, y1 = bbox
    dx = x0 - px if px < x0 else (px - x1 if px > x1 else 0.0)
    dy = y0 - py if py < y0 else (py - y1 if py > y1 else 0.0)
    if dx**2 + dy**2 > r2:
        return []
    return [nid for nid, (x, y) in nodes if (x - px) ** 2 + (y - py) ** 2 <= r2]


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

    bbox = x0, y0, x1, y1 = _network_bbox(topo)
    entry = cfg.entry if cfg.entry is not None else (x0, (y0 + y1) / 2)
    exit_ = cfg.exit if cfg.exit is not None else (x1, (y0 + y1) / 2)
    track = WaypointTrack([cfg.bs_position, entry, exit_, cfg.bs_position], cfg.ms_speed_mps)
    exit_dist = euclid(cfg.bs_position, entry) + euclid(entry, exit_)

    phase_times: Dict[int, int] = {}
    # Active (start, end, state) spans per node, in the timeline's node order;
    # the base station's train is built apart, after the horizon is known.
    active: Dict[NodeId, List[Tuple[int, int, str]]] = {
        nid: [] for nid in sorted([MS_ID, *topo.positions])
    }
    ms_active = active[MS_ID]

    # Phase 1: query handed from base station to sink.
    cca_offset = rng.randint(0, c.t_cca - 1)
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
    # the time, and the flood runs interleaved with the retries.
    engine = FloodEngine(
        topo, c, source=cfg.query_node, seed=rng.randrange(2**31), collisions=cfg.collisions
    )
    relay_heard: Optional[int] = None
    seeded = False
    scanned = 0
    nodes = sorted(topo.positions.items())  # ascending ids: injection order sets the event order
    r2 = topo.range_m**2
    for i in range(1_000_000):
        brp_start = fly_start + i * c.t_brp
        brp_end = brp_start + c.d_brp
        if ms_departed(brp_end):
            if seeded:
                break  # query handed off; the sink flies on without hearing back
            raise ConfigError("sink crossed the network without being heard")
        hearers = _hearers(nodes, bbox, r2, ms_pos(brp_end))
        if hearers:
            if not seeded:
                phase_times[2] = brp_end
            seeded = True
            for nid in hearers:
                engine.inject_reception(nid, brp_end)
        ms_active.append((brp_start, brp_end, "poll"))
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
    for nid, ts in flood_report.tx_start_us.items():
        active[nid].append((ts, flood_report.tx_end_us[nid], "poll"))

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
        for seg in hop_exchange_timeline(c, current, responders, target, sink.t, cca):
            active[seg.node].append((seg.start_us, seg.end_us, seg.state))

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
        ms_active.append((t, t + c.d_ack, "tx"))
        phase_times[5] = t + c.d_ack
        # Phase 6: back at the base station, answer the next request with data.
        arrival = fly_start + track.duration_us()
        drp_end = _first_cca_catch(c, cca_offset, max(arrival, phase_times[5]))
        ms_active.append((drp_end, drp_end + c.d_data, "tx"))
        phase_times[6] = drp_end + c.d_data
        horizon = phase_times[6]

    # Base station: request preambles all along, listening in between.  Then
    # every other node, its untracked stretches in the idle sampling state.
    # Only the state totals are added up here; the segments are built when
    # the view is iterated.
    bs_totals, length = _base_station_totals(c, horizon)
    totals = {BS_ID: bs_totals}
    clipped: Dict[NodeId, int] = {}
    for nid, spans in active.items():
        totals[nid], count, cut = _span_totals(spans, 0, horizon, "poll")
        length += count
        if cut:
            clipped[nid] = cut

    def segments() -> List[Segment]:
        full = _base_station_timeline(c, horizon)
        for nid, spans in active.items():
            full.extend(_fill_gaps(nid, spans, 0, horizon, "poll"))
        return full

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


_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_EPS = 2.0**-52
_TINY = 1e-300


def _log_beta_half(a: float) -> float:
    """ln B(a, 1/2).

    For large `a` the lgamma difference would cancel, so ln(Gamma(a + 1/2) /
    Gamma(a)) comes from its Stirling series instead (coefficients
    (2^(1-2k) - 2) B_2k / (2k (2k-1)); the first term left out is 4e-16 at
    a = 15).
    """
    if a < 15.0:
        return math.lgamma(a) + _LOG_SQRT_PI - math.lgamma(a + 0.5)
    r = 1.0 / a
    r2 = r * r
    series = r * (1 / 8 - r2 * (1 / 192 - r2 * (1 / 640 - r2 * (17 / 14336 - r2 * 31 / 18432))))
    return _LOG_SQRT_PI - 0.5 * math.log(a) + series


def _beta_cf(a: float, x: float) -> float:
    """Continued fraction of I_x(a, 1/2) a B(a, 1/2) / (x^a (1-x)^(1/2)) (DLMF 8.17.22).

    Modified Lentz evaluation; converges fast for x < (a + 1) / (a + 5/2).
    """
    c = 1.0
    d = 1.0 / (1.0 - (a + 0.5) * x / (a + 1.0))
    h = d
    for m in range(1, 1000):
        num = m * (0.5 - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 / ((1.0 + num * d) or _TINY)
        c = (1.0 + num / c) or _TINY
        h *= d * c
        num = -(a + m) * (a + 0.5 + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 / ((1.0 + num * d) or _TINY)
        c = (1.0 + num / c) or _TINY
        h *= d * c
        if abs(d * c - 1.0) < _EPS:
            break
    return h


def _t_excess(t: float, df: float, u: float, c: float) -> float:
    """P(0 < T < t) - c for t > 0, where c = 1/2 - u is the target's central mass.

    The central mass is I_y(1/2, df/2) / 2 and the tail mass 1/2 minus it,
    I_x(df/2, 1/2) / 2, with x = df / (df + t^2) and y = 1 - x.  Each branch
    subtracts the target from the mass it computes (central c or tail u), so
    no branch takes a small difference of its own result.  Near the centre of
    a large-df distribution the continued fraction needs O(sqrt(df)) terms;
    the power series (DLMF 8.17.8) needs a few dozen there, and its bound
    (a + 1/2) y <= 5 keeps the tail it leaves to the subtraction above 1e-3.
    """
    a = 0.5 * df
    tt = t * t
    y = tt / (df + tt)
    front = math.exp(0.5 * math.log(y) - a * math.log1p(tt / df) - _log_beta_half(a))
    if y <= 0.5 and (a + 0.5) * y <= 5.0:
        term = total = 1.0
        k = 0.0
        while term > _EPS * total:
            term *= (a + 0.5 + k) / (1.5 + k) * y
            total += term
            k += 1.0
        return front * total - c
    # Outside the series' range y > 3 / (2a + 5), so the fraction converges fast.
    return u - 0.5 * front * _beta_cf(a, df / (df + tt)) / a


def _hill_guess(df: float, u: float, c: float) -> float:
    """Upper-tail-u quantile of Student's t after Hill, Algorithm 396 (CACM 1970).

    Exact for df = 1 and 2; otherwise a Cornish-Fisher expansion around the
    normal quantile, or a small-tail series, good to about 1e-5 relative.
    """
    if df == 1:
        return 1.0 / math.tan(math.pi * u)
    if df == 2:
        return 2.0 * c / math.sqrt(2.0 * u * (1.0 - u))
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    g = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + g) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    y = (d * 2.0 * u) ** (2.0 / df)
    if y > 0.05 + a:
        x = NormalDist().inv_cdf(u)
        y = x * x
        if df < 5:
            g += 0.3 * (df - 4.5) * (x + 0.6)
        g += (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / g - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        y = (
            (1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0) + 0.5 / (df + 4.0)) * y
            - 1.0
        ) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


def _t_quantile(p: float, df: float) -> float:
    """Quantile of Student's t with `df` degrees of freedom at probability `p`.

    Hill's guess, then Newton steps on the CDF until a step no longer shrinks
    or falls to rounding level.  Agrees with scipy.stats.t.ppf to 1e-13
    relative for p in [0.95, 0.995] and df up to 1e5.  Beyond df = 1e6, tail
    probabilities under 1e-3 lose digits as x = df / (df + t^2) rounds near 1:
    up to 3e-12 relative at df = 1e7 and 2e-9 at df = 1e9.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p!r}")
    if not df >= 1:
        raise ValueError(f"df must be >= 1, got {df!r}")
    u = min(p, 1.0 - p)  # exact, and the same for p and 1 - p when p > 1/2
    c = 0.5 - u
    if c == 0.0:
        return 0.0
    t = _hill_guess(df, u, c)
    log_norm = -0.5 * math.log(df) - _log_beta_half(0.5 * df)
    last = math.inf
    for _ in range(50):
        density = math.exp(log_norm - 0.5 * (df + 1.0) * math.log1p(t * t / df))
        if density == 0.0:
            break
        step = _t_excess(t, df, u, c) / density
        if not abs(step) < abs(last):  # also stops on nan from an overflowed t^2
            break
        t -= step
        last = step
        if abs(step) <= 4.0 * _EPS * t:
            break
    return t if p > 0.5 else -t


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> Tuple[float, float]:
    """Sample mean and Student-t confidence half-width."""
    n = len(values)
    if n == 0:
        return float("nan"), float("nan")
    mean = sum(values) / n
    if n == 1:
        return mean, float("inf")
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = _t_quantile(0.5 + confidence / 2, n - 1) * math.sqrt(var / n)
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


def _component_labels(adjacency: Dict[NodeId, Tuple[NodeId, ...]]) -> List[int]:
    """Connected-component label of each node 0..n-1: the smallest id in it."""
    label = [-1] * len(adjacency)
    for root in range(len(adjacency)):
        if label[root] < 0:
            label[root] = root
            stack = [root]
            while stack:
                for v in adjacency[stack.pop()]:
                    if label[v] < 0:
                        label[v] = root
                        stack.append(v)
    return label


# One replication's speed-free draws: (topology, source, sink start, track
# seed, coordinate seed).
_Replication = Tuple[Topology, NodeId, Position, int, int]

# The one set-up kept between calls, keyed by every argument that decides its
# draws.  Sweeps walk all speeds of one degree in a row, so one entry serves
# them; it is emptied before a new set-up is drawn, so that two set-ups are
# never alive at once.
_SETUP_CACHE: Dict[tuple, List[_Replication]] = {}


def _random_graph_setup(
    n: int, runs: int, seed: int, field: float, range_m: float, topologies: int
) -> List[_Replication]:
    """The replications of a point, drawn or reused from the last call.

    Every topology's positions are drawn, so that the stream stays the same,
    but only those a replication uses are built.
    """
    key = (n, runs, seed, field, range_m, topologies)
    reps = _SETUP_CACHE.get(key)
    if reps is not None:
        return reps
    _SETUP_CACHE.clear()
    rng = random.Random(seed)
    # rng.uniform(0, field) is 0 + (field - 0) * rng.random(), i.e. field * rng.random().
    draw = rng.random
    topos = []
    for t in range(topologies):
        positions = {i: (field * draw(), field * draw()) for i in range(n)}
        if t < runs:  # replication i uses topology i % topologies
            topo = build_udg(positions, range_m)
            topos.append((topo, _component_labels(topo.adjacency)))

    r2 = float(range_m) ** 2
    reps = []
    for i in range(runs):
        topo, label = topos[i % topologies]
        # Redraw the sink until some node is in range of it; the source is
        # then uniform over the components of the nodes in range.
        while True:
            sx, sy = field * draw(), field * draw()
            heard = {
                label[nid]
                for nid, (x, y) in topo.positions.items()
                if (x - sx) ** 2 + (y - sy) ** 2 <= r2
            }
            if heard:
                break
        source = rng.choice([nid for nid in range(n) if label[nid] in heard])
        reps.append((topo, source, (sx, sy), rng.randrange(2**31), rng.randrange(2**31)))
    _SETUP_CACHE[key] = reps
    return reps


# One replication's outcome: (restarts, hops, or None when not delivered).
_Outcome = Tuple[int, Optional[int]]


def _outcome(res: RouteResult) -> _Outcome:
    return res.restarts, res.hops if res.delivered else None


def _sweep_point(
    mobility: str, speed: float, degree: Optional[float], outcomes: List[_Outcome]
) -> SweepPoint:
    restarts: List[float] = [r for r, _ in outcomes]
    hops: List[float] = [h for _, h in outcomes if h is not None]
    runs = len(outcomes)
    rm, rci = mean_ci(restarts)
    hm, hci = mean_ci(hops)
    return SweepPoint(mobility, speed, degree, runs, rm, rci, hm, hci, (runs - len(hops)) / runs)


def random_graph_point(
    degree: float,
    speed: float,
    runs: int,
    seed: int,
    *,
    field: float = RANDOM_FIELD_M,
    range_m: float = RANDOM_RANGE_M,
    topologies: int = 50,
    workers: Optional[int] = None,
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
    Consecutive calls with the same node count, `runs`, `seed`, `field`,
    `range_m` and `topologies` reuse the set-up the first one drew and only
    walk again; the results are those of a fresh draw.

    The set-up is drawn in the calling process; the walks then run in
    contiguous slices over `workers` processes, all but the first forked
    (:func:`sinksim.forkmap.split_map`).  ``None`` takes the CPUs available,
    with at least 100 replications per worker.  The point is bit-identical
    for any worker count.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs!r}")
    if topologies < 1:
        raise ValueError(f"topologies must be >= 1, got {topologies!r}")
    if not field > 0:
        raise ValueError(f"field must be > 0, got {field!r}")
    if not range_m > 0:
        raise ValueError(f"range_m must be > 0, got {range_m!r}")
    _check_speed(speed)
    n = nodes_for_degree(degree, field, range_m)
    reps = _random_graph_setup(n, runs, seed, field, range_m, topologies)

    bounds = ((0, field), (0, field))
    sink_coord = (field / 2, field / 2)

    def walk(rep: _Replication) -> _Outcome:
        topo, source, start, track_seed, vc_seed = rep
        track = BounceTrack(start, speed, field, seed=track_seed)
        vc = init_virtual_coords(topo, vc_seed, bounds)
        return _outcome(route(topo, vc.coords, source, track, sink_coord=sink_coord, round_limit=n))

    return _sweep_point("bounce", speed, degree, split_map(walk, reps, workers))


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
    worker count.
    """
    if mobility not in ("edge", "diagonal"):
        raise ValueError("grid mobility must be 'edge' or 'diagonal'")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs!r}")
    _check_speed(speed)
    rng = random.Random(seed)
    g = grid_topology(GRID_SIDE, GRID_SPACING_M)
    make_track = edge_line if mobility == "edge" else diagonal_line
    virtual = coord_mode == "virtual"
    draws = []  # (source, coordinate seed or None)
    for _ in range(runs):
        source = rng.randrange(len(g))
        draws.append((source, rng.randrange(2**31) if virtual else None))

    def walk(draw: Tuple[NodeId, Optional[int]]) -> _Outcome:
        source, vc_seed = draw
        track = make_track(GRID_FIELD_M, speed)
        if vc_seed is not None:
            vc = init_virtual_coords(g, vc_seed, ((0, GRID_FIELD_M), (0, GRID_FIELD_M)))
            return _outcome(route(g, vc.coords, source, track, sink_coord=GRID_SINK_VCOORD))
        return _outcome(route(g, g.positions, source, track))

    return _sweep_point(mobility, speed, None, split_map(walk, draws, workers))


def grid_crossing_hops(
    runs: int, seed: int, *, workers: Optional[int] = None
) -> Tuple[float, float]:
    """Delivered-only mean hop count of the reference grid crossing.

    Pools edge and diagonal crossings at the reference per-round speed over
    per-replication random virtual coordinates; returns (mean, ci95).  The
    sources and coordinate seeds are drawn up front and the walks split
    across `workers` as in :func:`grid_point`, bit-identical for any count.
    """
    rng = random.Random(seed)
    g = grid_topology(GRID_SIDE, GRID_SPACING_M)
    draws = [(rng.randrange(len(g)), rng.randrange(2**31)) for _ in range(runs)]

    def walk(i: int) -> _Outcome:
        source, vc_seed = draws[i]
        make_track = edge_line if i % 2 == 0 else diagonal_line
        track = make_track(GRID_FIELD_M, GRID_CROSSING_SPEED)
        vc = init_virtual_coords(g, vc_seed, ((0, GRID_FIELD_M), (0, GRID_FIELD_M)))
        return _outcome(route(g, vc.coords, source, track, sink_coord=GRID_SINK_VCOORD))

    outcomes = split_map(walk, range(runs), workers)
    return mean_ci([h for _, h in outcomes if h is not None])
