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

Radio activity partitions each node's simulated time into (start, end,
state) spans; un-involved stretches are the idle sampling state.  A hop
exchange writes each node's spans already filled, in time order, and hands
them to the rotation; `_fill_gaps`, the one routine that fills gaps and
clips overlaps, then fills each node that took part in an exchange once.  A
node that took part in none holds at most its flood relay, in the idle
state: it polls all along, and its totals and segment count are closed
forms.  A rotation keeps its timelines as a
:class:`~sinksim.radio.Timeline` view: each node's microseconds per state,
added up while its spans are filled, with the base station's request train
priced in closed form.  Segments are built only when the view is iterated.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .core import DEFAULT_CONSTANTS, MAX_NODE_ID, NodeId, Position, ProtocolConstants
from .flood import FloodEngine, FloodReport
from .forkmap import split_map
from .mac import ack_backoff
from .radio import Segment, Span, Timeline, Topology, build_udg, euclid, grid_topology
from .routing import (  # noqa: F401  next_hop_3rule stays bound for bench/tracer.py
    RouteResult,
    Tour,
    init_virtual_coords,
    next_hop_3rule,
    route,
)
from .stats import mean_ci

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

    def _reflect(self, value: float, sign: int) -> Tuple[float, int]:
        """A coordinate past a border, folded back into the field, and its
        direction sign after the bounces."""
        while not 0.0 <= value <= self.field_size:
            if not -self.field_size <= value <= 2 * self.field_size:
                # The bounce repeats every two widths: drop whole periods at
                # once, not one width per pass.
                value = math.fmod(value, 2 * self.field_size)
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
        (x, y), (sx, sy) = self.position, self.direction
        x += sx * dx
        y += sy * dy
        if not 0.0 <= x <= self.field_size:
            x, sx = self._reflect(x, sx)
        if not 0.0 <= y <= self.field_size:
            y, sy = self._reflect(y, sy)
        self.position = (x, y)
        self.direction = (sx, sy)


class LineTrack:
    """Constant-speed straight line; departed once the far end is reached.

    A speed that is negative or not finite raises ValueError.
    """

    def __init__(self, start: Position, end: Position, speed: float):
        _check_speed(speed)
        self.start = (float(start[0]), float(start[1]))
        self.end = (float(end[0]), float(end[1]))
        self.speed = float(speed)
        self.length = euclid(self.start, self.end)
        self.traveled = 0.0
        self.position = self.start
        self.departed = self.length == 0.0
        # The constant parts of a step's position, start + (end - start) * frac.
        self._x0, self._y0 = self.start
        self._dx, self._dy = self.end[0] - self._x0, self.end[1] - self._y0

    def step(self) -> None:
        self.traveled += self.speed
        if self.length:
            frac = self.traveled / self.length
            if frac > 1.0:  # min(frac, 1.0) without the call
                frac = 1.0
        else:
            frac = 1.0
        self.position = (self._x0 + self._dx * frac, self._y0 + self._dy * frac)
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
        if not 0 < speed_mps < math.inf:
            raise ValueError(f"speed must be finite and positive, got {speed_mps!r}")
        self.points = [(float(x), float(y)) for x, y in points]
        self.speed_mps = float(speed_mps)
        self.cum = [0.0]
        for a, b in zip(self.points, self.points[1:]):
            self.cum.append(self.cum[-1] + euclid(a, b))
        # a non-finite length would keep the sink from ever arriving or leaving
        if not math.isfinite(self.cum[-1]):
            raise ValueError("waypoints must be finite")

    @property
    def total_length(self) -> float:
        return self.cum[-1]

    def duration_us(self) -> int:
        return int(math.ceil(self.total_length / self.speed_mps * 1e6))

    def distance_at(self, dt_us: float) -> float:
        return min(self.speed_mps * dt_us / 1e6, self.total_length)

    def position_at(self, dt_us: float) -> Position:
        d = self.distance_at(dt_us)
        cum = self.cum
        # the first segment that ends at or past d, else the last one
        i = bisect_left(cum, d, 1, len(cum) - 1) - 1
        seg = cum[i + 1] - cum[i]
        frac = (d - cum[i]) / seg if seg else 1.0
        frac = min(max(frac, 0.0), 1.0)
        ax, ay = self.points[i]
        bx, by = self.points[i + 1]
        return (ax + (bx - ax) * frac, ay + (by - ay) * frac)


# ---------------------------------------------------------------------------
# Radio-state timelines
# ---------------------------------------------------------------------------


def _fill_gaps(
    active: List[Span], start: int, end: int, idle: str
) -> Tuple[List[Span], Dict[str, int], int]:
    """Spans covering [start, end], the idle state in the gaps, each state's
    microseconds, and the active microseconds clipped where spans overlap.

    Active (start, end, state) spans are taken in sorted order and clipped to
    [start, end]; one left empty is skipped, and one that starts before the
    span before it ends keeps only its part after that end; the part cut off
    counts as clipped.  The totals are added up in the same pass, each state
    keyed in order of first appearance, as `radio.state_totals` keys them.
    """
    out: List[Span] = []
    totals: Dict[str, int] = {}
    clipped = 0
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
            out.append((t, s, idle))
            totals[idle] = totals.get(idle, 0) + (s - t)
        out.append((s, e, state))
        totals[state] = totals.get(state, 0) + (e - s)
        t = e
    if t < end:
        out.append((t, end, idle))
        totals[idle] = totals.get(idle, 0) + (end - t)
    return out, totals, clipped


def _base_station_totals(c: ProtocolConstants, horizon: int) -> Tuple[Dict[str, int], int]:
    """Microseconds per state and segment count of the base station's train,
    a data-request preamble (`poll`) every t_dr with listening in between, as
    `_fill_gaps` fills it, in closed form.

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


def hop_exchange_timeline(
    c: ProtocolConstants,
    sender: NodeId,
    responders: Sequence[Tuple[NodeId, int]],
    data_target: Optional[NodeId],
    t0: int = 0,
    cca_offsets: Optional[Dict[NodeId, int]] = None,
) -> Dict[NodeId, List[Span]]:
    """Radio states of one routing hop: preamble, ACK window, data.

    `responders` are (node, ack backoff in us) pairs.  The sender runs the
    micro-frame train for d_rrp (recorded as the sampling-average `poll`
    state), listens through the whole contention window receiving each ACK,
    then transmits the data to `data_target`, which receives it.  Every
    responder wakes once during the preamble for a d_cca channel check and
    otherwise sleeps through the exchange apart from its own ACK.  Returns
    each node's spans, the sender's first.

    The spans are written filled, in time order, as `_fill_gaps` would fill
    them: no span is empty and each starts where the one before it ends.  A
    node whose spans could overlap or leave the exchange (a negative
    duration, a backoff below 0 or above w_rr - d_ack, or d_rrp < d_cca) is
    handed to `_fill_gaps` instead, so that its clip rule stays in one place.
    """
    cca_offsets = cca_offsets or {}
    d_cca, d_ack = c.d_cca, c.d_ack
    t_win = t0 + c.d_rrp
    t_data = t_win + c.w_rr
    t_end = t_data + (c.d_data if data_target is not None else 0)
    # every span below stays inside its own stretch of the exchange
    plain = min(d_cca, d_ack, c.d_rrp - d_cca, c.w_rr, c.d_data) >= 0

    acks = sorted(t_win + int(backoff) for _, backoff in responders)
    # sender: preamble train, then listen with rx during each (merged) ACK
    rx_spans: List[Tuple[int, int]] = []
    for s in acks:
        if s >= t_data:
            break
        e = min(s + d_ack, t_data)
        if rx_spans and s <= rx_spans[-1][1]:
            rx_spans[-1] = (rx_spans[-1][0], max(rx_spans[-1][1], e))
        else:
            rx_spans.append((s, e))
    if plain and (not acks or acks[0] >= t_win):
        spans = [(t0, t_win, "poll")] if t_win > t0 else []
        t = t_win
        for s, e in rx_spans:
            if e > s:
                if s > t:
                    spans.append((t, s, "listen"))
                spans.append((s, e, "rx"))
                t = e
        if t_data > t:
            spans.append((t, t_data, "listen"))
        if t_end > t_data:
            spans.append((t_data, t_end, "tx"))
    else:
        active = [(t0, t_win, "poll")] + [(s, e, "rx") for s, e in rx_spans]
        if data_target is not None:
            active.append((t_data, t_end, "tx"))
        spans = _fill_gaps(active, t0, t_end, "listen")[0]
    timeline = {sender: spans}

    last_ack = t_data - d_ack
    for node, backoff in responders:
        offset = cca_offsets.get(node, 0)
        offset = min(max(offset, 0), c.d_rrp - d_cca)
        cca = t0 + offset
        ack = t_win + int(backoff)
        if plain and offset >= 0 and t_win <= ack <= last_ack:
            # channel check, ACK and data in order, sleep in the gaps
            spans = []
            t = t0
            if d_cca:
                if cca > t:
                    spans.append((t, cca, "sleep"))
                t = cca + d_cca
                spans.append((cca, t, "rx"))
            if d_ack:
                if ack > t:
                    spans.append((t, ack, "sleep"))
                t = ack + d_ack
                spans.append((ack, t, "tx"))
            if node == data_target and t_end > t_data:
                if t_data > t:
                    spans.append((t, t_data, "sleep"))
                spans.append((t_data, t_end, "rx"))
            elif t_end > t:
                spans.append((t, t_end, "sleep"))
        else:
            active = [(cca, cca + d_cca, "rx"), (ack, ack + d_ack, "tx")]
            if node == data_target:
                active.append((t_data, t_end, "rx"))
            spans = _fill_gaps(active, t0, t_end, "sleep")[0]
        timeline.setdefault(node, []).extend(spans)
    return timeline


def timeline_coverage(
    timeline: Union[Timeline, Mapping[NodeId, Sequence[Span]]]
) -> Dict[NodeId, int]:
    """Total covered microseconds per node.

    A `Timeline` view's state totals are summed per node (its overlaps are
    counted in `clipped_us`); plain per-node spans raise ValueError where a
    node's spans overlap.
    """
    if isinstance(timeline, Timeline):
        return {node: sum(states.values()) for node, states in timeline.totals.items()}
    totals = {}
    for node, spans in timeline.items():
        total = 0
        last_end = None
        for s, e, _ in sorted(spans):
            if last_end is not None and s < last_end:
                raise ValueError(f"overlapping spans for node {node}")
            total += e - s
            last_end = e
        totals[node] = total
    return totals


# ---------------------------------------------------------------------------
# Six-phase scenario
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    pass


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


def _network_bbox(topology: Topology) -> Tuple[float, float, float, float]:
    xs = [p[0] for p in topology.positions.values()]
    ys = [p[1] for p in topology.positions.values()]
    return min(xs), min(ys), max(xs), max(ys)


def _by_x(positions: Mapping[NodeId, Position]) -> Tuple[List[float], List[Tuple[NodeId, Position]]]:
    """The (id, position) pairs sorted by x, and their xs, for :func:`_strip`.

    A NaN x fails every pair test and would break the sort order, so such a
    node is left out, as `build_udg` leaves it out of its sweep.
    """
    nodes = [(nid, p) for nid, p in positions.items() if not math.isnan(p[0])]
    nodes.sort(key=lambda item: item[1][0])
    return [x for _, (x, _) in nodes], nodes


class _NetworkView(NamedTuple):
    """What a rotation reads of its topology that the topology alone decides."""

    topology: Topology
    bbox: Tuple[float, float, float, float]
    xs: List[float]  # the xs and (id, position) pairs of :func:`_by_x`
    nodes: List[Tuple[NodeId, Position]]
    order: List[NodeId]  # the timeline's order: the sink, then the ids ascending


# The view of the topology the last rotation ran on.  Rotations run on one
# topology in a row, so one entry serves them.  It holds the topology itself,
# so no other topology can take on its identity while it is kept.
_VIEW_CACHE: List[_NetworkView] = []


def _network_view(topo: Topology) -> _NetworkView:
    """The view of the non-empty `topo`, kept from the last call when that
    was on the same object.

    Raises ConfigError for a node id outside 0..MAX_NODE_ID.
    """
    if _VIEW_CACHE and _VIEW_CACHE[0].topology is topo:
        return _VIEW_CACHE[0]
    ids = sorted(topo.positions)
    for nid in (ids[0], ids[-1]):
        if not 0 <= nid <= MAX_NODE_ID:
            raise ConfigError(f"node id {nid} does not fit the one byte a DATA payload gives it")
    view = _NetworkView(topo, _network_bbox(topo), *_by_x(topo.positions), [MS_ID, *ids])
    _VIEW_CACHE[:] = [view]
    return view


# Gaps below this square to less than the smallest normal float and can
# round to 0, so the pair test may pass them whatever the range; the strip
# and quiet-pass margins never come closer than this.
_UNDERFLOW_GAP = 1e-150


def _strip(xs: Sequence[float], px: float, range_m: float) -> slice:
    """The slice of the ascending `xs` that can be within `range_m` of a
    point at x `px`.

    A node further than the range in x, with a margin far above rounding
    and above underflow, fails the pair test of Topology.in_range, so only
    the nodes inside the strip need the test.
    """
    reach = range_m + 1e-9 * (abs(px) + range_m) + _UNDERFLOW_GAP
    return slice(bisect_left(xs, px - reach), bisect_right(xs, px + reach))


def _hearers(
    xs: Sequence[float],
    nodes: Sequence[Tuple[NodeId, Position]],
    range_m: float,
    point: Position,
) -> List[NodeId]:
    """Ids of the `nodes` within range of `point`, ascending.

    `nodes` are (id, position) pairs sorted by x and `xs` their xs, as
    :func:`_by_x` makes them; only the x strip around `point` is tested,
    with the pair test of Topology.in_range.
    """
    px, py = point
    r2 = range_m**2
    strip = nodes[_strip(xs, px, range_m)]
    return sorted(nid for nid, (x, y) in strip if (x - px) ** 2 + (y - py) ** 2 <= r2)


def _quiet_passes(
    track: WaypointTrack,
    bbox: Tuple[float, float, float, float],
    range_m: float,
    exit_dist: float,
    t_brp: int,
    d_brp: int,
) -> int:
    """How many of the sink's first request preambles no node can hear.

    Preamble k ends k*t_brp + d_brp after the sink sets off from the track's
    first point, and the sink is never farther from that point than the path
    it has flown.  So while the path is shorter than the point's distance
    from the network's box `bbox` less the range, no node is in range, and
    while it is shorter than `exit_dist`, the sink has not left.  The margin
    is far above the rounding of the positions and of this bound, and above
    the gaps whose squares underflow.
    """
    (px, py), (x0, y0, x1, y1) = track.points[0], bbox
    gap = math.hypot(
        x0 - px if px < x0 else (px - x1 if px > x1 else 0.0),
        y0 - py if py < y0 else (py - y1 if py > y1 else 0.0),
    )
    scale = max(abs(v) for v in (*bbox, *(v for p in track.points for v in p)))
    reach = min(gap - range_m, exit_dist) - 1e-9 * (scale + exit_dist + range_m) - _UNDERFLOW_GAP
    if not reach > 0:
        return 0
    return max(0, math.ceil((reach / track.speed_mps * 1e6 - d_brp) / t_brp))


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
    if (cfg.virtual_coords is None) != (cfg.ms_virtual_coord is None):
        raise ConfigError("virtual_coords and ms_virtual_coord are set together or not at all")
    # timers the rotation divides by or draws offsets within
    for name in ("t_dr", "t_cca", "t_brp"):
        if getattr(c, name) <= 0:
            raise ConfigError(f"{name} must be > 0, got {getattr(c, name)}")
    if c.d_rrp < c.d_cca:
        raise ConfigError(f"d_rrp ({c.d_rrp}) must be >= d_cca ({c.d_cca})")

    view = _network_view(topo)
    bbox = x0, y0, x1, y1 = view.bbox
    entry = (x0, (y0 + y1) / 2)
    exit_ = (x1, (y0 + y1) / 2)
    track = WaypointTrack([cfg.bs_position, entry, exit_, cfg.bs_position], cfg.ms_speed_mps)
    if track.duration_us() > MAX_ROUND_TRIP_S * 1_000_000:
        raise ConfigError(
            f"the sink's round trip takes {track.duration_us() / 1e6:.4g} s, more than {MAX_ROUND_TRIP_S} s"
        )
    exit_dist = euclid(cfg.bs_position, entry) + euclid(entry, exit_)

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
    # the time, and the flood runs interleaved with the retries.
    engine = FloodEngine(
        topo, c, source=cfg.query_node, seed=rng.randrange(2**31), collisions=cfg.collisions
    )
    relay_heard: Optional[int] = None
    seeded = False
    scanned = 0
    xs, nodes = view.xs, view.nodes
    inject, run_until = engine.inject_reception, engine.run_until
    transmissions = engine.report.transmissions
    t_brp, d_brp = c.t_brp, c.d_brp
    retries = 1_000_000
    # the passes before the sink can be heard only poll
    quiet = min(_quiet_passes(track, bbox, topo.range_m, exit_dist, t_brp, d_brp), retries)
    ms_active += [
        (fly_start + i * t_brp, fly_start + i * t_brp + d_brp, "poll") for i in range(quiet)
    ]
    for i in range(quiet, retries):
        brp_start = fly_start + i * t_brp
        brp_end = brp_start + d_brp
        if ms_departed(brp_end):
            if seeded:
                break  # query handed off; the sink flies on without hearing back
            raise ConfigError("sink crossed the network without being heard")
        # ascending ids: injection order sets the event order
        hearers = _hearers(xs, nodes, topo.range_m, ms_pos(brp_end))
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
    cca_window = c.d_rrp - c.d_cca + 1
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
        cca = {nid: rng.randrange(cca_window) for nid, _ in sorted(responders)}
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
    order = view.order
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
# Sweep presets
# ---------------------------------------------------------------------------


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
RANDOM_TOPOLOGIES = 50  # a random-graph point's replications cycle over these
GRID_SIDE = 5
GRID_SPACING_M = 25.0
GRID_FIELD_M = GRID_SPACING_M * (GRID_SIDE - 1)
GRID_SINK_VCOORD = (GRID_FIELD_M / 2, GRID_FIELD_M / 2)
GRID_BOUNDS = ((0, GRID_FIELD_M), (0, GRID_FIELD_M))  # virtual coordinates start inside the field
GRID_CROSSING_SPEED = 4.0  # field units per round, hop-count reference setting


# The most nodes a random-graph topology may have.  A set-up holds up to 50
# topologies at once, and their adjacency grows with the square of the node
# count: at 1,000 nodes (mean degree 125 on the default field) a 50-run point
# takes about 4 s and 72 MB, at 2,000 nodes 18 s and 216 MB.  The paper's
# degrees 4-10 need 33-81 nodes.  Ids above 255 do not fit the one byte a
# DATA payload gives an id, which the six-phase run rejects; the abstract
# sweeps put no id into a frame, so they may exceed 256 nodes.
MAX_NODES = 1_000


def nodes_for_degree(degree: float) -> int:
    """Node count giving the target mean neighbor count on the random-graph field.

    Raises ValueError unless the degree is finite and > 0 and the count, before
    rounding, is at most MAX_NODES.
    """
    if not 0 < degree < math.inf:
        raise ValueError(f"degree must be finite and > 0, got {degree!r}")
    field, range_m = RANDOM_FIELD_M, RANDOM_RANGE_M
    count = 1 + degree * field * field / (math.pi * range_m * range_m)
    if not count <= MAX_NODES:
        raise ValueError(f"degree {degree!r} needs {count:.4g} nodes, more than {MAX_NODES}")
    return max(2, round(count))


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
    worker count.
    """
    if mobility not in ("edge", "diagonal"):
        raise ValueError("grid mobility must be 'edge' or 'diagonal'")
    if coord_mode not in ("physical", "virtual"):
        raise ValueError(f"unknown coordinate mode {coord_mode!r}")
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
        if vc_seed is None:
            return _outcome(route(g, g.positions, source, track))
        # Coordinates are made only if the walk moves at all.
        return _outcome(
            route(
                g,
                lambda: init_virtual_coords(g, vc_seed, GRID_BOUNDS),
                source,
                track,
                sink_coord=GRID_SINK_VCOORD,
            )
        )

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
        return _outcome(
            route(
                g,
                lambda: init_virtual_coords(g, vc_seed, GRID_BOUNDS),
                source,
                track,
                sink_coord=GRID_SINK_VCOORD,
            )
        )

    outcomes = split_map(walk, range(runs), workers)
    return mean_ci([h for _, h in outcomes if h is not None])
