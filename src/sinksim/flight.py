"""The sink's flight over a network, as a collection rotation reads it.

What a rotation reads of its topology that the topology alone decides (the
bounding box, the nodes sorted by x and the timeline order) is kept as one
view per topology.  From it: which nodes hear the sink at a point, how many
of the sink's first request preambles no node can hear, when the sink's
channel sampling first catches a base-station request preamble, and the
flying sink as the routing walk sees it in event time.

The sink's flight over a view, and what each of its request passes finds
(the nodes that hear it, or that the sink has left), draw nothing: they are
kept as one memo per view and flight, grown pass by pass as far as a
rotation tests them, and later rotations on the same flight read them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .core import MAX_NODE_ID, NodeId, Position, ProtocolConstants
from .radio import Topology, euclid
from .timelines import MS_ID
from .tracks import WaypointTrack


class ConfigError(ValueError):
    pass


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


class _Flight:
    """The sink's flight from the base station across a view's network and
    back, and what each of its request passes finds.

    `key` is (bs_position, ms_speed_mps, t_brp, d_brp).  Pass i ends
    dt = i*t_brp + d_brp after the sink sets off, in integer microseconds, so
    the set-off time drops out.  By then the sink has either flown past the
    network's exit, or is heard by the nodes in range of its position: the
    base station's while dt <= 0.  Nothing is drawn, so each pass is tested
    once, when a rotation first asks for it.
    """

    __slots__ = ("view", "key", "track", "exit_dist", "quiet", "_passes")

    def __init__(self, view: _NetworkView, key: Tuple[Position, float, int, int]):
        bs_position, speed_mps, t_brp, d_brp = key
        x0, y0, x1, y1 = view.bbox
        entry, exit_ = (x0, (y0 + y1) / 2), (x1, (y0 + y1) / 2)
        self.view, self.key = view, key
        self.track = WaypointTrack([bs_position, entry, exit_, bs_position], speed_mps)
        self.exit_dist = euclid(bs_position, entry) + euclid(entry, exit_)
        # the passes before the sink can be heard, which are never tested
        self.quiet = _quiet_passes(self.track, view.bbox, view.topology.range_m, self.exit_dist, t_brp, d_brp)
        self._passes: List[Optional[List[NodeId]]] = []  # from pass `quiet` on

    def hearers(self, i: int) -> Optional[List[NodeId]]:
        """The ids that hear pass `i`, at or after `quiet`, ascending; None
        when the sink has left the network by the pass's end."""
        passes, quiet = self._passes, self.quiet
        while len(passes) <= i - quiet:
            heard = self._test(quiet + len(passes))
            # passes in a row mostly find the same nodes; sharing one list
            # keeps a short t_brp's many passes at a pointer each
            passes.append(passes[-1] if passes and heard == passes[-1] else heard)
        return passes[i - quiet]

    def _test(self, i: int) -> Optional[List[NodeId]]:
        bs_position, _, t_brp, d_brp = self.key
        dt = i * t_brp + d_brp
        point = bs_position
        if dt > 0:
            if self.track.distance_at(dt) >= self.exit_dist:
                return None
            point = self.track.position_at(dt)
        view = self.view
        return _hearers(view.xs, view.nodes, view.topology.range_m, point)


# The flight the last rotation flew.  It holds its view, and through it its
# topology, so no other topology can take on the view's identity while it is
# kept; a rotation on another view or flight replaces it.
_FLIGHT_CACHE: List[_Flight] = []


def _flight(view: _NetworkView, bs_position: Position, speed_mps: float, t_brp: int, d_brp: int) -> _Flight:
    """The flight over `view`, kept from the last call when that was on the
    same view object and an equal flight.

    Raises ValueError for a speed or a base station that the track rejects.
    """
    key = (tuple(bs_position), speed_mps, t_brp, d_brp)
    if _FLIGHT_CACHE and _FLIGHT_CACHE[0].view is view and _FLIGHT_CACHE[0].key == key:
        return _FLIGHT_CACHE[0]
    flight = _Flight(view, key)
    _FLIGHT_CACHE[:] = [flight]
    return flight


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

