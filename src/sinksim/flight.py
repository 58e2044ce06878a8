"""The sink's flight over a network, as a collection rotation reads it.

The flight is three straight legs flown at a constant ground speed: from
the base station to the network's entry, the middle of the x = x0 edge of
the bounding box of the topology's view (`Topology.view`), across to its
exit, the middle of the x = x1 edge, and back to the base station.  From
it: where the sink is and whether it has left the network at a time after
it sets off, which nodes hear each of its request passes (one scan of
every node's position, :func:`_hearers`, which the random-graph sink
placement runs as well), the first pass that some node hears, and when the
sink's channel sampling first catches a base-station request preamble.
The routing walk reads the sink's position and departure at each hop
exchange's ACK instant (`run_scenario` makes those states).

The sink's flight over a topology, and what each of its request passes
finds (the nodes that hear it, or that the sink has left), draw nothing:
they are kept as one memo of the last topology and flight, grown pass by
pass as far as a rotation tests them, and later rotations on the same
flight read them.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import List, Mapping, Optional, Tuple

from .core import NodeId, Position, ProtocolConstants
from .radio import Topology, euclid


class ConfigError(ValueError):
    pass


# The most request passes a rotation sends: the sink repeats its preamble
# every t_brp until a relay answers or it has left the network, and a flight
# still in the network at the end of this many is refused.
MAX_PASSES = 1_000_000


class _Flight:
    """The sink's flight from the base station across `topo`'s network and
    back, and what each of its request passes finds.

    `key` is (bs_position, ms_speed_mps, t_brp, d_brp).  Times `dt` count
    from the sink's set-off, in integer microseconds, so the set-off time
    drops out; pass i ends at dt = i*t_brp + d_brp.  By then the sink has
    either flown past the network's exit, or is heard by the nodes in range
    of its position.  Nothing is drawn, so each pass is tested once, when a
    rotation first asks for it.

    `points` are the base station, the entry, the exit and the base station
    again; `cum` holds the distance flown at each, so the sink has left the
    network once it has flown `exit_dist`, cum[2].
    """

    def __init__(self, topo: Topology, key: Tuple[Position, float, int, int]):
        bs_position, speed_mps, _, _ = key
        if not 0 < speed_mps < math.inf:
            raise ValueError(f"speed must be finite and positive, got {speed_mps!r}")
        x0, y0, x1, y1 = topo.view.bbox
        bs = (float(bs_position[0]), float(bs_position[1]))
        mid = (y0 + y1) / 2
        self.points = [bs, (float(x0), mid), (float(x1), mid), bs]
        cum = [0.0]
        for a, b in zip(self.points, self.points[1:]):
            cum.append(cum[-1] + euclid(a, b))
        # a non-finite length would keep the sink from ever arriving or leaving
        if not math.isfinite(cum[3]):
            raise ValueError("waypoints must be finite")
        self.topo, self.key = topo, key
        self.cum, self.speed_mps = cum, float(speed_mps)
        self.exit_dist = cum[2]
        self.duration_us = int(math.ceil(cum[3] / self.speed_mps * 1e6))
        self._passes: List[Optional[List[NodeId]]] = []

    def _distance(self, dt: int) -> float:
        """How far along its legs the sink has flown `dt` after it sets off."""
        return min(self.speed_mps * dt / 1e6, self.cum[3])

    def position(self, dt: int) -> Position:
        """Where the sink is `dt` after it sets off: at the base station until then."""
        if dt <= 0:
            return self.key[0]
        d = self._distance(dt)
        cum = self.cum
        # the first leg that ends at or past d, else the last one
        i = 0 if d <= cum[1] else 1 if d <= cum[2] else 2
        leg = cum[i + 1] - cum[i]
        frac = (d - cum[i]) / leg if leg else 1.0
        frac = min(max(frac, 0.0), 1.0)
        (ax, ay), (bx, by) = self.points[i], self.points[i + 1]
        return (ax + (bx - ax) * frac, ay + (by - ay) * frac)

    def departed(self, dt: int) -> bool:
        """Whether the sink has flown past the network's exit `dt` after it sets off."""
        return dt > 0 and self._distance(dt) >= self.exit_dist

    @cached_property
    def quiet(self) -> int:
        """The first pass whose hearers are not [] (some node hears it, or
        the sink has left).  There is one below MAX_PASSES when the sink has
        left by the end of pass MAX_PASSES - 1, which `run_scenario` checks
        first.  Found on first read, so a flight that a rotation rejects
        first tests no pass."""
        return next(i for i in range(MAX_PASSES) if self.hearers(i) != [])

    def hearers(self, i: int) -> Optional[List[NodeId]]:
        """The ids that hear pass `i`, ascending; None when the sink has left
        the network by the pass's end."""
        passes = self._passes
        while len(passes) <= i:
            _, _, t_brp, d_brp = self.key
            dt = len(passes) * t_brp + d_brp
            heard = None
            if not self.departed(dt):
                heard = _hearers(self.topo.positions, self.topo.range_m, self.position(dt))
            # passes in a row mostly find the same nodes; sharing one list
            # keeps a short t_brp's many passes at a pointer each
            passes.append(passes[-1] if passes and heard == passes[-1] else heard)
        return passes[i]


# The flight the last rotation flew.  It holds its topology, so no other
# topology can take on its identity while it is kept; a rotation on another
# topology or flight replaces it.
_FLIGHT_CACHE: List[_Flight] = []


def _flight(topo: Topology, bs_position: Position, speed_mps: float, t_brp: int, d_brp: int) -> _Flight:
    """The flight over the non-empty `topo`, kept from the last call when
    that was on the same topology object and an equal flight.

    Raises ValueError for a speed that is not finite and positive, or a
    base station that is not finite.
    """
    key = (tuple(bs_position), speed_mps, t_brp, d_brp)
    if _FLIGHT_CACHE and _FLIGHT_CACHE[0].topo is topo and _FLIGHT_CACHE[0].key == key:
        return _FLIGHT_CACHE[0]
    flight = _Flight(topo, key)
    _FLIGHT_CACHE[:] = [flight]
    return flight


def _hearers(positions: Mapping[NodeId, Position], range_m: float, point: Position) -> List[NodeId]:
    """Ids of the nodes at `positions` within range of `point`, ascending,
    by the pair test of Topology.in_range: dx * dx + dy * dy <= r * r."""
    px, py = point
    r2 = range_m * range_m
    heard = []
    for nid, (x, y) in positions.items():
        dx = x - px
        dy = y - py
        if dx * dx + dy * dy <= r2:
            heard.append(nid)
    heard.sort()
    return heard


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
