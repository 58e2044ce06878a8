"""Depth-first geographic routing with a traversed-node header, plus the
virtual coordinate system it can run on.

The packet header records every node the packet has visited, in first-visit
order.  At each node the protocol applies, in order:

1. deliver when the sink currently answers (it is within radio range and its
   metric of 0 makes it answer first);
2. forward to the unvisited neighbor whose coordinate is closest to the
   destination coordinate snapshot (ties to the smallest id);
3. backtrack to the node the current one was first reached from, which is the
   latest header entry before the current node's own entry that is a
   neighbor of it;
4. restart from the source (erase the header, re-snapshot the destination
   coordinate) when the search is exhausted and the sink has moved since the
   snapshot was taken.

This walk is exactly a depth-first search of the connected component, so on a
static topology it reaches every node regardless of how good or bad the
coordinates are; coordinates only steer the visit order.

Coordinates can be the physical positions or virtual ones: random initial
points smoothed by iterated centroid averaging, with a fixed set (the sink's
predefined coordinate in particular) never updated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from .core import NodeId, Position
from .frames import MAX_ADDRESS_COUNT
from .radio import Topology


class RoutingError(Exception):
    pass


class IsolatedNode(RoutingError):
    """A free node with no neighbors cannot take a centroid step."""


class HeaderOverflow(RoutingError):
    """The traversed list no longer fits the data payload bound."""


@dataclass
class RouteHeader:
    traversed: List[NodeId] = field(default_factory=list)
    dest_coord: Position = (0.0, 0.0)


@dataclass
class VirtualCoords:
    coords: Dict[NodeId, Position]
    fixed: FrozenSet[NodeId] = frozenset()


def init_virtual_coords(
    topology: Topology,
    seed: int,
    bounds: Tuple[Tuple[float, float], Tuple[float, float]],
    fixed_coords: Optional[Mapping[NodeId, Position]] = None,
) -> VirtualCoords:
    """Random initial coordinates inside `bounds`, deterministic per seed.

    Nodes listed in `fixed_coords` keep their preset position and are never
    touched by centroid rounds.
    """
    draw = random.Random(seed).random
    (x0, x1), (y0, y1) = bounds
    # rng.uniform(a, b) is a + (b - a) * rng.random(), written out here.
    wx, wy = x1 - x0, y1 - y0
    fixed_coords = dict(fixed_coords or {})
    coords: Dict[NodeId, Position] = {}
    for nid in sorted(topology.positions):
        if nid in fixed_coords:
            coords[nid] = fixed_coords[nid]
        else:
            coords[nid] = (x0 + wx * draw(), y0 + wy * draw())
    return VirtualCoords(coords, frozenset(fixed_coords))


def centroid_round(topology: Topology, vc: VirtualCoords) -> VirtualCoords:
    """One synchronous smoothing step.

    Every free node moves to the mean of its own and its neighbors' previous
    coordinates; fixed nodes are returned untouched.  The self-inclusive mean
    keeps poorly anchored graphs from collapsing in a single step.
    """
    new_coords: Dict[NodeId, Position] = {}
    for nid in sorted(topology.positions):
        if nid in vc.fixed:
            new_coords[nid] = vc.coords[nid]
            continue
        nbrs = topology.adjacency[nid]
        if not nbrs:
            raise IsolatedNode(f"node {nid} has no neighbors")
        sx, sy = vc.coords[nid]
        for v in nbrs:
            vx, vy = vc.coords[v]
            sx += vx
            sy += vy
        count = len(nbrs) + 1
        new_coords[nid] = (sx / count, sy / count)
    return VirtualCoords(new_coords, vc.fixed)


@dataclass(frozen=True)
class Action:
    kind: str  # deliver | forward | backtrack | restart | fail
    target: Optional[NodeId] = None


_DELIVER = Action("deliver")
_RESTART = Action("restart")
_FAIL = Action("fail")


def next_hop_3rule(
    current: NodeId,
    header: RouteHeader,
    topology: Topology,
    coords: Mapping[NodeId, Position],
    *,
    visited: AbstractSet[NodeId],
    sink_adjacent: bool,
    sink_moved: bool,
    source: NodeId,
) -> Action:
    """Pure next-hop decision for the packet sitting at `current`.

    Ties in distance go to the smallest id: the adjacency tuples are sorted,
    as `build_udg` builds them, and only a strictly closer neighbor replaces
    the best so far.  `visited` holds the ids in `header.traversed`; the
    caller keeps it next to the header so that no decision has to rebuild
    it.  `current` need not be in it: `build_udg` never lists a node as its
    own neighbor.
    `sink_adjacent` and `sink_moved` come from the caller, which knows the
    sink's physical position (in the live protocol these facts arrive as the
    metric-0 ACK and the absence of further progress).
    """
    if sink_adjacent:
        return _DELIVER
    tx, ty = header.dest_coord
    best = None
    best_d2 = 0.0
    for v in topology.adjacency[current]:
        if v in visited:
            continue
        vx, vy = coords[v]
        d2 = (vx - tx) ** 2 + (vy - ty) ** 2
        if best is None or d2 < best_d2:
            best, best_d2 = v, d2
    if best is not None:
        return Action("forward", best)
    # Exhausted here: return toward the node this one was first reached from.
    entries = header.traversed
    try:
        cut = entries.index(current)
    except ValueError:
        cut = len(entries)
    nbrs = set(topology.adjacency[current])
    for i in range(cut - 1, -1, -1):
        if entries[i] in nbrs:
            return Action("backtrack", entries[i])
    # Nothing before us in the header: the search is exhausted at the source.
    if sink_moved and current == source and topology.adjacency[source]:
        return _RESTART
    return _FAIL


@dataclass
class RouteResult:
    delivered: bool
    hops: int
    restarts: int
    path: List[NodeId]
    outcome: str  # delivered | missed | failed
    rounds: int = 0


def route(
    topology: Topology,
    coords: Mapping[NodeId, Position],
    source: NodeId,
    sink,
    *,
    sink_coord: Optional[Position] = None,
    round_limit: Optional[int] = None,
    on_round: Optional[Callable[[NodeId, Action, RouteHeader], None]] = None,
) -> RouteResult:
    """Round-based walk of one message from `source` toward the mobile sink.

    One decision per round; a forward or backtrack moves the packet one hop,
    any other decision waits the round out.  With `sink_coord` set, greedy
    decisions aim at that fixed virtual coordinate; otherwise the destination
    coordinate is a snapshot of the sink's physical position, retaken on
    every restart.

    `sink` is whatever clock drives the walk.  It provides `position`
    (physical) and `departed`, both read as they stand when the round's
    decision is taken, and `step()`, called once at the end of every round
    that does not end the walk.  The round-based tracks step one unit of
    drift per round; the six-phase scenario observes the sink at the ACK
    instant of the round's hop exchange and steps one exchange duration.
    `on_round`, when given, is called after each round's decision (and any
    restart it triggered) with the node holding the packet, the action and
    the header, before the packet moves or the sink steps.

    Terminates on delivery, on the sink leaving the field (miss), on the
    round limit (miss), or on exhaustion with a sink that never moved (fail).
    Raises HeaderOverflow when the traversed list outgrows the DATA payload.
    """
    limit = round_limit if round_limit is not None else 4 * len(topology)
    positions = topology.positions
    r2 = topology.range_m**2  # the pair test is the expression of Topology.in_range
    pos = sink.position
    header = RouteHeader(traversed=[], dest_coord=sink_coord or pos)
    traversed = header.traversed
    snapshot = pos
    ever_moved = False
    current = source
    path = [source]
    hops = 0
    restarts = 0
    rounds = 0
    traversed_set = set()

    while True:
        if getattr(sink, "departed", False):
            return RouteResult(False, hops, restarts, path, "missed", rounds)
        if rounds >= limit:
            return RouteResult(False, hops, restarts, path, "missed", rounds)
        pos = sink.position
        x, y = positions[current]
        adjacent = (x - pos[0]) ** 2 + (y - pos[1]) ** 2 <= r2
        action = next_hop_3rule(
            current,
            header,
            topology,
            coords,
            visited=traversed_set,
            sink_adjacent=adjacent,
            sink_moved=pos != snapshot,
            source=source,
        )
        if action.kind == "restart":
            restarts += 1
            traversed.clear()
            traversed_set.clear()
            header.dest_coord = sink_coord or pos
            snapshot = pos
            # Decide again from the fresh header, in the same round: the sink
            # has not stepped, so the loop top sees it where it was, unmoved.
            continue
        kind = action.kind
        if on_round is not None:
            on_round(current, action, header)
        if kind == "deliver":
            return RouteResult(True, hops, restarts, path, "delivered", rounds)
        if kind == "forward" or kind == "backtrack":
            if current not in traversed_set:
                if len(traversed) >= MAX_ADDRESS_COUNT:
                    raise HeaderOverflow(f"traversed list would exceed {MAX_ADDRESS_COUNT} ids")
                traversed.append(current)
                traversed_set.add(current)
            current = action.target
            path.append(current)
            hops += 1
        elif not ever_moved:
            return RouteResult(False, hops, restarts, path, "failed", rounds)
        # else stuck but the sink moves: wait this round out
        sink.step()
        if not ever_moved and sink.position != pos:
            ever_moved = True
        rounds += 1
