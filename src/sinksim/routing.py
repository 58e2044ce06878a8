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
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

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
    rng = random.Random(seed)
    (x0, x1), (y0, y1) = bounds
    fixed_coords = dict(fixed_coords or {})
    coords: Dict[NodeId, Position] = {}
    for nid in sorted(topology.positions):
        if nid in fixed_coords:
            coords[nid] = fixed_coords[nid]
        else:
            coords[nid] = (rng.uniform(x0, x1), rng.uniform(y0, y1))
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


def _dist2(a: Position, b: Position) -> float:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def next_hop_3rule(
    current: NodeId,
    header: RouteHeader,
    topology: Topology,
    coords: Mapping[NodeId, Position],
    *,
    sink_adjacent: bool,
    sink_moved: bool,
    source: NodeId,
) -> Action:
    """Pure next-hop decision for the packet sitting at `current`.

    `sink_adjacent` and `sink_moved` come from the caller, which knows the
    sink's physical position (in the live protocol these facts arrive as the
    metric-0 ACK and the absence of further progress).
    """
    if sink_adjacent:
        return Action("deliver")
    visited = set(header.traversed)
    visited.add(current)
    best = None
    best_key = None
    for v in topology.adjacency[current]:
        if v in visited:
            continue
        key = (_dist2(coords[v], header.dest_coord), v)
        if best_key is None or key < best_key:
            best, best_key = v, key
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
        return Action("restart")
    return Action("fail")


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
    header = RouteHeader(traversed=[], dest_coord=sink_coord or sink.position)
    snapshot = sink.position
    ever_moved = False
    current = source
    path = [source]
    hops = 0
    restarts = 0
    rounds = 0
    traversed_set = set()

    def record(node: NodeId) -> None:
        if node not in traversed_set:
            if len(header.traversed) >= MAX_ADDRESS_COUNT:
                raise HeaderOverflow(f"traversed list would exceed {MAX_ADDRESS_COUNT} ids")
            header.traversed.append(node)
            traversed_set.add(node)

    while True:
        if getattr(sink, "departed", False):
            return RouteResult(False, hops, restarts, path, "missed", rounds)
        if rounds >= limit:
            return RouteResult(False, hops, restarts, path, "missed", rounds)
        restarted_this_round = False
        while True:
            action = next_hop_3rule(
                current,
                header,
                topology,
                coords,
                sink_adjacent=topology.in_range(current, sink.position),
                sink_moved=sink.position != snapshot,
                source=source,
            )
            if action.kind == "restart" and not restarted_this_round:
                restarts += 1
                restarted_this_round = True
                header.traversed.clear()
                traversed_set.clear()
                header.dest_coord = sink_coord or sink.position
                snapshot = sink.position
                continue
            break
        if on_round is not None:
            on_round(current, action, header)
        if action.kind == "deliver":
            return RouteResult(True, hops, restarts, path, "delivered", rounds)
        if action.kind in ("forward", "backtrack"):
            record(current)
            current = action.target
            path.append(current)
            hops += 1
        elif action.kind in ("fail", "restart"):
            # restart here means: restarted already this round and still stuck
            if not ever_moved:
                return RouteResult(False, hops, restarts, path, "failed", rounds)
            # stuck but the sink moves: wait this round out
        before = sink.position
        sink.step()
        if sink.position != before:
            ever_moved = True
        rounds += 1
