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

Rules 2 and 3 never read the sink, so away from it the walk follows one fixed
tour: the sequence of nodes the search visits when the sink never answers.
`next_hop_3rule` applies them to plain values, the destination coordinate
and the header's traversed list with its id set, and returns the node the
packet moves to, or None when the search is exhausted; `route` applies rules
1 and 4, which read the sink, and is a scan of the sink along that tour.  A
:class:`Tour` holds its entries and whether the search is exhausted; it grows
lazily, one `next_hop_3rule` decision at a time, as far as a scan reaches, on
a traversed list rebuilt from its entries.  It holds only moves the header
can carry: a move that would overflow it is decided again by every walk that
reaches it.  Each round checks the sink against the packet's entry: in range
it delivers (rule 1), otherwise the packet moves to the next entry.  At the
end of an exhausted tour, rule 4 restarts the scan from the source.  With a
fixed destination coordinate a restart replays the same tour, so walks that
differ only in the sink, such as the paired speeds of a sweep, share it.
With a destination snapshot each restart starts a fresh tour.

Coordinates can be the physical positions or virtual ones: one seeded random
draw per node inside a box, with the sink's virtual coordinate a fixed point
the caller chooses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import AbstractSet, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .core import NodeId, Position
from .frames import MAX_ADDRESS_COUNT
from .radio import Topology
from .tracks import State


class RoutingError(Exception):
    pass


class HeaderOverflow(RoutingError):
    """The traversed list no longer fits the data payload bound."""


def init_virtual_coords(
    topology: Topology,
    seed: int,
    bounds: Tuple[Tuple[float, float], Tuple[float, float]],
) -> Dict[NodeId, Position]:
    """Random coordinates inside `bounds`, deterministic per seed."""
    draw = random.Random(seed).random
    (x0, x1), (y0, y1) = bounds
    # rng.uniform(a, b) is a + (b - a) * rng.random(), written out here.
    wx, wy = x1 - x0, y1 - y0
    # Ids ascending, x drawn before y: a tuple display evaluates left to right.
    return {
        nid: (x0 + wx * draw(), y0 + wy * draw())
        for nid in sorted(topology.positions)
    }


def next_hop_3rule(
    current: NodeId,
    dest: Position,
    traversed: Sequence[NodeId],
    visited: AbstractSet[NodeId],
    topology: Topology,
    coords: Mapping[NodeId, Position],
) -> Optional[NodeId]:
    """Rules 2 and 3 for the packet sitting at `current`: the node it moves
    to, or None when the search is exhausted there.

    `dest` is the destination coordinate and `traversed` the header's
    traversed list, in first-visit order.  Ties in distance go to the
    smallest id: the adjacency tuples are sorted, as `build_udg` builds them,
    and only a strictly closer neighbor replaces the best so far.  `visited`
    holds the ids in `traversed`; the caller keeps it next to the list so
    that no decision has to rebuild it.  `current` need not be in it:
    `build_udg` never lists a node as its own neighbor.  Rules 1 and 4 read
    the sink, so `route` applies them.
    """
    tx, ty = dest
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
        return best
    # Exhausted here: return toward the node this one was first reached from.
    try:
        cut = traversed.index(current)
    except ValueError:
        cut = len(traversed)
    nbrs = set(topology.adjacency[current])
    for i in range(cut - 1, -1, -1):
        if traversed[i] in nbrs:
            return traversed[i]
    return None  # nothing before us in the header


@dataclass
class RouteResult:
    delivered: bool
    hops: int
    restarts: int
    path: List[NodeId]
    outcome: str  # delivered | missed | failed
    rounds: int = 0


@dataclass(slots=True)
class Tour:
    """The depth-first tour of one source toward one destination coordinate.

    `entries[k]` is the node that holds the packet after k moves of a walk
    that the sink never answers; `entries[0]` is the source.  The tour is
    grown lazily, one entry at a time.  `complete` marks a search exhausted
    at `entries[-1]`.  Every move it holds fits the header bound of the
    walks that grew it (`route`'s `max_traversed`); walks that share a tour
    share that bound.  A tour is only ints, so it can be kept or sent as
    plain data; the search behind it is rebuilt from its entries when it
    has to grow.
    """

    entries: List[NodeId]
    complete: bool = False


def route(
    topology: Topology,
    coords: Union[Mapping[NodeId, Position], Callable[[], Mapping[NodeId, Position]]],
    source: NodeId,
    sink: Iterable[State],
    *,
    sink_coord: Optional[Position] = None,
    round_limit: Optional[int] = None,
    on_round: Optional[Callable[[int, NodeId, Optional[NodeId], Position], None]] = None,
    tour: Optional[Tour] = None,
    max_traversed: int = MAX_ADDRESS_COUNT,
) -> RouteResult:
    """Round-based walk of one message from `source` toward the mobile sink.

    One decision per round: the packet is delivered, moves one hop or waits
    the round out.  With `sink_coord` set, greedy decisions aim at that fixed
    virtual coordinate; otherwise the destination coordinate is a snapshot of
    the sink's physical position, retaken on every restart.

    Away from the sink the decisions do not depend on it, so the walk is a
    scan of the sink along a depth-first :class:`Tour`.  Each round checks
    the sink against the packet's tour entry: in range, the packet is
    delivered; otherwise it moves to the next entry, growing the tour through
    `next_hop_3rule` when the scan reaches its end.  At the end of a complete
    tour a sink that has moved since the snapshot restarts the walk: with a
    fixed `sink_coord` the scan goes back to the tour's start, and in
    physical mode the new snapshot starts a fresh tour.  `tour`, when given,
    is the tour of this topology, coordinates, source and destination
    coordinate that earlier walks grew; it is grown in place, so walks that
    differ only in the sink share it.  `coords` may be a function that makes
    the coordinates: it is called only if a tour has to grow.

    `sink` is whatever clock drives the walk: an iterable of the sink's
    states, (physical position, departed), one per round.  The walk takes
    the first before round 0 and the next at the end of every round that
    does not end the walk, so a walk with round limit L reads at most L + 1;
    a sink that runs out of states before the walk ends raises ValueError.
    In the sweeps a round is one unit of drift; the six-phase scenario
    observes the sink at the ACK instant of the round's hop exchange, one
    exchange later each round.
    `on_round`, when given, is called in each round that sends a frame,
    before the packet moves or the walk takes the next state: with the
    round's number (rounds count from 0, and a round that waits counts too),
    the node holding the packet, the node it moves to (None when the sink
    answers and the packet is delivered) and the destination coordinate.  A
    round that waits calls nothing.

    Terminates on delivery, on the sink leaving the field (miss), on the
    round limit (miss), or on exhaustion with a sink that never moved (fail).
    Raises HeaderOverflow when a move would push the traversed list past
    `max_traversed` ids, after `on_round` has seen that move; the move is
    not added to the tour.  The DATA payload holds 118 ids in all, which is
    the default; an answer that also carries the source's neighbor list
    leaves the traversed list 118 less their count.
    """
    limit = round_limit if round_limit is not None else 4 * len(topology)
    positions = topology.positions
    r2 = topology.range_m**2  # the pair test is the expression of Topology.in_range
    next_state = iter(sink).__next__
    try:
        pos, departed = next_state()
    except StopIteration:
        raise ValueError("the sink has no state for round 0") from None
    snapshot = pos
    dest = sink_coord if sink_coord is not None else snapshot
    if tour is None:
        tour = Tour([source])
    entries = tour.entries
    end = len(entries) - 1
    # The search behind the tour (traversed list, id set, coordinates), made
    # when the tour first has to grow.
    traversed = visited = made = None
    node = source
    k = 0  # the packet's index in the tour
    path = [source]
    restarts = 0
    rounds = 0
    ever_moved = False

    while True:
        if departed or rounds >= limit:
            return RouteResult(False, len(path) - 1, restarts, path, "missed", rounds)
        x, y = positions[node]
        if (x - pos[0]) ** 2 + (y - pos[1]) ** 2 <= r2:
            if on_round is not None:
                on_round(rounds, node, None, dest)
            return RouteResult(True, len(path) - 1, restarts, path, "delivered", rounds)
        if k == end and not tour.complete:
            # Grow the tour by one decision of rules 2-3.  The rule is looked
            # up at call time, so a wrapped rule sees every decision.
            if traversed is None:
                # Every entry the tour has left, in first-visit order.
                traversed = list(dict.fromkeys(entries[:-1]))
                visited = set(traversed)
                made = coords() if callable(coords) else coords
            target = next_hop_3rule(node, dest, traversed, visited, topology, made)
            if target is None:
                tour.complete = True
            else:
                if node not in visited:
                    if len(traversed) >= max_traversed:
                        if on_round is not None:
                            on_round(rounds, node, target, dest)
                        raise HeaderOverflow(f"traversed list would exceed {max_traversed} ids")
                    visited.add(node)
                    traversed.append(node)
                entries.append(target)
                end += 1
        if k < end:
            target = entries[k + 1]
            if on_round is not None:
                on_round(rounds, node, target, dest)
            k += 1
            node = target
            path.append(node)
        elif pos != snapshot and node == source and topology.adjacency[source]:
            restarts += 1
            snapshot = pos
            k = 0
            if sink_coord is None:
                dest = pos
                tour = Tour([source])
                entries = tour.entries
                end = 0
                traversed = None
            # Decide again from the tour's start, in the same round, on the
            # same state of the sink.
            continue
        elif not ever_moved:
            return RouteResult(False, len(path) - 1, restarts, path, "failed", rounds)
        # else stuck but the sink moves: wait this round out
        last = pos
        try:
            pos, departed = next_state()
        except StopIteration:
            raise ValueError(f"the sink has no state for round {rounds + 1}") from None
        if not ever_moved and pos != last:
            ever_moved = True
        rounds += 1
