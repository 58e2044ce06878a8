"""Backoff-based blind flooding of a broadcast-request preamble.

On its first reception a node draws a backoff uniformly in [0, W_BR] and
keeps listening; every further preamble it detects while waiting cancels the
backoff, which is redrawn from the full window once that transmission ends.
When the backoff finally expires the node relays exactly one copy and then
ignores the flood.  A node that starts a backoff while a neighbor is already
on the air defers the draw to the end of that transmission, so two neighbors
can only overlap when the second one committed within the rx->tx switch time
of the first.

The designated source node does not relay: its first reception starts the
long source wait instead, giving the broadcast storm time to die out.

Transmissions are modeled at packet granularity (one interval of d_brp per
relay) and reception is loss-free by default; the optional collision flag
drops receptions at nodes covered by two overlapping transmissions.  Only
then does the engine record, per node, the transmissions it hears
(`heard`); loss-free it stays empty.

Event order: `run_until` is the one event loop.  Events run in time order,
ties in push order (one counter numbers the pushes of `run_until`,
`transmit` and `inject_reception`).  Every backoff start and every cancel
bumps the node's token; a `resume` or `expiry` that carries an older token,
or finds the node no longer deferring or backing off, is stale and is
dropped when it comes up.  `transmit` is the one place a transmission is
booked.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .core import DEFAULT_CONSTANTS, NodeId, ProtocolConstants
from .radio import Topology

IDLE = "idle"
BACKOFF = "backoff"
DEFER = "defer"
SENT = "sent"
SOURCE_WAIT = "source_wait"

# event kinds
DELIVER = "deliver"  # an external preamble ends at the node
TX_END = "tx_end"  # the node's relay ends at each of its neighbors
RESUME = "resume"  # the channel a deferring node waited on is clear
EXPIRY = "expiry"  # the node's backoff runs out


@dataclass
class FloodReport:
    initiator: NodeId
    source: Optional[NodeId]
    first_rx_us: Dict[NodeId, int] = field(default_factory=dict)
    tx_start_us: Dict[NodeId, int] = field(default_factory=dict)
    tx_end_us: Dict[NodeId, int] = field(default_factory=dict)
    transmissions: List[Tuple[NodeId, int]] = field(default_factory=list)
    source_wait_expiry_us: Optional[int] = None
    completion_us: int = 0
    reached: Set[NodeId] = field(default_factory=set)


class FloodEngine:
    """Event queue for one flood; scenario code injects external receptions."""

    def __init__(
        self,
        topology: Topology,
        c: ProtocolConstants = DEFAULT_CONSTANTS,
        source: Optional[NodeId] = None,
        seed: int = 0,
        collisions: bool = False,
    ):
        self.topology = topology
        self.c = c
        self.source = source
        self.collisions = collisions
        self.rng = random.Random(seed)
        nodes = topology.positions
        self.state: Dict[NodeId, str] = dict.fromkeys(nodes, IDLE)
        self.busy_until: Dict[NodeId, int] = dict.fromkeys(nodes, 0)
        self.expiry: Dict[NodeId, int] = {}
        self.token: Dict[NodeId, int] = dict.fromkeys(nodes, 0)
        # (start, end) of every transmission each node hears, in send order;
        # recorded only for the collision check
        self.heard: Dict[NodeId, List[Tuple[int, int]]] = (
            {nid: [] for nid in nodes} if collisions else {}
        )
        self.report = FloodReport(initiator=-1, source=source)
        # (time, push order, kind, node, token) entries
        self._queue: List[Tuple[int, int, str, NodeId, int]] = []
        self._seq = itertools.count()
        self.now = 0

    def _lost_to_collision(self, node: NodeId, start: int, end: int) -> bool:
        """Reception is lost when a second neighbor transmission overlaps it."""
        if not self.collisions:
            return False
        overlapping = 0
        for s, e in self.heard[node]:
            if s < end and e > start:
                overlapping += 1
        return overlapping > 1

    def transmit(self, node: NodeId, t: int) -> None:
        """Node starts a relay transmission at time t."""
        c = self.c
        end = t + c.d_brp
        self.state[node] = SENT
        report = self.report
        report.tx_start_us[node] = t
        report.tx_end_us[node] = end
        report.transmissions.append((node, t))
        neighbors = self.topology.adjacency[node]
        if self.collisions:
            heard = self.heard
            for v in neighbors:
                heard[v].append((t, end))
        state, busy_until, expiry, token = self.state, self.busy_until, self.expiry, self.token
        queue, seq = self._queue, self._seq
        committed = t + c.d_rxtx
        for v in neighbors:
            if busy_until[v] < end:
                busy_until[v] = end
            if state[v] == BACKOFF and expiry[v] >= committed:
                # v detects the preamble before committing to transmit
                state[v] = DEFER
                token[v] = k = token[v] + 1
                heapq.heappush(queue, (end, next(seq), RESUME, v, k))
        heapq.heappush(queue, (end, next(seq), TX_END, node, 0))

    def inject_reception(self, node: NodeId, rx_complete_us: int) -> None:
        """External preamble (e.g. from the mobile sink) finishing at a node."""
        heapq.heappush(self._queue, (rx_complete_us, next(self._seq), DELIVER, node, 0))

    def run_until(self, t_limit: float) -> None:
        """Process every pending event at or before `t_limit`, in the order
        the module docstring states."""
        queue = self._queue
        if not queue or queue[0][0] > t_limit:
            return
        pop, push, seq = heapq.heappop, heapq.heappush, self._seq
        state, busy_until, expiry, token = self.state, self.busy_until, self.expiry, self.token
        adjacency = self.topology.adjacency
        report = self.report
        first_rx, reached = report.first_rx_us, report.reached
        source, d_brp, b_src = self.source, self.c.d_brp, self.c.b_src
        draw, window = self.rng.randrange, self.c.w_br + 1
        lost = self._lost_to_collision if self.collisions else None
        transmit = self.transmit
        while queue and queue[0][0] <= t_limit:
            t, _, kind, node, tok = pop(queue)
            if kind == EXPIRY:
                if state[node] == BACKOFF and tok == token[node]:
                    transmit(node, t)
                continue
            if kind == RESUME:
                if state[node] != DEFER or tok != token[node]:
                    continue
                starting = (node,)
            else:
                # a delivery reaches its node, a relay's end the neighbors
                # whose copy survives; only an idle node takes it in
                if kind == DELIVER:
                    receivers = (node,)
                elif lost is None:
                    receivers = adjacency[node]
                else:
                    receivers = [
                        v for v in adjacency[node] if state[v] == IDLE and not lost(v, t - d_brp, t)
                    ]
                starting = []
                for v in receivers:
                    if state[v] != IDLE:
                        continue
                    first_rx[v] = t
                    reached.add(v)
                    if v == source:
                        state[v] = SOURCE_WAIT
                        report.source_wait_expiry_us = t + b_src
                    else:
                        starting.append(v)
            # start a backoff, or defer its draw while a neighbor is on the air
            for v in starting:
                if busy_until[v] > t:
                    state[v] = DEFER
                    push(queue, (busy_until[v], next(seq), RESUME, v, token[v]))
                else:
                    state[v] = BACKOFF
                    expiry[v] = e = t + draw(window)
                    token[v] = k = token[v] + 1
                    push(queue, (e, next(seq), EXPIRY, v, k))
        self.now = t

    def run(self) -> FloodReport:
        self.run_until(float("inf"))
        self.report.completion_us = max(
            [self.now]
            + list(self.report.tx_end_us.values())
            + ([self.report.source_wait_expiry_us] if self.report.source_wait_expiry_us else [])
        )
        return self.report


def simulate_flood(
    topology: Topology,
    initiator: NodeId,
    source: Optional[NodeId] = None,
    c: ProtocolConstants = DEFAULT_CONSTANTS,
    seed: int = 0,
    collisions: bool = False,
) -> FloodReport:
    """Flood started by `initiator` transmitting immediately at time 0.

    The initiator sends with no backoff; it would retry with period t_brp if
    no relay were heard, which in the loss-free model can only happen when it
    has no neighbors at all, so a single transmission is recorded.
    """
    if initiator not in topology.positions:
        raise KeyError(f"initiator {initiator} not in topology")
    if source is not None and source not in topology.positions:
        raise KeyError(f"source {source} not in topology")
    engine = FloodEngine(topology, c, source=source, seed=seed, collisions=collisions)
    engine.report.initiator = initiator
    engine.report.reached.add(initiator)
    engine.transmit(initiator, 0)
    return engine.run()


def b_src_min(max_degree: int, c: ProtocolConstants = DEFAULT_CONSTANTS) -> int:
    """Strict lower bound for the source wait: the worst case is every one of
    the source's neighbors holding an un-relayed copy, sent back to back."""
    return max_degree * (c.w_br + c.d_brp)
