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
drops receptions at nodes covered by two overlapping transmissions.
"""

from __future__ import annotations

import heapq
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
        self.state: Dict[NodeId, str] = {nid: IDLE for nid in topology.positions}
        self.busy_until: Dict[NodeId, int] = {nid: 0 for nid in topology.positions}
        self.expiry: Dict[NodeId, int] = {}
        self.token: Dict[NodeId, int] = {nid: 0 for nid in topology.positions}
        # (start, end) of every transmission each node hears, in send order;
        # recorded only for the collision check
        self.heard: Dict[NodeId, List[Tuple[int, int]]] = {nid: [] for nid in topology.positions}
        self.report = FloodReport(initiator=-1, source=source)
        self._queue: List[tuple] = []
        self._seq = 0
        self.now = 0

    def _push(self, time_us: int, kind: str, node: NodeId, token: int = 0) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (time_us, self._seq, kind, node, token))

    def _draw_backoff(self) -> int:
        return self.rng.randint(0, self.c.w_br)

    def _start_backoff(self, node: NodeId, t: int) -> None:
        if self.busy_until[node] > t:
            self.state[node] = DEFER
            self._push(self.busy_until[node], "resume", node, self.token[node])
            return
        self.state[node] = BACKOFF
        self.expiry[node] = t + self._draw_backoff()
        self.token[node] += 1
        self._push(self.expiry[node], "expiry", node, self.token[node])

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
        end = t + self.c.d_brp
        self.state[node] = SENT
        self.report.tx_start_us[node] = t
        self.report.tx_end_us[node] = end
        self.report.transmissions.append((node, t))
        if self.collisions:
            for v in self.topology.adjacency[node]:
                self.heard[v].append((t, end))
        for v in self.topology.adjacency[node]:
            self.busy_until[v] = max(self.busy_until[v], end)
            if self.state[v] == BACKOFF and self.expiry[v] >= t + self.c.d_rxtx:
                # v detects the preamble before committing to transmit
                self.state[v] = DEFER
                self.token[v] += 1
                self._push(end, "resume", v, self.token[v])
        self._push(end, "tx_end", node)

    def inject_reception(self, node: NodeId, rx_complete_us: int) -> None:
        """External preamble (e.g. from the mobile sink) finishing at a node."""
        self._push(rx_complete_us, "deliver", node)

    def _handle_reception(self, node: NodeId, t: int) -> None:
        if self.state[node] != IDLE:
            return
        self.report.first_rx_us[node] = t
        self.report.reached.add(node)
        if node == self.source:
            self.state[node] = SOURCE_WAIT
            self.report.source_wait_expiry_us = t + self.c.b_src
            return
        self._start_backoff(node, t)

    def _process(self, event) -> None:
        t, _, kind, node, token = event
        self.now = t
        if kind == "deliver":
            self._handle_reception(node, t)
        elif kind == "tx_end":
            for v in self.topology.adjacency[node]:
                if self.state[v] == IDLE and not self._lost_to_collision(
                    v, t - self.c.d_brp, t
                ):
                    self._handle_reception(v, t)
        elif kind == "resume":
            if self.state[node] == DEFER and token == self.token[node]:
                self._start_backoff(node, t)
        elif kind == "expiry":
            if self.state[node] == BACKOFF and token == self.token[node]:
                self.transmit(node, t)

    def run_until(self, t_limit: float) -> None:
        """Process every pending event at or before `t_limit`."""
        while self._queue and self._queue[0][0] <= t_limit:
            self._process(heapq.heappop(self._queue))

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
    engine = FloodEngine(topology, c, source=source, seed=seed, collisions=collisions)
    engine.report.initiator = initiator
    engine.report.reached.add(initiator)
    engine.transmit(initiator, 0)
    return engine.run()


def b_src_min(max_degree: int, c: ProtocolConstants = DEFAULT_CONSTANTS) -> int:
    """Strict lower bound for the source wait: the worst case is every one of
    the source's neighbors holding an un-relayed copy, sent back to back."""
    return max_degree * (c.w_br + c.d_brp)
