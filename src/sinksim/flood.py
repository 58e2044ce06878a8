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
(`heard`); loss-free `heard` is None.

The engine's state lives in lists indexed by slot: slot i is the i-th node
id in ascending order.  The ids, the slot of each id, and the adjacency as
slot tuples in the topology's neighbor order come from the topology's view
(`Topology.view`), built once per topology.  Events carry slots; the report
stays keyed by node id, translated as each relay and reception is booked.

Event order: `run_until` is the one event loop.  Events run in time order,
ties in push order (one counter numbers every push: those of `run_until`,
`inject_reception` and `_relay_at`).  Every backoff start and every cancel
bumps the node's token; a `resume` or `expiry` that carries an older token,
or finds the node no longer deferring or backing off, is stale and is
dropped when it comes up.  An expiry that is not stale is the one place a
transmission is booked, even the initiator's, which `simulate_flood` starts
as a backoff that expires at 0.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .core import DEFAULT_CONSTANTS, NodeId, ProtocolConstants
from .radio import Topology

# node states
IDLE = 0
BACKOFF = 1
DEFER = 2
SENT = 3
SOURCE_WAIT = 4

# event kinds
DELIVER = 0  # an external preamble ends at the node
TX_END = 1  # the node's relay ends at each of its neighbors
RESUME = 2  # the channel a deferring node waited on is clear
EXPIRY = 3  # the node's backoff runs out


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
    """Event queue for one flood; scenario code injects external receptions.

    Raises KeyError for a source that is no node of the topology.
    """

    def __init__(
        self,
        topology: Topology,
        c: ProtocolConstants = DEFAULT_CONSTANTS,
        source: Optional[NodeId] = None,
        seed: int = 0,
        collisions: bool = False,
    ):
        if c.w_br < 0:  # no backoff to draw
            raise ValueError(f"w_br must be >= 0, got {c.w_br}")
        view = topology.view
        source_slot = view.slot_of.get(source, -1)
        if source is not None and source_slot < 0:
            raise KeyError(f"source {source} not in topology")
        self.topology = topology
        self.c = c
        self.source = source
        self.rng = random.Random(seed)
        self.view = view
        self._source_slot = source_slot
        n = len(view.ids)
        self.state = [IDLE] * n
        self.busy_until = [0] * n
        self.expiry = [0] * n
        self.token = [0] * n
        # (start, end) of every transmission each slot hears, in send order;
        # recorded only for the collision check
        self.heard = [[] for _ in range(n)] if collisions else None
        self.report = FloodReport(initiator=-1, source=source)
        # (time, push order, kind, slot, token) entries
        self._queue: List[Tuple[int, int, int, int, int]] = []
        self._pushes = 0
        self.now = 0

    def _slot(self, node: NodeId) -> int:
        try:
            return self.view.slot_of[node]
        except KeyError:
            raise KeyError(f"node {node} not in topology") from None

    def _relay_at(self, node: NodeId, t: int) -> None:
        """Put `node` in a backoff that expires at `t`, when its relay is booked."""
        slot = self._slot(node)
        self.state[slot] = BACKOFF
        self.expiry[slot] = t
        self.token[slot] = k = self.token[slot] + 1
        self._pushes = n = self._pushes + 1
        heapq.heappush(self._queue, (t, n, EXPIRY, slot, k))

    def inject_reception(self, node: NodeId, rx_complete_us: int) -> None:
        """External preamble (e.g. from the mobile sink) finishing at a node.

        Raises KeyError for a node that is not in the topology.
        """
        slot = self._slot(node)
        self._pushes = n = self._pushes + 1
        heapq.heappush(self._queue, (rx_complete_us, n, DELIVER, slot, 0))

    def run_until(self, t_limit: float) -> None:
        """Process every pending event at or before `t_limit`, in the order
        the module docstring states."""
        queue = self._queue
        if not queue or queue[0][0] > t_limit:
            return
        pop, push, n = heapq.heappop, heapq.heappush, self._pushes
        state, busy_until, expiry, token = self.state, self.busy_until, self.expiry, self.token
        ids, adjacency, heard = self.view.ids, self.view.adjacency, self.heard
        report = self.report
        first_rx, reached = report.first_rx_us, report.reached
        tx_start, tx_end, transmissions = report.tx_start_us, report.tx_end_us, report.transmissions
        c, source = self.c, self._source_slot
        d_brp, d_rxtx, b_src = c.d_brp, c.d_rxtx, c.b_src
        # a backoff is uniform in [0, w_br]: randrange(window)'s own rejection
        # draw, and the same stream
        getrandbits, window = self.rng.getrandbits, c.w_br + 1
        bits = window.bit_length()
        while queue and queue[0][0] <= t_limit:
            t, _, kind, node, tok = pop(queue)
            if kind == EXPIRY:
                if state[node] != BACKOFF or tok != token[node]:
                    continue
                # book the relay; every neighbor hears it, and one still
                # backing off past the switch time defers its draw to its end
                end = t + d_brp
                state[node] = SENT
                nid = ids[node]
                tx_start[nid] = t
                tx_end[nid] = end
                transmissions.append((nid, t))
                committed = t + d_rxtx
                neighbors = adjacency[node]
                if heard:
                    span = (t, end)
                    for v in neighbors:
                        heard[v].append(span)
                for v in neighbors:
                    if busy_until[v] < end:
                        busy_until[v] = end
                    if state[v] == BACKOFF and expiry[v] >= committed:
                        state[v] = DEFER
                        token[v] = k = token[v] + 1
                        n += 1
                        push(queue, (end, n, RESUME, v, k))
                n += 1
                push(queue, (end, n, TX_END, node, 0))
                continue
            if kind == RESUME and (state[node] != DEFER or tok != token[node]):
                continue
            for v in adjacency[node] if kind == TX_END else (node,):
                if kind != RESUME:
                    # a delivery reaches its node, a relay's end the
                    # neighbors; only an idle node takes it in, and with
                    # collisions only when no second transmission it hears
                    # overlaps the relay
                    if state[v] != IDLE:
                        continue
                    if heard and kind == TX_END:
                        start, overlapping = t - d_brp, 0
                        for s, e in heard[v]:
                            if s < t and e > start:
                                overlapping += 1
                        if overlapping > 1:
                            continue
                    nid = ids[v]
                    first_rx[nid] = t
                    reached.add(nid)
                    if v == source:
                        state[v] = SOURCE_WAIT
                        report.source_wait_expiry_us = t + b_src
                        continue
                # start a backoff, or defer its draw while a neighbor is on the air
                if busy_until[v] > t:
                    state[v] = DEFER
                    n += 1
                    push(queue, (busy_until[v], n, RESUME, v, token[v]))
                else:
                    state[v] = BACKOFF
                    r = getrandbits(bits)
                    while r >= window:
                        r = getrandbits(bits)
                    expiry[v] = e = t + r
                    token[v] = k = token[v] + 1
                    n += 1
                    push(queue, (e, n, EXPIRY, v, k))
        self._pushes = n
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
    engine = FloodEngine(topology, c, source=source, seed=seed, collisions=collisions)
    engine.report.initiator = initiator
    engine.report.reached.add(initiator)
    engine._relay_at(initiator, 0)
    return engine.run()

