"""Topology construction, the measured power tables, and the radio-state
spans and timeline view that per-node timelines are made of.

Connectivity is a plain unit disk graph: two nodes are neighbors iff their
Euclidean distance is at most the communication range (equality counts, so a
grid with spacing equal to the range stays connected).  Power draws are
measured hardware values, keyed by transmission power setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, Mapping, Tuple, Union

from .core import MAX_NODE_ID, NodeId, Position


class DuplicateId(ValueError):
    pass


class UnknownConfiguration(KeyError):
    """No measurement for this transmission power setting."""


@dataclass(frozen=True)
class Topology:
    positions: Dict[NodeId, Position]
    range_m: float
    adjacency: Dict[NodeId, Tuple[NodeId, ...]]

    def __len__(self) -> int:
        return len(self.positions)

    def in_range(self, node: NodeId, point: Position) -> bool:
        """True when `point` is within communication range of `node`."""
        x, y = self.positions[node]
        return (x - point[0]) ** 2 + (y - point[1]) ** 2 <= self.range_m**2


def build_udg(
    positions: Union[Mapping[NodeId, Position], Iterable[Tuple[NodeId, Position]]],
    range_m: float,
) -> Topology:
    """Unit-disk topology over the given node positions.

    Sweeps the nodes in (x, id) order and stops pairing a node once the
    squared x gap alone exceeds the squared range, so only pairs within one
    range in x are tested.  The squared gap never shrinks along the sweep and
    adding the y term never lowers it, so every pruned pair is one the full
    test rejects; a pair at exactly the range still counts as connected.

    Raises DuplicateId when the same node id appears twice, and ValueError
    for a range that is negative or not finite.
    """
    if not 0.0 <= range_m < math.inf:
        raise ValueError(f"range must be finite and >= 0, got {range_m!r}")
    if isinstance(positions, Mapping):
        items = list(positions.items())
    else:
        items = list(positions)
    pos: Dict[NodeId, Position] = {}
    for nid, p in items:
        if nid in pos:
            raise DuplicateId(f"node id {nid} appears twice")
        pos[nid] = (float(p[0]), float(p[1]))

    r2 = float(range_m) ** 2
    # A NaN x fails every pair test and would break the sort order: leave it out.
    swept = sorted((x, nid, y) for nid, (x, y) in pos.items() if not math.isnan(x))
    nbrs: Dict[NodeId, list] = {nid: [] for nid in sorted(pos)}
    for i, (ax, a, ay) in enumerate(swept):
        near = nbrs[a]
        for j in range(i + 1, len(swept)):
            bx, b, by = swept[j]
            dx2 = (ax - bx) ** 2
            if dx2 > r2:
                break
            if dx2 + (ay - by) ** 2 <= r2:
                near.append(b)
                nbrs[b].append(a)
    adjacency = {nid: tuple(sorted(ns)) for nid, ns in nbrs.items()}
    return Topology(pos, float(range_m), adjacency)


def grid_topology(side: int, spacing: float, range_m: float = None) -> Topology:
    """Regular side x side grid, row-major ids, range defaulting to the spacing."""
    if range_m is None:
        range_m = spacing
    positions = {
        j * side + i: (i * spacing, j * spacing) for j in range(side) for i in range(side)
    }
    return build_udg(positions, range_m)


def load_topology_csv(path: str, range_m: float) -> Topology:
    """Read `id,x,y` rows (header optional) and build the unit disk graph.

    Raises ValueError, naming the file and line, for a row of fewer fields
    and for an id outside 0..MAX_NODE_ID.
    """
    items = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if parts[0].lower() in ("id", "node"):
                continue
            if len(parts) < 3:
                raise ValueError(f"{path} line {lineno}: need id,x,y, got {line!r}")
            nid = int(parts[0])
            if not 0 <= nid <= MAX_NODE_ID:
                raise ValueError(f"{path} line {lineno}: node id {nid} does not fit one byte")
            items.append((nid, (float(parts[1]), float(parts[2]))))
    return build_udg(items, range_m)


def to_dot(adjacency: Mapping[NodeId, Iterable[NodeId]], name: str = "topology") -> str:
    """Graphviz DOT text with one undirected edge per neighbor pair."""
    lines = [f"graph {name} {{"]
    for nid in sorted(adjacency):
        lines.append(f"  {nid};")
    seen = set()
    for a in sorted(adjacency):
        for b in sorted(adjacency[a]):
            if (min(a, b), max(a, b)) not in seen:
                seen.add((min(a, b), max(a, b)))
                lines.append(f"  {min(a, b)} -- {max(a, b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


RADIO_STATES = ("sleep", "poll", "listen", "tx", "rx")

# One stretch of one node's radio timeline: (start_us, end_us, state).
# Timelines are assembled and handed around as per-node lists of spans.
Span = Tuple[int, int, str]


def state_totals(spans: Iterable[Span]) -> Dict[str, int]:
    """Microseconds per state, each state keyed in order of first appearance."""
    totals: Dict[str, int] = {}
    for s, e, state in spans:
        totals[state] = totals.get(state, 0) + (e - s)
    return totals


@dataclass(frozen=True)
class Segment:
    """One stretch of a node's radio timeline, as iterating a `Timeline`
    yields it: `state` over [start_us, end_us)."""

    node: NodeId
    state: str
    start_us: int
    end_us: int


@dataclass(frozen=True, eq=False)
class Timeline:
    """Read-only view of assembled radio timelines, kept as per-state totals.

    `totals` holds each node's microseconds per state and `clipped_us` the
    active microseconds cut from a node where its spans overlapped (nodes
    without any are left out).  `len()` is the number of segments, counted
    during assembly; iterating calls `build` for the segments themselves.
    """

    totals: Dict[NodeId, Dict[str, int]]
    clipped_us: Dict[NodeId, int]
    length: int
    build: Callable[[], Iterable[Segment]] = field(repr=False)

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.build())


@dataclass(frozen=True)
class RadioPowerTable:
    """Per-state power draw in milliwatts for one transmission power setting."""

    tx_power_dbm: int
    sleep: float
    poll: float
    listen: float
    tx: float
    rx: float

    def power_mw(self, state: str) -> float:
        if state not in RADIO_STATES:
            raise KeyError(f"unknown radio state {state!r}")
        return getattr(self, state)


POWER_TABLES: Dict[int, RadioPowerTable] = {
    0: RadioPowerTable(0, sleep=8.018, poll=8.629, listen=65.833, tx=66.156, rx=70.686),
    -25: RadioPowerTable(-25, sleep=2.735, poll=3.300, listen=61.030, tx=32.807, rx=65.444),
}

# Measured cost of sending one full preamble (mJ).  The per-state table does
# not include the micro-frame train pattern, so this is an input constant.
E_PREAMB_MJ: Dict[int, float] = {0: 1.243, -25: 0.467}


def power_table(tx_power_dbm: int) -> RadioPowerTable:
    try:
        return POWER_TABLES[tx_power_dbm]
    except KeyError:
        raise UnknownConfiguration(f"no power table for {tx_power_dbm} dBm") from None


def euclid(a: Position, b: Position) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])
