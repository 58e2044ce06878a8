"""Topology construction, the measured power tables, and the radio-state
spans and timeline view that per-node timelines are made of.

Connectivity is a plain unit disk graph: two nodes are neighbors iff their
Euclidean distance is at most the communication range (equality counts, so a
grid with spacing equal to the range stays connected).  A topology indexes
its nodes once, on first use, as its `view`: the flood's slots and the
sink's flight both read it, and it lives exactly as long as the topology.
Power draws are measured hardware values, keyed by transmission power
setting.  A `Timeline` keeps each node's microseconds per state and builds
the per-node spans only when asked (:mod:`sinksim.timelines` assembles it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

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

    @cached_property
    def view(self) -> "TopologyView":
        """The nodes indexed once, on first use, and kept on this object.

        It is not a field, so `==`, `repr` and the fields stay as they were.
        It is valid only while `positions` and `adjacency` are not mutated.
        The random-graph sweep's set-up keeps its own x-sort of each of its
        topologies: it needs no slot adjacency, and it builds 50 topologies
        per point, a set-up the benchmark times.
        """
        return _build_view(self)


class TopologyView(NamedTuple):
    """A topology's nodes numbered by slot (slot i is the i-th id ascending),
    its bounding box, and its nodes sorted by x."""

    ids: List[NodeId]  # the id in each slot
    slot_of: Dict[NodeId, int]  # the slot of each id
    adjacency: List[Tuple[int, ...]]  # each slot's neighbors, in the topology's order
    bbox: Optional[Tuple[float, float, float, float]]  # (x0, y0, x1, y1); None when empty
    xs: List[float]  # the xs of `nodes`
    nodes: List[Tuple[NodeId, Position]]  # (id, position) sorted by x, a NaN x left out


def _build_view(topology: Topology) -> TopologyView:
    positions = topology.positions
    ids = sorted(positions)
    slot_of = {nid: slot for slot, nid in enumerate(ids)}
    adjacency = [tuple([slot_of[v] for v in topology.adjacency[nid]]) for nid in ids]
    xs = [p[0] for p in positions.values()]
    ys = [p[1] for p in positions.values()]
    bbox = (min(xs), min(ys), max(xs), max(ys)) if xs else None
    # A NaN x fails every pair test and would break the sort order, so such a
    # node is left out, as `build_udg` leaves it out of its sweep.
    nodes = [(nid, p) for nid, p in positions.items() if not math.isnan(p[0])]
    nodes.sort(key=lambda item: item[1][0])
    return TopologyView(ids, slot_of, adjacency, bbox, [x for _, (x, _) in nodes], nodes)


def build_udg(positions: Mapping[NodeId, Position], range_m: float) -> Topology:
    """Unit-disk topology over the given node positions.

    Sweeps the nodes in (x, id) order and stops pairing a node once the
    squared x gap alone exceeds the squared range, so only pairs within one
    range in x are tested.  The squared gap never shrinks along the sweep and
    adding the y term never lowers it, so every pruned pair is one the full
    test rejects; a pair at exactly the range still counts as connected.

    Raises ValueError for a range that is negative or whose square is not
    finite.
    """
    if not (0.0 <= range_m and range_m * range_m < math.inf):
        raise ValueError(f"range must be finite and >= 0 with a finite square, got {range_m!r}")
    pos = {nid: (float(p[0]), float(p[1])) for nid, p in positions.items()}

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

    Raises ValueError, naming the file and line, for a row of fewer fields,
    an id that is no integer, lies outside 0..MAX_NODE_ID or repeats an
    earlier row's (a DuplicateId), and a coordinate that is no finite number
    or exceeds 1e150 in magnitude.
    """
    positions: Dict[NodeId, Position] = {}
    first_line: Dict[NodeId, int] = {}  # the line each id was read on
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if parts[0].lower() in ("id", "node"):
                continue
            where = f"{path} line {lineno}"
            if len(parts) < 3:
                raise ValueError(f"{where}: need id,x,y, got {line!r}")
            try:
                nid = int(parts[0])
            except ValueError:
                raise ValueError(f"{where}: node id {parts[0]!r} is not an integer") from None
            if not 0 <= nid <= MAX_NODE_ID:
                raise ValueError(f"{where}: node id {nid} does not fit one byte")
            if nid in first_line:
                raise DuplicateId(f"{where}: node id {nid} appears twice, first on line {first_line[nid]}")
            try:
                x, y = float(parts[1]), float(parts[2])
            except ValueError:
                x = y = math.nan
            # a NaN or infinite coordinate would leave the node connected to nothing
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{where}: x and y must be finite numbers, got {parts[1]!r}, {parts[2]!r}")
            # any gap between coordinates within 1e150 squares to a finite float
            if max(abs(x), abs(y)) > 1e150:
                raise ValueError(f"{where}: x and y must be at most 1e150 in magnitude, got {parts[1]!r}, {parts[2]!r}")
            first_line[nid] = lineno
            positions[nid] = (x, y)
    return build_udg(positions, range_m)


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


@dataclass(frozen=True, eq=False)
class Timeline:
    """Read-only view of assembled radio timelines, kept as per-state totals.

    `totals` holds each node's microseconds per state, read-only: nodes
    with the same totals may share one mapping.  `clipped_us` holds the
    active microseconds cut from a node where its spans overlapped (nodes
    without any are left out).  `spans()` builds each node's spans, filled
    and in time order, and `len()` is the number of spans it builds.
    """

    totals: Dict[NodeId, Dict[str, int]]
    clipped_us: Dict[NodeId, int]
    spans: Callable[[], Dict[NodeId, List[Span]]] = field(repr=False)

    def __len__(self) -> int:
        return sum(map(len, self.spans().values()))


@dataclass(frozen=True)
class RadioPowerTable:
    """Per-state power draw in milliwatts for one transmission power setting."""

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
    0: RadioPowerTable(sleep=8.018, poll=8.629, listen=65.833, tx=66.156, rx=70.686),
    -25: RadioPowerTable(sleep=2.735, poll=3.300, listen=61.030, tx=32.807, rx=65.444),
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
