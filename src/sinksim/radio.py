"""Topology construction and the measured radio tables.

Connectivity is a plain unit disk graph: two nodes are neighbors iff their
Euclidean distance is at most the communication range (equality counts, so a
grid with spacing equal to the range stays connected).  Power draws and
ranges are measured hardware values, keyed by transmission power setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple, Union

from .core import NodeId, Position


class DuplicateId(ValueError):
    pass


class UnknownConfiguration(KeyError):
    """No measurement for this (tx power, antenna height) pair."""


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

    Raises DuplicateId when the same node id appears twice.
    """
    if isinstance(positions, Mapping):
        items = list(positions.items())
    else:
        items = list(positions)
    pos: Dict[NodeId, Position] = {}
    for nid, p in items:
        if nid in pos:
            raise DuplicateId(f"node id {nid} appears twice")
        pos[nid] = (float(p[0]), float(p[1]))

    ids = sorted(pos)
    r2 = float(range_m) ** 2
    nbrs: Dict[NodeId, list] = {nid: [] for nid in ids}
    for i, a in enumerate(ids):
        ax, ay = pos[a]
        for b in ids[i + 1 :]:
            bx, by = pos[b]
            if (ax - bx) ** 2 + (ay - by) ** 2 <= r2:
                nbrs[a].append(b)
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


def average_degree(topology: Topology) -> float:
    if not topology.positions:
        return 0.0
    return sum(len(v) for v in topology.adjacency.values()) / len(topology.positions)


def load_topology_csv(path: str, range_m: float) -> Topology:
    """Read `id,x,y` rows (header optional) and build the unit disk graph."""
    items = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if parts[0].lower() in ("id", "node"):
                continue
            items.append((int(parts[0]), (float(parts[1]), float(parts[2]))))
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


# Measured communication range by (tx power dBm, antenna height m).
RANGE_TABLE_M: Dict[Tuple[int, int], float] = {
    (0, 1): 100.0,
    (-25, 1): 25.0,
    (-25, 0): 5.0,
}


def range_for(tx_power_dbm: int, height_m: int) -> float:
    try:
        return RANGE_TABLE_M[(tx_power_dbm, height_m)]
    except KeyError:
        raise UnknownConfiguration(
            f"no range measurement for {tx_power_dbm} dBm at {height_m} m"
        ) from None


RADIO_STATES = ("sleep", "poll", "listen", "tx", "rx")


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


def state_power(state: str, tx_power_dbm: int) -> float:
    """Milliwatt draw of one radio state at the given transmission power."""
    return power_table(tx_power_dbm).power_mw(state)


def euclid(a: Position, b: Position) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])
