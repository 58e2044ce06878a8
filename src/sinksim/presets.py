"""The routing sweeps' presets: field and grid sizes, the node count of a
target degree and the record of one sweep point, with the graph helpers
that the sweeps and `demo` share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core import NodeId
from .routing import RouteResult
from .stats import mean_ci


@dataclass
class SweepPoint:
    """Aggregated replications of one (mobility, speed, degree) setting."""

    mobility: str
    speed: float
    degree: Optional[float]
    runs: int
    mean_restarts: float
    restarts_ci95: float
    mean_hops: float
    hops_ci95: float
    miss_ratio: float


# One replication's outcome: (restarts, hops, or None when not delivered).
_Outcome = Tuple[int, Optional[int]]


def _outcome(res: RouteResult) -> _Outcome:
    return res.restarts, res.hops if res.delivered else None


def _sweep_point(
    mobility: str, speed: float, degree: Optional[float], outcomes: List[_Outcome]
) -> SweepPoint:
    restarts: List[float] = [r for r, _ in outcomes]
    hops: List[float] = [h for _, h in outcomes if h is not None]
    runs = len(outcomes)
    rm, rci = mean_ci(restarts)
    hm, hci = mean_ci(hops)
    return SweepPoint(mobility, speed, degree, runs, rm, rci, hm, hci, (runs - len(hops)) / runs)


RANDOM_FIELD_M = 1000.0
RANDOM_RANGE_M = 200.0
RANDOM_TOPOLOGIES = 50  # a random-graph point's replications cycle over these
GRID_SIDE = 5
GRID_SPACING_M = 25.0
GRID_FIELD_M = GRID_SPACING_M * (GRID_SIDE - 1)
GRID_SINK_VCOORD = (GRID_FIELD_M / 2, GRID_FIELD_M / 2)
GRID_BOUNDS = ((0, GRID_FIELD_M), (0, GRID_FIELD_M))  # virtual coordinates start inside the field
GRID_CROSSING_SPEED = 4.0  # field units per round, hop-count reference setting


# The most nodes a random-graph topology may have.  A set-up holds up to 50
# topologies at once, and their adjacency grows with the square of the node
# count.  Every process that walks a slice of a point draws the set-up into
# its own memo: at 1,000 nodes (mean degree 125 on the default field) a
# 50-run point on 2 workers took 2.5 s on a 2-core host, and each of the two
# processes peaked at 71-74 MB.  One process at 2,000 nodes took 18 s and
# 216 MB.  The paper's degrees 4-10 need 33-81 nodes.  Ids above 255 do not
# fit the one byte a DATA payload gives an id, which the six-phase run
# rejects; the abstract sweeps put no id into a frame, so they may exceed
# 256 nodes.
MAX_NODES = 1_000


def nodes_for_degree(degree: float) -> int:
    """Node count giving the target mean neighbor count on the random-graph field.

    Raises ValueError unless the degree is finite and > 0 and the count, before
    rounding, is at most MAX_NODES.
    """
    if not 0 < degree < math.inf:
        raise ValueError(f"degree must be finite and > 0, got {degree!r}")
    field, range_m = RANDOM_FIELD_M, RANDOM_RANGE_M
    count = 1 + degree * field * field / (math.pi * range_m * range_m)
    if not count <= MAX_NODES:
        raise ValueError(f"degree {degree!r} needs {count:.4g} nodes, more than {MAX_NODES}")
    return max(2, round(count))


def _component_labels(adjacency: Dict[NodeId, Tuple[NodeId, ...]]) -> List[int]:
    """Connected-component label of each node 0..n-1: the smallest id in it."""
    label = [-1] * len(adjacency)
    for root in range(len(adjacency)):
        if label[root] < 0:
            label[root] = root
            stack = [root]
            while stack:
                for v in adjacency[stack.pop()]:
                    if label[v] < 0:
                        label[v] = root
                        stack.append(v)
    return label


def discovered_graph(
    answers: Iterable[Tuple[NodeId, Sequence[NodeId]]]
) -> Dict[NodeId, Tuple[NodeId, ...]]:
    """Union of (queried node -> neighbor) edges across successful rotations,
    each given as its queried node and the neighbor list it answered."""
    edges: Dict[NodeId, set] = {}
    for query, neighbors in answers:
        edges.setdefault(query, set())
        for nbr in neighbors:
            edges.setdefault(nbr, set())
            edges[query].add(nbr)
            edges[nbr].add(query)
    return {nid: tuple(sorted(nbrs)) for nid, nbrs in sorted(edges.items())}

