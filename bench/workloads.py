"""The three benchmark workloads, their inputs and their output checks.

A workload is a fixed list of operations derived from the seed alone; an
operation is one public sinksim call (a sweep point) or one collection
rotation.  A run repeats the whole list, so every run measures the same mix
of operations and every repeat must reproduce the first one's outputs.

* ``rg-sweep``: ``scenario.random_graph_point`` at degrees 4, 7, 10 x speeds
  0, 10, 25, 50.  The seed depends on the degree only, as in acceptance
  criterion 8, so the four speeds of a degree run on paired replications.
  Every replication does set-up work (50 UDG builds per point, sink placement,
  the component BFS, virtual coordinates) that weighs about as much as the
  routing walk.
* ``grid-sweep``: ``scenario.grid_point`` on the 5x5 grid, edge and diagonal
  crossings x speeds 1, 2, 4, 8, virtual coordinates, seeded per (mobility,
  speed) as in criterion 10.  Most of the time is the routing walk on one
  fixed topology; there is no topology build, BFS or pairing.
* ``rotations``: ``scenario.run_scenario`` for every query node of a 12x12
  grid, once with a loss-free flood and once with flood collisions, each
  followed by ``energy.integrate_timeline`` and ``scenario.timeline_coverage``.
  The time goes to the flood, six-phase timeline assembly and energy.

Modules are looked up at call time (``scenario.run_scenario(...)``), so the
traced run can wrap the module attributes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from sinksim import energy, scenario
from sinksim.radio import grid_topology, power_table

RG_DEGREES = (4, 7, 10)
RG_SPEEDS = (0, 10, 25, 50)
RG_RUNS = 200

GRID_MOBILITIES = ("edge", "diagonal")
GRID_SPEEDS = (1, 2, 4, 8)
GRID_RUNS = 1000

ROT_SIDE = 12
ROT_SPACING_M = 25.0
ROT_TX_POWER_DBM = 0

# run_scenario raises ConfigError with this message when a lossy flood does
# not reach the queried node; the benchmark reports it as an expected failure.
FLOOD_MISS = "flood never reached the queried node"


def base_seed(seed: int) -> int:
    """Seed 0 gives the seeds of the acceptance criteria minus their offsets."""
    return seed * 1_000_000


@dataclass
class Op:
    """One timed operation: `call` runs the public API, `check` inspects it."""

    label: str
    reps: int
    call: Callable[[], object]
    check: Callable[[object], "Outcome"]


@dataclass
class Outcome:
    stats: Counter = field(default_factory=Counter)
    problems: List[str] = field(default_factory=list)  # broken model invariants
    expected: List[str] = field(default_factory=list)  # outcomes the model produces by design
    record: str = ""  # canonical text of the simulated outputs, for the digest


def _whole(name: str, value: float, problems: List[str]) -> int:
    if not math.isfinite(value) or abs(value - round(value)) > 1e-6:
        problems.append(f"sweep: {name} total {value!r} is not a whole number")
        return 0
    return int(round(value))


def check_sweep(p, mobility: str, speed: float, degree, runs: int, round_limit: int) -> Outcome:
    """Range checks on one SweepPoint, and the totals behind its means."""
    out = Outcome()
    if (p.mobility, p.speed, p.degree, p.runs) != (mobility, speed, degree, runs):
        out.problems.append("sweep: point does not echo its inputs")
    if not 0.0 <= p.miss_ratio <= 1.0:
        out.problems.append("sweep: miss ratio outside [0, 1]")
    if not 0.0 <= p.mean_restarts <= round_limit or not p.restarts_ci95 >= 0.0:
        out.problems.append("sweep: restarts outside [0, round limit]")
    misses = _whole("miss", p.miss_ratio * runs, out.problems)
    restarts = _whole("restart", p.mean_restarts * runs, out.problems)
    delivered = runs - misses
    if delivered:
        if not 0.0 <= p.mean_hops <= round_limit or not p.hops_ci95 >= 0.0:
            out.problems.append("sweep: hops outside [0, round limit]")
        hops = _whole("hop", p.mean_hops * delivered, out.problems)
    else:
        hops = 0
        if not math.isnan(p.mean_hops):
            out.problems.append("sweep: hop mean without a delivered replication")
    if speed == 0 and restarts:
        out.problems.append("sweep: restart against a static sink")
    out.stats.update(hops=hops, restarts=restarts, misses=misses, delivered=delivered)
    out.record = repr(
        (p.mobility, p.speed, p.degree, p.runs, p.mean_restarts, p.restarts_ci95,
         p.mean_hops, p.hops_ci95, p.miss_ratio)
    )
    return out


def check_rotation(result, topo) -> Outcome:
    """Output checks on one rotation: (report, energy per node, coverage).

    Model invariants: every node's timeline covers exactly the horizon, every
    node spends energy, phases 1 < 2 < 3 and 2 < 4 < 5 < 6 hold, and a
    delivered route means phases 4-6 exist.  Phase 3 is stamped at the end of
    the whole network's flood, which the model lets overlap the routing of the
    answer, so "phase 3 before phase 4" is reported as an expected failure.
    """
    report, energy_mj, coverage = result
    out = Outcome()
    nodes = set(topo.positions) | {scenario.MS_ID, scenario.BS_ID}
    if set(coverage) != nodes or any(v != report.horizon_us for v in coverage.values()):
        out.problems.append("rotation: timeline coverage differs from the horizon")
    if set(energy_mj) != nodes or not all(e > 0.0 for e in energy_mj.values()):
        out.problems.append("rotation: a node spends no energy")
    phases = report.phase_times_us
    delivered = report.route is not None and report.route.delivered
    expected = {1, 2, 3, 4, 5, 6} if delivered else {1, 2, 3}
    if set(phases) != expected or delivered == report.miss:
        out.problems.append("rotation: phases do not match the route outcome")
    else:
        chains = [(1, 2, 3)] + ([(2, 4, 5, 6)] if delivered else [])
        for chain in chains:
            if any(phases[a] >= phases[b] for a, b in zip(chain, chain[1:])):
                out.problems.append("rotation: phase times do not increase")
                break
        if delivered and phases[3] >= phases[4]:
            out.expected.append("phase 3 (flood end) is not before phase 4 (answer delivered)")
    route = report.route
    out.stats.update(
        hops=route.hops,
        rounds=route.rounds,
        restarts=route.restarts,
        misses=int(report.miss),
        delivered=int(delivered),
        segments=len(report.timeline),
        flood_tx=len(report.flood.transmissions),
        flood_reached=len(report.flood.reached),
        flood_nodes=len(topo),
    )
    out.record = repr(
        (report.query_node, report.config_seed, sorted(phases.items()), route.hops,
         route.restarts, report.miss, report.horizon_us, len(report.timeline),
         len(report.flood.transmissions), sorted(energy_mj.items()))
    )
    return out


class RgSweep:
    name = "rg-sweep"

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self) -> List[Op]:
        base = base_seed(self.seed)
        ops = []
        for degree in RG_DEGREES:
            limit = scenario.nodes_for_degree(degree)
            for speed in RG_SPEEDS:
                s = base + degree  # degree only: speeds run on paired replications

                def call(degree=degree, speed=speed, s=s):
                    return scenario.random_graph_point(degree, speed, RG_RUNS, s)

                def check(p, degree=degree, speed=speed, limit=limit):
                    return check_sweep(p, "bounce", speed, degree, RG_RUNS, limit)

                ops.append(Op(f"rg d={degree} v={speed}", RG_RUNS, call, check))
        return ops


class GridSweep:
    name = "grid-sweep"

    def __init__(self, seed: int):
        self.seed = seed
        self.round_limit = 4 * scenario.GRID_SIDE**2  # route()'s default limit

    def ops(self) -> List[Op]:
        base = base_seed(self.seed)
        ops = []
        for mobility in GRID_MOBILITIES:
            for speed in GRID_SPEEDS:
                s = base + speed * 10 + (mobility == "diagonal")

                def call(mobility=mobility, speed=speed, s=s):
                    return scenario.grid_point(mobility, speed, GRID_RUNS, s)

                def check(p, mobility=mobility, speed=speed):
                    return check_sweep(p, mobility, speed, None, GRID_RUNS, self.round_limit)

                ops.append(Op(f"grid {mobility} v={speed}", GRID_RUNS, call, check))
        return ops


class Rotations:
    name = "rotations"

    def __init__(self, seed: int):
        self.seed = seed
        self.topo = grid_topology(ROT_SIDE, ROT_SPACING_M)
        self.powers = power_table(ROT_TX_POWER_DBM)
        self.queries = sorted(self.topo.positions)

    def _rotate(self, cfg):
        report = scenario.run_scenario(cfg)
        energy_mj = energy.integrate_timeline(report.timeline, self.powers)
        coverage = scenario.timeline_coverage(report.timeline)
        return report, energy_mj, coverage

    def ops(self) -> List[Op]:
        base = base_seed(self.seed)
        ops = []
        # Both flood models run each query node on the same configuration seed.
        for j, query in enumerate(self.queries):
            for collisions in (False, True):
                cfg = scenario.ScenarioConfig(
                    topology=self.topo, query_node=query, seed=base + j, collisions=collisions
                )
                ops.append(
                    Op(
                        f"rotation q={query} collisions={int(collisions)}",
                        1,
                        lambda cfg=cfg: self._rotate(cfg),
                        lambda result: check_rotation(result, self.topo),
                    )
                )
        return ops


WORKLOADS = {w.name: w for w in (RgSweep, GridSweep, Rotations)}


def expected_failure(exc: BaseException) -> Optional[str]:
    """The failure message of an error the model documents as an outcome."""
    if isinstance(exc, scenario.ConfigError) and str(exc) == FLOOD_MISS:
        return f"ConfigError: {FLOOD_MISS}"
    return None
