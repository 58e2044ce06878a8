import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinksim.frames import MAX_ADDRESS_COUNT
from sinksim.radio import build_udg, grid_topology
from sinksim.routing import (
    Action,
    HeaderOverflow,
    RouteHeader,
    RouteResult,
    Tour,
    init_virtual_coords,
    next_hop_3rule,
    route,
)
from sinksim.tracks import BounceTrack, LineTrack, StaticSink


def connected_component(topology, start_nodes):
    seen = set(start_nodes)
    queue = deque(start_nodes)
    while queue:
        u = queue.popleft()
        for v in topology.adjacency[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def reference_dfs_walk(topology, coords, source, dest_coord, sink_pos):
    """Centralized depth-first walk with the same greedy order and the same
    deliver-on-adjacency rule; returns (walk, delivered)."""

    def key(nid):
        dx = coords[nid][0] - dest_coord[0]
        dy = coords[nid][1] - dest_coord[1]
        return (dx * dx + dy * dy, nid)

    visited = set()
    walk = [source]
    stack = [source]
    while stack:
        u = stack[-1]
        if topology.in_range(u, sink_pos):
            return walk, True
        visited.add(u)
        candidates = [v for v in topology.adjacency[u] if v not in visited]
        if candidates:
            nxt = min(candidates, key=key)
            stack.append(nxt)
            walk.append(nxt)
        else:
            stack.pop()
            if stack:
                walk.append(stack[-1])
    return walk, False


def random_connected_instance(rnd, n_nodes, field=1000.0, range_m=200.0):
    """Random topology plus a static sink whose component contains the source."""
    while True:
        positions = {i: (rnd.uniform(0, field), rnd.uniform(0, field)) for i in range(n_nodes)}
        topo = build_udg(positions, range_m)
        sink_pos = (rnd.uniform(0, field), rnd.uniform(0, field))
        adjacent = [nid for nid in positions if topo.in_range(nid, sink_pos)]
        if not adjacent:
            continue
        component = sorted(connected_component(topo, adjacent))
        source = rnd.choice(component)
        return topo, sink_pos, source


# ---------------------------------------------------------------------------
# virtual coordinates
# ---------------------------------------------------------------------------


def test_virtual_coords_deterministic_and_bounded():
    topo = grid_topology(4, 10.0)
    bounds = ((2.0, 9.0), (-3.0, 4.0))
    a = init_virtual_coords(topo, 99, bounds)
    b = init_virtual_coords(topo, 99, bounds)
    assert a == b
    assert init_virtual_coords(topo, 100, bounds) != a
    for x, y in a.values():
        assert 2.0 <= x <= 9.0
        assert -3.0 <= y <= 4.0


def reference_virtual_coords(topology, seed, bounds):
    """The draw loop init_virtual_coords was first written as: ids ascending,
    two draws per node, x before y."""
    draw = random.Random(seed).random
    (x0, x1), (y0, y1) = bounds
    wx, wy = x1 - x0, y1 - y0
    coords = {}
    for nid in sorted(topology.positions):
        coords[nid] = (x0 + wx * draw(), y0 + wy * draw())
    return coords


BOUND = st.integers(-100, 100) | st.floats(-1e6, 1e6)


@given(
    ids=st.sets(st.integers(0, 10**6), min_size=1, max_size=30),
    seed=st.integers(0, 2**64),
    bounds=st.tuples(st.tuples(BOUND, BOUND), st.tuples(BOUND, BOUND)),
)
def test_virtual_coords_equal_the_reference_loop(ids, seed, bounds):
    # sparse ids, inserted in an order that is not ascending
    topo = build_udg({nid: (float(nid % 997), float(nid // 997)) for nid in sorted(ids, reverse=True)}, 1.0)
    coords = init_virtual_coords(topo, seed, bounds)
    reference = reference_virtual_coords(topo, seed, bounds)
    # bit for bit and in the same key order: a float's repr round-trips
    assert repr(list(coords.items())) == repr(list(reference.items()))


# ---------------------------------------------------------------------------
# next-hop decisions
# ---------------------------------------------------------------------------


def test_actions_compare_by_value_and_are_unhashable():
    assert Action("forward", 1) == Action("forward", 1)
    assert Action("forward", 1) != Action("backtrack", 1)
    assert Action("forward", 1) != Action("forward", 2)
    assert Action("deliver") == Action("deliver", None)
    assert Action("forward", 1) != ("forward", 1)  # not a tuple
    with pytest.raises(TypeError):
        hash(Action("forward", 1))


def test_deliver_when_source_adjacent():
    g = grid_topology(3, 25.0)
    res = route(g, g.positions, 0, StaticSink((10.0, 10.0)))
    assert res.delivered
    assert res.hops == 0
    assert res.path == [0]
    assert res.restarts == 0


def test_greedy_forward_on_a_chain():
    topo = build_udg({0: (0.0, 0.0), 1: (20.0, 0.0), 2: (40.0, 0.0)}, 25.0)
    res = route(topo, topo.positions, 0, StaticSink((60.0, 0.0)))
    assert res.delivered
    assert res.path == [0, 1, 2]
    assert res.hops == 2


def test_backtrack_targets_the_first_reacher():
    # star with a dead end: 0 - 1 (dead end), 0 - 2 - sink
    positions = {0: (0.0, 0.0), 1: (0.0, 20.0), 2: (20.0, 0.0)}
    topo = build_udg(positions, 25.0)
    coords = {0: (0.0, 0.0), 1: (100.0, 100.0), 2: (200.0, 200.0)}
    header = RouteHeader(traversed=[], dest_coord=(100.0, 110.0))
    action = next_hop_3rule(
        0, header, topo, coords, visited=set(header.traversed),
        sink_adjacent=False, sink_moved=False, source=0,
    )
    assert action == Action("forward", 1)
    header.traversed.append(0)
    action = next_hop_3rule(
        1, header, topo, coords, visited=set(header.traversed),
        sink_adjacent=False, sink_moved=False, source=0,
    )
    assert action == Action("backtrack", 0)


def test_exhausted_static_search_fails():
    topo = build_udg({0: (0.0, 0.0), 1: (20.0, 0.0)}, 25.0)
    res = route(topo, topo.positions, 0, StaticSink((500.0, 500.0)))
    assert not res.delivered
    assert res.outcome == "failed"


class _MovesOnceSink:
    """Steps once from its first position to its second, then stays."""

    def __init__(self, first, second):
        self.position = first
        self._second = second
        self.departed = False

    def step(self):
        self.position = self._second


def test_exhausted_search_waits_once_the_sink_has_moved():
    # The sink moves once, far out of reach: the walk restarts on that move,
    # exhausts the chain again against the new snapshot and then waits the
    # remaining rounds out instead of failing.
    topo = build_udg({0: (0.0, 0.0), 1: (20.0, 0.0)}, 25.0)
    sink = _MovesOnceSink((500.0, 500.0), (600.0, 600.0))
    res = route(topo, topo.positions, 0, sink, round_limit=10)
    assert res.outcome == "missed"
    assert res.rounds == 10
    assert res.restarts == 1
    assert res.path == [0, 1, 0, 1, 0]


def test_round_limit_counts_as_miss():
    g = grid_topology(5, 25.0)
    track = BounceTrack((500.0, 500.0), 5.0, 1000.0, seed=3)  # far away, roams
    res = route(g, g.positions, 0, track, round_limit=10)
    assert not res.delivered
    assert res.outcome == "missed"
    assert res.rounds == 10


def test_header_overflow_on_long_walks():
    positions = {i: (i * 20.0, 0.0) for i in range(140)}
    topo = build_udg(positions, 25.0)
    with pytest.raises(HeaderOverflow):
        route(topo, topo.positions, 0, StaticSink((139 * 20.0, 0.0)), round_limit=10_000)


def test_walk_matches_centralized_dfs():
    rnd = random.Random(31)
    for _ in range(60):
        topo, sink_pos, source = random_connected_instance(rnd, rnd.randrange(8, 30))
        coords = {nid: (rnd.uniform(0, 1000), rnd.uniform(0, 1000)) for nid in topo.positions}
        dest = (rnd.uniform(0, 1000), rnd.uniform(0, 1000))
        expected_walk, expected_delivered = reference_dfs_walk(
            topo, coords, source, dest, sink_pos
        )
        res = route(topo, coords, source, StaticSink(sink_pos), sink_coord=dest)
        assert res.delivered == expected_delivered
        if expected_delivered:
            assert res.path == expected_walk


def test_static_delivery_with_adversarial_coordinates():
    rnd = random.Random(77)
    for _ in range(80):
        topo, sink_pos, source = random_connected_instance(rnd, rnd.randrange(5, 35))
        coords = {nid: (rnd.uniform(0, 1000), rnd.uniform(0, 1000)) for nid in topo.positions}
        res = route(topo, coords, source, StaticSink(sink_pos))
        assert res.delivered
        assert res.restarts == 0
        assert res.hops <= 2 * len(topo)


def test_forward_ties_go_to_the_smallest_id():
    # The centre of a 3x3 grid: its neighbors 1, 3, 5 and 7 are equally far from it.
    g = grid_topology(3, 10.0)
    header = RouteHeader(traversed=[], dest_coord=g.positions[4])

    def decide(visited):
        return next_hop_3rule(
            4, header, g, g.positions,
            visited=visited, sink_adjacent=False, sink_moved=False, source=4,
        )

    assert decide(set()) == Action("forward", 1)
    assert decide({1}) == Action("forward", 3)
    assert decide({1, 3, 5}) == Action("forward", 7)


def test_forward_entries_unique_between_restarts():
    # drive the decision function manually and check the header discipline
    rnd = random.Random(13)
    for _ in range(40):
        topo, sink_pos, source = random_connected_instance(rnd, rnd.randrange(6, 25))
        coords = {nid: (rnd.uniform(0, 1000), rnd.uniform(0, 1000)) for nid in topo.positions}
        header = RouteHeader(traversed=[], dest_coord=(rnd.uniform(0, 1000), rnd.uniform(0, 1000)))
        current = source
        for _ in range(4 * len(topo)):
            action = next_hop_3rule(
                current,
                header,
                topo,
                coords,
                visited=set(header.traversed),
                sink_adjacent=topo.in_range(current, sink_pos),
                sink_moved=False,
                source=source,
            )
            if action.kind in ("deliver", "fail"):
                break
            assert action.kind in ("forward", "backtrack")
            if current not in header.traversed:
                header.traversed.append(current)
            assert len(set(header.traversed)) == len(header.traversed)
            current = action.target


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_delivery_on_random_instances(seed):
    rnd = random.Random(seed)
    topo, sink_pos, source = random_connected_instance(rnd, rnd.randrange(4, 25))
    coords = {nid: (rnd.uniform(0, 1000), rnd.uniform(0, 1000)) for nid in topo.positions}
    res = route(topo, coords, source, StaticSink(sink_pos))
    assert res.delivered


def test_route_result_path_consistency():
    g = grid_topology(5, 25.0)
    res = route(g, g.positions, 0, StaticSink((100.0, 100.0)))
    assert res.delivered
    assert res.hops == len(res.path) - 1
    for a, b in zip(res.path, res.path[1:]):
        assert b in g.adjacency[a]


def test_grid_far_corner_matches_dfs_oracle():
    # static sink hovering at the boundary, message from the far corner
    g = grid_topology(5, 25.0)
    sink_pos = (50.0, -10.0)
    rnd = random.Random(6)
    for _ in range(20):
        coords = {nid: (rnd.uniform(0, 100), rnd.uniform(0, 100)) for nid in g.positions}
        dest = (rnd.uniform(0, 100), rnd.uniform(0, 100))
        walk, delivered = reference_dfs_walk(g, coords, 24, dest, sink_pos)
        res = route(g, coords, 24, StaticSink(sink_pos), sink_coord=dest)
        assert delivered and res.delivered
        assert res.path == walk
        assert res.hops == len(walk) - 1


# ---------------------------------------------------------------------------
# the tour scan against the round-by-round walk
# ---------------------------------------------------------------------------


def reference_route(topology, coords, source, sink, *, sink_coord=None, round_limit=None, on_round=None):
    """The walk as it was before the tour: one `next_hop_3rule` decision per
    round, on a header the walk itself keeps."""
    limit = round_limit if round_limit is not None else 4 * len(topology)
    positions = topology.positions
    r2 = topology.range_m**2
    pos = sink.position
    header = RouteHeader(traversed=[], dest_coord=sink_coord or pos)
    traversed = header.traversed
    snapshot = pos
    ever_moved = False
    current = source
    path = [source]
    hops = 0
    restarts = 0
    rounds = 0
    traversed_set = set()

    while True:
        if getattr(sink, "departed", False):
            return RouteResult(False, hops, restarts, path, "missed", rounds)
        if rounds >= limit:
            return RouteResult(False, hops, restarts, path, "missed", rounds)
        pos = sink.position
        x, y = positions[current]
        adjacent = (x - pos[0]) ** 2 + (y - pos[1]) ** 2 <= r2
        action = next_hop_3rule(
            current,
            header,
            topology,
            coords,
            visited=traversed_set,
            sink_adjacent=adjacent,
            sink_moved=pos != snapshot,
            source=source,
        )
        if action.kind == "restart":
            restarts += 1
            traversed.clear()
            traversed_set.clear()
            header.dest_coord = sink_coord or pos
            snapshot = pos
            continue
        kind = action.kind
        if on_round is not None:
            on_round(current, action, header)
        if kind == "deliver":
            return RouteResult(True, hops, restarts, path, "delivered", rounds)
        if kind == "forward" or kind == "backtrack":
            if current not in traversed_set:
                if len(traversed) >= MAX_ADDRESS_COUNT:
                    raise HeaderOverflow(f"traversed list would exceed {MAX_ADDRESS_COUNT} ids")
                traversed.append(current)
                traversed_set.add(current)
            current = action.target
            path.append(current)
            hops += 1
        elif not ever_moved:
            return RouteResult(False, hops, restarts, path, "failed", rounds)
        sink.step()
        if not ever_moved and sink.position != pos:
            ever_moved = True
        rounds += 1


def _walked(walk, topology, coords, source, sink, **kwargs):
    """A walk's result fields, or "overflow", and every round it reported."""
    seen = []

    def record(node, action, header):
        seen.append((node, action.kind, action.target, header.dest_coord, list(header.traversed)))

    try:
        res = walk(topology, coords, source, sink, on_round=record, **kwargs)
        fields = (res.delivered, res.path, res.rounds, res.hops, res.restarts, res.outcome)
    except HeaderOverflow:
        fields = "overflow"
    return fields, seen


def _sinks(rnd, field):
    """One sink of each kind, started somewhere on a `field`-wide square."""
    start = (rnd.uniform(0, field), rnd.uniform(0, field))
    end = (rnd.uniform(0, field), rnd.uniform(0, field))
    speed = rnd.choice((0.0, 1.0, 5.0, 20.0, 80.0))
    seed = rnd.randrange(2**31)
    return {
        "bounce": lambda: BounceTrack(start, speed, field, seed=seed),
        "line": lambda: LineTrack(start, end, speed or 3.0),
        "static": lambda: StaticSink(start),
        "moves-once": lambda: _MovesOnceSink(start, end),
    }


def _instances():
    """Random UDGs of every density and the grid, with sources that include
    isolated nodes; each with virtual and physical coordinates."""
    rnd = random.Random(2024)
    for i in range(120):
        if i % 6 == 0:
            topo, field = grid_topology(5, 25.0), 100.0
        else:
            field = 300.0
            n = rnd.randrange(2, 45)
            positions = {nid: (rnd.uniform(0, field), rnd.uniform(0, field)) for nid in range(n)}
            topo = build_udg(positions, rnd.choice((40.0, 60.0, 90.0)))
        source = rnd.choice(sorted(topo.positions))
        limit = rnd.choice((None, None, 3, 25))
        vcoords = {nid: (rnd.uniform(0, field), rnd.uniform(0, field)) for nid in topo.positions}
        dest = (rnd.uniform(0, field), rnd.uniform(0, field))
        for kind, make_sink in _sinks(rnd, field).items():
            yield topo, vcoords, source, make_sink, {"sink_coord": dest, "round_limit": limit}
            yield topo, topo.positions, source, make_sink, {"round_limit": limit}


def test_the_tour_scan_equals_the_round_by_round_walk():
    outcomes = set()
    for topo, coords, source, make_sink, kwargs in _instances():
        expected = _walked(reference_route, topo, coords, source, make_sink(), **kwargs)
        assert _walked(route, topo, coords, source, make_sink(), **kwargs) == expected
        fields = expected[0]
        outcomes.add(fields if fields == "overflow" else fields[-1])
        if fields != "overflow" and fields[4]:
            outcomes.add("restarted")
        if not topo.adjacency[source]:
            outcomes.add("isolated source")
    assert outcomes == {"delivered", "missed", "failed", "restarted", "isolated source"}


def test_a_shared_tour_gives_every_sink_the_round_by_round_walk():
    # One tour per (topology, coordinates, source, destination), walked by
    # sinks of every speed in a random order; each grows it only as far as
    # it needs, and makes coordinates only then.
    rnd = random.Random(7)
    grew = 0
    for _ in range(40):
        n = rnd.randrange(10, 45)
        positions = {nid: (rnd.uniform(0, 300), rnd.uniform(0, 300)) for nid in range(n)}
        topo = build_udg(positions, 70.0)
        coords = {nid: (rnd.uniform(0, 300), rnd.uniform(0, 300)) for nid in range(n)}
        source, dest = rnd.randrange(n), (150.0, 150.0)
        tour = Tour([source])
        made = []

        def make_coords():
            made.append(1)
            return coords

        start = (rnd.uniform(0, 300), rnd.uniform(0, 300))
        speeds = [0.0, 2.0, 10.0, 40.0, 120.0]
        rnd.shuffle(speeds)
        for speed in speeds:
            seed = rnd.randrange(100)
            known = len(tour.entries), tour.complete
            calls = len(made)
            expected = _walked(
                reference_route, topo, coords, source,
                BounceTrack(start, speed, 300.0, seed=seed), sink_coord=dest, round_limit=n,
            )
            got = _walked(
                route, topo, make_coords, source,
                BounceTrack(start, speed, 300.0, seed=seed), sink_coord=dest, round_limit=n, tour=tour,
            )
            assert got == expected
            grown = (len(tour.entries), tour.complete) != known
            assert len(made) - calls == int(grown)
            grew += grown
    assert grew


def test_header_overflow_on_a_long_chain_matches_the_round_by_round_walk():
    positions = {i: (i * 20.0, 0.0) for i in range(130)}
    topo = build_udg(positions, 25.0)
    for sink in (lambda: StaticSink((129 * 20.0, 0.0)), lambda: BounceTrack((2500.0, 5.0), 3.0, 2600.0, seed=1)):
        for kwargs in ({}, {"sink_coord": (2600.0, 0.0)}):
            expected = _walked(reference_route, topo, topo.positions, 0, sink(), round_limit=10_000, **kwargs)
            assert expected[0] == "overflow"
            assert _walked(route, topo, topo.positions, 0, sink(), round_limit=10_000, **kwargs) == expected
    tour = Tour([0])
    with pytest.raises(HeaderOverflow):
        route(topo, topo.positions, 0, StaticSink((129 * 20.0, 0.0)), sink_coord=(2600.0, 0.0), tour=tour)
    assert tour.overflow == MAX_ADDRESS_COUNT and not tour.complete
    assert tour.entries == list(range(MAX_ADDRESS_COUNT + 2))
