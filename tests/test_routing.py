import random
from collections import deque
from itertools import chain, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinksim.frames import MAX_ADDRESS_COUNT, DataPayload, ListOverflow, encode_data_payload
from sinksim.radio import build_udg, grid_topology
from sinksim.routing import (
    HeaderOverflow,
    RouteResult,
    Tour,
    init_virtual_coords,
    next_hop_3rule,
    route,
)
from sinksim.tracks import bounce, line_crossing


def static(position):
    """A sink that stays at `position` and never departs."""
    return repeat((position, False))


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


def test_deliver_when_source_adjacent():
    g = grid_topology(3, 25.0)
    res = route(g, g.positions, 0, static((10.0, 10.0)))
    assert res.delivered
    assert res.hops == 0
    assert res.path == [0]
    assert res.restarts == 0


def test_greedy_forward_on_a_chain():
    topo = build_udg({0: (0.0, 0.0), 1: (20.0, 0.0), 2: (40.0, 0.0)}, 25.0)
    res = route(topo, topo.positions, 0, static((60.0, 0.0)))
    assert res.delivered
    assert res.path == [0, 1, 2]
    assert res.hops == 2


def test_backtrack_targets_the_first_reacher():
    # star with a dead end: 0 - 1 (dead end), 0 - 2 - sink
    positions = {0: (0.0, 0.0), 1: (0.0, 20.0), 2: (20.0, 0.0)}
    topo = build_udg(positions, 25.0)
    coords = {0: (0.0, 0.0), 1: (100.0, 100.0), 2: (200.0, 200.0)}
    dest, traversed = (100.0, 110.0), []

    def decide(current):
        return next_hop_3rule(current, dest, traversed, set(traversed), topo, coords)

    assert decide(0) == 1
    traversed.append(0)
    assert decide(1) == 0
    traversed.append(1)
    assert decide(0) == 2
    assert decide(2) == 0
    traversed.append(2)
    # back at the source with every neighbor visited: the search is exhausted
    assert decide(0) is None


def test_exhausted_static_search_fails():
    topo = build_udg({0: (0.0, 0.0), 1: (20.0, 0.0)}, 25.0)
    res = route(topo, topo.positions, 0, static((500.0, 500.0)))
    assert not res.delivered
    assert res.outcome == "failed"


def moves_once(first, second):
    """A sink at `first` before round 0, then at `second` from the end of
    round 0 on."""
    return chain([(first, False)], static(second))


def test_exhausted_search_waits_once_the_sink_has_moved():
    # The sink moves once, far out of reach: the walk restarts on that move,
    # exhausts the chain again against the new snapshot and then waits the
    # remaining rounds out instead of failing.
    topo = build_udg({0: (0.0, 0.0), 1: (20.0, 0.0)}, 25.0)
    sink = moves_once((500.0, 500.0), (600.0, 600.0))
    res = route(topo, topo.positions, 0, sink, round_limit=10)
    assert res.outcome == "missed"
    assert res.rounds == 10
    assert res.restarts == 1
    assert res.path == [0, 1, 0, 1, 0]


def test_on_round_is_called_once_per_frame_round():
    # The walk above: four moves, then six waiting rounds that send nothing.
    # Each tour aims at the snapshot it started from; the restart decides
    # again in round 2, so it takes no round of its own.
    topo = build_udg({0: (0.0, 0.0), 1: (20.0, 0.0)}, 25.0)
    calls = []
    res = route(
        topo, topo.positions, 0, moves_once((500.0, 500.0), (600.0, 600.0)),
        round_limit=10, on_round=lambda *call: calls.append(call),
    )
    assert res.rounds == 10 and res.path == [0, 1, 0, 1, 0]
    assert calls == [
        (0, 0, 1, (500.0, 500.0)),
        (1, 1, 0, (500.0, 500.0)),
        (2, 0, 1, (600.0, 600.0)),
        (3, 1, 0, (600.0, 600.0)),
    ]
    # The same four moves, then three waiting rounds: they count toward the
    # round number, so the sink that comes into range answers in round 7.
    sink = chain([((500.0, 500.0), False)], repeat(((600.0, 600.0), False), 6), static((10.0, 0.0)))
    calls = []
    res = route(topo, topo.positions, 0, sink, on_round=lambda *call: calls.append(call))
    assert res.delivered and res.rounds == 7 and res.path == [0, 1, 0, 1, 0]
    assert [call[:3] for call in calls] == [(0, 0, 1), (1, 1, 0), (2, 0, 1), (3, 1, 0), (7, 0, None)]
    # A delivering walk ends with one call whose target is None.
    topo = build_udg({0: (0.0, 0.0), 1: (20.0, 0.0), 2: (40.0, 0.0)}, 25.0)
    calls = []
    res = route(topo, topo.positions, 0, static((60.0, 0.0)), on_round=lambda *call: calls.append(call))
    assert res.delivered
    assert calls == [(0, 0, 1, (60.0, 0.0)), (1, 1, 2, (60.0, 0.0)), (2, 2, None, (60.0, 0.0))]


def test_round_limit_counts_as_miss():
    g = grid_topology(5, 25.0)
    track = bounce((500.0, 500.0), 5.0, 1000.0, seed=3)  # far away, roams
    res = route(g, g.positions, 0, track, round_limit=10)
    assert not res.delivered
    assert res.outcome == "missed"
    assert res.rounds == 10


def test_a_sink_that_runs_out_of_states_raises_value_error_naming_the_round():
    # A bare StopIteration would end a generator that calls the walk.
    g = grid_topology(3, 25.0)

    def walks(sink):
        yield route(g, g.positions, 0, sink, round_limit=10)

    with pytest.raises(ValueError, match="no state for round 2$"):
        next(walks([((200.0, 200.0), False)] * 2))
    with pytest.raises(ValueError, match="no state for round 0$"):
        next(walks([]))


def test_header_overflow_on_long_walks():
    positions = {i: (i * 20.0, 0.0) for i in range(140)}
    topo = build_udg(positions, 25.0)
    with pytest.raises(HeaderOverflow):
        route(topo, topo.positions, 0, static((139 * 20.0, 0.0)), round_limit=10_000)


def test_walk_matches_centralized_dfs():
    rnd = random.Random(31)
    for _ in range(60):
        topo, sink_pos, source = random_connected_instance(rnd, rnd.randrange(8, 30))
        coords = {nid: (rnd.uniform(0, 1000), rnd.uniform(0, 1000)) for nid in topo.positions}
        dest = (rnd.uniform(0, 1000), rnd.uniform(0, 1000))
        expected_walk, expected_delivered = reference_dfs_walk(
            topo, coords, source, dest, sink_pos
        )
        res = route(topo, coords, source, static(sink_pos), sink_coord=dest)
        assert res.delivered == expected_delivered
        if expected_delivered:
            assert res.path == expected_walk


def test_static_delivery_with_adversarial_coordinates():
    rnd = random.Random(77)
    for _ in range(80):
        topo, sink_pos, source = random_connected_instance(rnd, rnd.randrange(5, 35))
        coords = {nid: (rnd.uniform(0, 1000), rnd.uniform(0, 1000)) for nid in topo.positions}
        res = route(topo, coords, source, static(sink_pos))
        assert res.delivered
        assert res.restarts == 0
        assert res.hops <= 2 * len(topo)


def test_forward_ties_go_to_the_smallest_id():
    # The centre of a 3x3 grid: its neighbors 1, 3, 5 and 7 are equally far from it.
    g = grid_topology(3, 10.0)

    def decide(visited):
        return next_hop_3rule(4, g.positions[4], [], visited, g, g.positions)

    assert decide(set()) == 1
    assert decide({1}) == 3
    assert decide({1, 3, 5}) == 7


def test_forward_entries_unique_between_restarts():
    # drive the decision function manually and check the header discipline
    rnd = random.Random(13)
    for _ in range(40):
        topo, sink_pos, source = random_connected_instance(rnd, rnd.randrange(6, 25))
        coords = {nid: (rnd.uniform(0, 1000), rnd.uniform(0, 1000)) for nid in topo.positions}
        dest, traversed = (rnd.uniform(0, 1000), rnd.uniform(0, 1000)), []
        current = source
        for _ in range(4 * len(topo)):
            if topo.in_range(current, sink_pos):
                break
            target = next_hop_3rule(current, dest, traversed, set(traversed), topo, coords)
            if target is None:
                break
            assert target in topo.adjacency[current]
            if current not in traversed:
                traversed.append(current)
            assert len(set(traversed)) == len(traversed)
            current = target


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_delivery_on_random_instances(seed):
    rnd = random.Random(seed)
    topo, sink_pos, source = random_connected_instance(rnd, rnd.randrange(4, 25))
    coords = {nid: (rnd.uniform(0, 1000), rnd.uniform(0, 1000)) for nid in topo.positions}
    res = route(topo, coords, source, static(sink_pos))
    assert res.delivered


def test_route_result_path_consistency():
    g = grid_topology(5, 25.0)
    res = route(g, g.positions, 0, static((100.0, 100.0)))
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
        res = route(g, coords, 24, static(sink_pos), sink_coord=dest)
        assert delivered and res.delivered
        assert res.path == walk
        assert res.hops == len(walk) - 1


# ---------------------------------------------------------------------------
# the tour scan against the round-by-round walk
# ---------------------------------------------------------------------------


def reference_route(topology, coords, source, sink, *, sink_coord=None, round_limit=None, on_round=None):
    """The walk as it was before the tour: one decision per round, on a
    traversed list the walk itself keeps.  Each round delivers (rule 1), else asks
    `next_hop_3rule` (rules 2-3), else restarts when the search is exhausted
    at the source after the sink moved (rule 4).  The sink's first state is
    read before round 0 and the next at the end of each round that does not
    end the walk."""
    limit = round_limit if round_limit is not None else 4 * len(topology)
    positions = topology.positions
    r = topology.range_m
    states = iter(sink)
    pos, departed = next(states)
    dest = sink_coord or pos
    traversed = []
    snapshot = pos
    ever_moved = False
    current = source
    path = [source]
    hops = 0
    restarts = 0
    rounds = 0
    traversed_set = set()

    while True:
        if departed:
            return RouteResult(False, hops, restarts, path, "missed", rounds)
        if rounds >= limit:
            return RouteResult(False, hops, restarts, path, "missed", rounds)
        x, y = positions[current]
        dx = x - pos[0]
        dy = y - pos[1]
        if dx * dx + dy * dy <= r * r:
            if on_round is not None:
                on_round(rounds, current, None, dest)
            return RouteResult(True, hops, restarts, path, "delivered", rounds)
        target = next_hop_3rule(current, dest, traversed, traversed_set, topology, coords)
        if target is None and pos != snapshot and current == source and topology.adjacency[source]:
            restarts += 1
            traversed.clear()
            traversed_set.clear()
            dest = sink_coord or pos
            snapshot = pos
            continue
        if target is not None:
            if on_round is not None:
                on_round(rounds, current, target, dest)
            if current not in traversed_set:
                if len(traversed) >= MAX_ADDRESS_COUNT:
                    raise HeaderOverflow(f"traversed list would exceed {MAX_ADDRESS_COUNT} ids")
                traversed.append(current)
                traversed_set.add(current)
            current = target
            path.append(current)
            hops += 1
        elif not ever_moved:
            return RouteResult(False, hops, restarts, path, "failed", rounds)
        previous = pos
        pos, departed = next(states)
        if pos != previous:
            ever_moved = True
        rounds += 1


def _walked(walk, topology, coords, source, sink, **kwargs):
    """A walk's result fields, or "overflow", and every frame round it reported."""
    seen = []
    try:
        res = walk(topology, coords, source, sink, on_round=lambda *call: seen.append(call), **kwargs)
        fields = (res.delivered, res.path, res.rounds, res.hops, res.restarts, res.outcome)
    except HeaderOverflow:
        fields = "overflow"
    return fields, seen


# The largest round limit of `_instances`: four rounds per node of a 44-node
# topology.  A walk reads at most one more state than its limit.
LINE_STEPS = 4 * 44


def _sinks(rnd, field):
    """One sink of each kind, started somewhere on a `field`-wide square."""
    start = (rnd.uniform(0, field), rnd.uniform(0, field))
    end = (rnd.uniform(0, field), rnd.uniform(0, field))
    speed = rnd.choice((0.0, 1.0, 5.0, 20.0, 80.0))
    seed = rnd.randrange(2**31)
    return {
        "bounce": lambda: bounce(start, speed, field, seed=seed),
        "line": lambda: line_crossing(start, end, speed or 3.0, LINE_STEPS),
        "static": lambda: static(start),
        "moves-once": lambda: moves_once(start, end),
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
                bounce(start, speed, 300.0, seed=seed), sink_coord=dest, round_limit=n,
            )
            got = _walked(
                route, topo, make_coords, source,
                bounce(start, speed, 300.0, seed=seed), sink_coord=dest, round_limit=n, tour=tour,
            )
            assert got == expected
            grown = (len(tour.entries), tour.complete) != known
            assert len(made) - calls == int(grown)
            grew += grown
    assert grew


def test_header_overflow_on_a_long_chain_matches_the_round_by_round_walk():
    positions = {i: (i * 20.0, 0.0) for i in range(130)}
    topo = build_udg(positions, 25.0)
    for sink in (lambda: static((129 * 20.0, 0.0)), lambda: bounce((2500.0, 5.0), 3.0, 2600.0, seed=1)):
        for kwargs in ({}, {"sink_coord": (2600.0, 0.0)}):
            expected = _walked(reference_route, topo, topo.positions, 0, sink(), round_limit=10_000, **kwargs)
            assert expected[0] == "overflow"
            assert _walked(route, topo, topo.positions, 0, sink(), round_limit=10_000, **kwargs) == expected
    # A shared tour holds only the moves the header can carry: the move that
    # overflows is reported, not kept, and a second walk decides it again.
    sink, sink_coord = (129 * 20.0, 0.0), (2600.0, 0.0)
    _, expected_rounds = _walked(reference_route, topo, topo.positions, 0, static(sink), sink_coord=sink_coord)
    assert expected_rounds[-1][1:3] == (MAX_ADDRESS_COUNT, MAX_ADDRESS_COUNT + 1)
    tour = Tour([0])
    for _ in range(2):
        seen = []
        with pytest.raises(HeaderOverflow, match=f"^traversed list would exceed {MAX_ADDRESS_COUNT} ids$"):
            route(
                topo, topo.positions, 0, static(sink), sink_coord=sink_coord, tour=tour,
                on_round=lambda *call: seen.append(call),
            )
        assert seen == expected_rounds
        assert len(dict.fromkeys(tour.entries[:-1])) <= MAX_ADDRESS_COUNT and not tour.complete
        assert tour.entries == list(range(MAX_ADDRESS_COUNT + 1))


@pytest.mark.parametrize("hops", [115, 116, 117, 118])
def test_the_answer_fits_the_data_payload_with_the_source_neighbors(hops):
    # A chain 1 m apart at 1 m range, with two leaves on the source: its
    # answer carries the traversed list and these 3 neighbors.  A static sink
    # is in range of node `hops` and of none before it.
    positions = {i: (float(i), 0.0) for i in range(130)}
    positions.update({130: (0.0, 1.0), 131: (0.0, -1.0)})
    topo = build_udg(positions, 1.0)
    neighbors = list(topo.adjacency[0])
    assert len(neighbors) == 3
    sink = (hops + 0.5, 0.5)
    # Bounded at the 118 ids of the traversed list alone, every walk delivers.
    res = route(topo, topo.positions, 0, static(sink), round_limit=1_000)
    assert res.delivered and res.hops == hops
    # The traversed list: every node the packet left, in first-visit order.
    traversed = list(dict.fromkeys(res.path[:-1]))
    assert traversed == list(range(hops))
    payload = DataPayload(traversed, neighbors)
    bound = MAX_ADDRESS_COUNT - len(neighbors)
    if hops <= bound:
        encode_data_payload(payload)
        bounded = route(topo, topo.positions, 0, static(sink), round_limit=1_000, max_traversed=bound)
        assert bounded == res
    else:
        # 116 to 118 hops: the answer does not fit, and the bounded walk says so.
        with pytest.raises(ListOverflow):
            encode_data_payload(payload)
        with pytest.raises(HeaderOverflow, match=f"exceed {bound} ids"):
            route(topo, topo.positions, 0, static(sink), round_limit=1_000, max_traversed=bound)
