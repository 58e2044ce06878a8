import dataclasses
import hashlib
import math
import random
from collections import Counter, deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sinksim.core import DEFAULT_CONSTANTS, b_src_min
from sinksim.flood import FloodEngine, FloodReport, simulate_flood
from sinksim.mac import ContentionConfig, collision_probability
from sinksim.radio import Topology, build_udg, grid_topology

C = DEFAULT_CONSTANTS
WORST_GRID_DELAY_US = 8 * (C.w_br + C.d_brp)  # opposite-corner budget


def component_of(topology, node):
    seen = {node}
    queue = deque([node])
    while queue:
        u = queue.popleft()
        for v in topology.adjacency[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def test_isolated_initiator_transmits_once():
    topo = build_udg({0: (0.0, 0.0)}, 25.0)
    report = simulate_flood(topo, 0, seed=1)
    assert report.transmissions == [(0, 0)]
    assert report.reached == {0}
    assert report.first_rx_us == {}


def test_every_node_transmits_exactly_once():
    g = grid_topology(5, 25.0)
    for seed in range(50):
        report = simulate_flood(g, 0, seed=seed)
        counts = Counter(node for node, _ in report.transmissions)
        assert set(counts) == set(g.positions)
        assert all(count == 1 for count in counts.values())


def test_flood_reaches_the_whole_component_only():
    # two clusters far apart: the flood stays in the initiator's cluster
    positions = {i: (i * 20.0, 0.0) for i in range(4)}
    positions.update({i: (i * 20.0 + 500.0, 0.0) for i in range(4, 8)})
    topo = build_udg(positions, 25.0)
    report = simulate_flood(topo, 0, seed=9)
    assert report.reached == component_of(topo, 0)


def test_opposite_corner_bound_on_sample_seeds():
    g = grid_topology(5, 25.0)
    for seed in range(100):
        report = simulate_flood(g, 0, seed=seed)
        assert report.first_rx_us[24] <= WORST_GRID_DELAY_US


def test_first_receptions_are_ordered_by_wavefront():
    g = grid_topology(5, 25.0)
    report = simulate_flood(g, 0, seed=5)
    # a node is only reached after one of its neighbors transmitted
    for nid, rx in report.first_rx_us.items():
        starts = [report.tx_start_us[v] for v in g.adjacency[nid] if v in report.tx_start_us]
        assert min(starts) + C.d_brp <= rx


def test_adjacent_transmissions_only_overlap_within_switch_window():
    g = grid_topology(5, 25.0)
    for seed in range(60):
        report = simulate_flood(g, 0, seed=seed)
        for a in sorted(g.positions):
            for b in g.adjacency[a]:
                if b < a or a not in report.tx_start_us or b not in report.tx_start_us:
                    continue
                sa, ea = report.tx_start_us[a], report.tx_end_us[a]
                sb, eb = report.tx_start_us[b], report.tx_end_us[b]
                if sa < eb and sb < ea:  # overlapping intervals
                    assert abs(sa - sb) < C.d_rxtx


def test_source_waits_out_the_storm():
    g = grid_topology(5, 25.0)
    for seed in range(40):
        report = simulate_flood(g, 0, source=24, seed=seed)
        assert 24 not in report.tx_start_us
        assert report.source_wait_expiry_us == report.first_rx_us[24] + C.b_src
        # no neighbor transmission may be in flight when the wait expires
        expiry = report.source_wait_expiry_us
        for v in g.adjacency[24]:
            if v in report.tx_start_us:
                assert not (report.tx_start_us[v] <= expiry < report.tx_end_us[v])
        # everyone else still relays exactly once
        counts = Counter(node for node, _ in report.transmissions)
        assert set(counts) == set(g.positions) - {24}


def test_b_src_bound_values():
    assert b_src_min(6) == 924_000
    assert C.b_src > b_src_min(6)
    assert b_src_min(1) == 154_000
    assert b_src_min(0) == 0


def test_flood_deterministic_per_seed():
    g = grid_topology(4, 25.0)
    a = simulate_flood(g, 0, seed=11)
    b = simulate_flood(g, 0, seed=11)
    assert a.transmissions == b.transmissions
    assert a.first_rx_us == b.first_rx_us
    assert simulate_flood(g, 0, seed=12).transmissions != a.transmissions


@pytest.mark.parametrize("w_br", [C.w_br, 1_023, 0])
def test_backoffs_are_the_randrange_stream(w_br):
    # A star whose 10,000 leaves hear only the center: the center relays at
    # 0, every leaf draws its backoff as the relay ends, in id order, and
    # relays when it expires.  The engine draws inline what randrange draws.
    leaves = range(1, 10_001)
    adjacency = {0: tuple(leaves), **{v: (0,) for v in leaves}}
    star = Topology(dict.fromkeys(adjacency, (0.0, 0.0)), 25.0, adjacency)
    c = dataclasses.replace(C, w_br=w_br)
    for seed in (0, 1, 7):
        report = simulate_flood(star, 0, c=c, seed=seed)
        reference = random.Random(seed)
        draws = [reference.randrange(w_br + 1) for _ in leaves]
        assert [report.tx_start_us[v] - c.d_brp for v in leaves] == draws


def test_an_empty_backoff_window_is_rejected():
    with pytest.raises(ValueError, match="w_br must be >= 0, got -1"):
        FloodEngine(grid_topology(2, 25.0), dataclasses.replace(C, w_br=-1))


def test_unknown_initiator_rejected():
    g = grid_topology(3, 25.0)
    with pytest.raises(KeyError):
        simulate_flood(g, 99)


def test_unknown_source_rejected():
    g = grid_topology(3, 25.0)
    with pytest.raises(KeyError, match="source 99"):
        simulate_flood(g, 0, source=99)
    with pytest.raises(KeyError, match="source 99"):
        FloodEngine(g, C, source=99)


def test_an_unknown_injected_node_is_rejected_at_the_call():
    engine = FloodEngine(grid_topology(3, 25.0), C, seed=4)
    with pytest.raises(KeyError, match="node 42"):
        engine.inject_reception(42, 1_000)
    assert engine.run().reached == set()


def test_injected_receptions_seed_the_flood():
    g = grid_topology(3, 25.0)
    engine = FloodEngine(g, C, seed=4)
    engine.inject_reception(4, 1_000)  # center node hears an external preamble
    report = engine.run()
    assert report.first_rx_us[4] == 1_000
    assert set(report.tx_start_us) == set(g.positions)


def first_copy_at_node_1(relays):
    """When node 1 takes in its first copy, or None, with each listed node
    relaying at its given time (a backoff that expires then)."""
    # node 1 hears 0, 2 and 4; node 3 is out of its range
    topo = build_udg(
        {0: (0.0, 0.0), 1: (25.0, 0.0), 2: (50.0, 0.0), 3: (75.0, 0.0), 4: (25.0, 25.0)}, 25.0
    )
    engine = FloodEngine(topo, C, seed=0, collisions=True)
    for node, t in relays:
        engine._relay_at(node, t)
    return engine.run().first_rx_us.get(1)


def test_collision_needs_two_overlapping_transmissions_the_node_hears():
    d = C.d_brp
    # a transmission node 1 does not hear overlaps the copy, which survives
    assert first_copy_at_node_1([(0, 0), (3, 1_000)]) == d
    # touching transmissions survive: the first one's copy ...
    assert first_copy_at_node_1([(0, 0), (2, d)]) == d
    # ... and the second one's, once two that overlap each other are lost
    assert first_copy_at_node_1([(0, 1_000), (4, 1_000), (2, d + 1_000)]) == 2 * d + 1_000
    # one that overlaps both by a microsecond loses all three copies
    assert first_copy_at_node_1([(0, 0), (2, d), (4, d - 1)]) is None


@pytest.mark.parametrize("n", [2, 4, 6])
def test_clique_first_copy_loss_is_the_closed_form(n):
    # Initiator 0 feeds n relays that all hear each other; the relays feed
    # receiver n + 1, which cannot hear the initiator.  The receiver's first
    # copy is lost when another relay starts within d_rxtx of the earliest:
    # the closed form's runner-up within D of the earliest answer.
    positions = {0: (0.0, 0.0), n + 1: (12.0, 0.0)}
    positions.update({i: (6.0, 0.1 * i) for i in range(1, n + 1)})
    topo = build_udg(positions, 10.0)
    assert n + 1 not in topo.adjacency[0] and len(topo.adjacency[n + 1]) == n
    runs = 4_000
    lost = 0
    for seed in range(runs):
        report = simulate_flood(topo, 0, seed=seed, collisions=True)
        first_end = min(report.tx_end_us[i] for i in range(1, n + 1))
        lost += report.first_rx_us.get(n + 1) != first_end
    p = collision_probability(ContentionConfig(C.w_br, C.d_rxtx, n))
    assert abs(lost / runs - p) <= 4 * math.sqrt(p * (1 - p) / runs)


def test_collision_flag_smoke():
    g = grid_topology(5, 25.0)
    lossy = simulate_flood(g, 0, seed=21, collisions=True)
    assert lossy.reached <= set(g.positions)
    assert (0, 0) in lossy.transmissions


# Recorded before the collision check moved to per-node lists of the
# transmissions each node hears: (transmissions, reached, completion, and the
# SHA-256 of the repr of the transmissions and of the sorted first receptions).
PINNED_LOSSY_FLOODS = {
    0: (46, 47, 2_331_072, "925a364a4a26068dd89c83745b4a47fcce94c2d57db0328659d8fe9e6e8e1e8f",
        "1cca73bb4543947c70cc964be271ab15e5b24061a4ab174e4967af5bdc6b01d5"),
    1: (46, 47, 2_328_179, "4c8ed1a082aa5321bd877c4c1aff5093099980c769beec21f5143529f6c8faf0",
        "9b8f8ea095079a04ecc2f9a14ba79a839b18fb2b0cb3da3237eac9645abbeec9"),
    2: (46, 47, 2_324_476, "92541e6a7d1f1acd4e35a2d8847800d2e1c819ced46f04bde448b24266521f4d",
        "c603a11214c8d01859f86fa30a2c73b4585ba6239726da3055b73f8052010acd"),
}


@pytest.mark.parametrize("seed", sorted(PINNED_LOSSY_FLOODS))
def test_lossy_flood_is_pinned(seed):
    # 17 of the 64 nodes of the 8x8 grid lose every copy to collisions
    report = simulate_flood(grid_topology(8, 25.0), 27, source=5, seed=seed, collisions=True)
    sent, reached, completion, tx_digest, rx_digest = PINNED_LOSSY_FLOODS[seed]
    assert len(report.transmissions) == sent
    assert len(report.reached) == reached
    assert report.completion_us == report.source_wait_expiry_us == completion
    assert hashlib.sha256(repr(report.transmissions).encode()).hexdigest() == tx_digest
    first_rx = sorted(report.first_rx_us.items())
    assert hashlib.sha256(repr(first_rx).encode()).hexdigest() == rx_digest


def sparse_udg():
    # 90 nodes with ids scattered over 10..4999, inserted in no id order
    rng = random.Random(2024)
    ids = rng.sample(range(10, 5000), 90)
    return build_udg({nid: (rng.uniform(0, 140), rng.uniform(0, 140)) for nid in ids}, 30.0)


def flood_digest(report):
    first_rx = sorted(report.first_rx_us.items())
    return (
        len(report.transmissions),
        len(report.reached),
        report.completion_us,
        hashlib.sha256(repr(report.transmissions).encode()).hexdigest(),
        hashlib.sha256(repr(first_rx).encode()).hexdigest(),
    )


# Recorded before the flood's event loop was folded into run_until, in the
# layout of PINNED_LOSSY_FLOODS: keyed by (collisions, seed), the initiator
# is node 1027 (degree 17) and the source node 1882.
PINNED_UDG_FLOODS = {
    (False, 0): (89, 90, 2_341_662, "12dee5dd63e0e2212962752dd7252b8939b126587005e831d518d3848a139fa8",
                 "90142628efa8576ccb3d161acf14f152a74e168a390e8297abea645c3dda0a6e"),
    (False, 2): (89, 90, 2_196_852, "aba17a8dbc038a56209a09f188e68ec2ff0f6ac3af89e4d26e1b36bc24473aaf",
                 "902f380e7a95b2090cb48813949196b4fc2cc9c3dafb8e22f15fcf8c54537047"),
    (True, 0): (83, 84, 1_755_267, "037e55e577ee64e4421a9ae99d1b70286f1e2d960fda0c9e5274ff78ff8caada",
                "b01230bde8046cf483624460f7b43cb8ba17c7cabf3f8eb2358e04c6324dbdb0"),
    (True, 2): (88, 89, 1_912_892, "fb9517f585f09ca1fef3ba1cacf813f9deee1735812d4953b4c80ce00e0fe86d",
                "5579e01a5cc97c1e7772bfd704a09b12c746020a2cbbf031c254f8f297ed298a"),
}


@pytest.mark.parametrize("collisions, seed", sorted(PINNED_UDG_FLOODS))
def test_flood_on_a_sparse_id_udg_is_pinned(collisions, seed):
    report = simulate_flood(sparse_udg(), 1027, source=1882, seed=seed, collisions=collisions)
    assert flood_digest(report) == PINNED_UDG_FLOODS[collisions, seed]


# Same topology, no initiator: two external receptions (nodes 677 and 4051,
# half a preamble apart) start the flood, which runs to 50 ms, then to the end.
PINNED_INJECTED_FLOODS = {
    False: (89, 90, 2_076_668, "096f67113c28d9b7ce237e21fa0573ddde0c9d3c4fe685ef030008f0824e5907",
            "2b1ae19310475e287e5db68bc589f2f59a899a18c99a3f16f621cd1680f4cd89"),
    True: (88, 89, 1_922_553, "e55331e515b508124fd77d4aae0c6128c740f27ea29a1e44fcea31f0306316f2",
           "4b35ab023f353d6731a65e8f6c38412723ad185c78b9109007ff779c7f470b3b"),
}


@pytest.mark.parametrize("collisions", [False, True])
def test_flood_seeded_by_injected_receptions_is_pinned(collisions):
    engine = FloodEngine(sparse_udg(), C, source=1882, seed=3, collisions=collisions)
    engine.inject_reception(677, 1_000)
    engine.inject_reception(4051, 1_000 + C.d_brp // 2)
    engine.run_until(50_000)
    report = engine.run()
    assert report.source_wait_expiry_us == 1_148_898
    assert flood_digest(report) == PINNED_INJECTED_FLOODS[collisions]


def relabelled(report, label):
    """`report` with every node id `v` replaced by `label[v]`."""
    return FloodReport(
        initiator=label[report.initiator],
        source=None if report.source is None else label[report.source],
        first_rx_us={label[v]: t for v, t in report.first_rx_us.items()},
        tx_start_us={label[v]: t for v, t in report.tx_start_us.items()},
        tx_end_us={label[v]: t for v, t in report.tx_end_us.items()},
        transmissions=[(label[v], t) for v, t in report.transmissions],
        source_wait_expiry_us=report.source_wait_expiry_us,
        completion_us=report.completion_us,
        reached={label[v] for v in report.reached},
    )


@st.composite
def scattered_udgs(draw):
    """(ids, positions) of a small UDG: ids negative, at least 2**40 or
    small, in a drawn insertion order."""
    n = draw(st.integers(1, 14))
    ids = draw(
        st.lists(
            st.one_of(st.integers(-(2**62), -1), st.integers(2**40, 2**62), st.integers(0, 300)),
            min_size=n, max_size=n, unique=True,
        )
    )
    coord = st.integers(0, 80).map(float)
    positions = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    return ids, positions


@given(scattered_udgs(), st.data(), st.integers(0, 2**31 - 1))
def test_a_flood_does_not_depend_on_the_id_values(udg, data, seed):
    # The ids numbered 0..n-1 in ascending order keep every neighbor order,
    # so the relabelled flood draws the same backoffs and maps back exactly.
    ids, positions = udg
    initiator = data.draw(st.sampled_from(ids))
    source = data.draw(st.one_of(st.none(), st.sampled_from(ids)))
    label = dict(enumerate(sorted(ids)))
    rank = {nid: r for r, nid in label.items()}
    topo = build_udg(list(zip(ids, positions)), 25.0)
    ranked = build_udg({rank[nid]: p for nid, p in sorted(zip(ids, positions))}, 25.0)
    for collisions in (False, True):
        report = simulate_flood(topo, initiator, source=source, seed=seed, collisions=collisions)
        ranked_report = simulate_flood(
            ranked, rank[initiator], source=None if source is None else rank[source],
            seed=seed, collisions=collisions,
        )
        assert report == relabelled(ranked_report, label)


def test_a_rebuilt_topology_never_reads_the_slot_view_before():
    # Each topology is built, flooded and dropped.  The same nodes at another
    # range could take its identity, so a slot view kept by identity would
    # flood on the adjacency before; each topology keeps its own view.
    positions = {nid: ((nid % 4) * 25.0, (nid // 4) * 25.0) for nid in range(16)}
    adjacency = {range_m: build_udg(positions, range_m).adjacency for range_m in (25.0, 36.0, 51.0)}

    def flood_a_new_topology(range_m):
        topo = Topology(positions, range_m, adjacency[range_m])
        return flood_digest(simulate_flood(topo, 0, source=15, seed=3, collisions=True))

    ranges = [25.0, 36.0, 25.0, 51.0]
    in_turn = [flood_a_new_topology(range_m) for range_m in ranges]
    alone = []
    for range_m in ranges:
        alone.append(flood_a_new_topology(range_m))
    assert in_turn == alone
    assert len(set(alone)) == 3
