import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sinksim import scenario
from sinksim.core import DEFAULT_CONSTANTS, replace_constants
from sinksim.energy import integrate_timeline
from sinksim.radio import RADIO_STATES, Timeline, build_udg, grid_topology, power_table
from sinksim.routing import HeaderOverflow, RoutingError, init_virtual_coords
from sinksim.scenario import (
    BS_ID,
    MS_ID,
    BounceTrack,
    ConfigError,
    LineTrack,
    ScenarioConfig,
    StaticSink,
    WaypointTrack,
    _base_station_timeline,
    _base_station_totals,
    _fill_gaps,
    _hearers,
    _network_bbox,
    _span_totals,
    _t_quantile,
    diagonal_line,
    discovered_graph,
    edge_line,
    grid_crossing_hops,
    grid_point,
    hop_exchange_timeline,
    mean_ci,
    random_graph_point,
    run_scenario,
    timeline_coverage,
)

C = DEFAULT_CONSTANTS
SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# sink tracks
# ---------------------------------------------------------------------------


def test_bounce_reflects_at_the_border():
    track = BounceTrack((1000.0, 500.0), 50.0, 1000.0, seed=8)
    track.direction = (1, 1)
    track.step()
    x, y = track.position
    assert 0.0 <= x <= 1000.0 and 0.0 <= y <= 1000.0
    assert track.direction[0] == -1  # positive direction flipped at the wall


def test_bounce_zero_speed_stays_put():
    track = BounceTrack((400.0, 600.0), 0.0, 1000.0, seed=1)
    for _ in range(5):
        track.step()
    assert track.position == (400.0, 600.0)


def test_bounce_stays_inside_the_field():
    track = BounceTrack((2.0, 998.0), 120.0, 1000.0, seed=5)
    for _ in range(500):
        track.step()
        assert 0.0 <= track.position[0] <= 1000.0
        assert 0.0 <= track.position[1] <= 1000.0


SPEED_PROBE = """
import sys
from sinksim.scenario import BounceTrack, grid_point, random_graph_point
calls = {
    "bounce": lambda v: BounceTrack((500.0, 500.0), v, 1000.0, seed=1).step(),
    "random-graph": lambda v: random_graph_point(4, v, 3, 1),
    "grid-virtual": lambda v: grid_point("edge", v, 3, 1),
    "grid-physical": lambda v: grid_point("diagonal", v, 3, 1, coord_mode="physical"),
}
try:
    calls[sys.argv[1]](float(sys.argv[2]))
except ValueError as exc:
    print(exc)
"""


@pytest.mark.parametrize("speed", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("call", ["bounce", "random-graph", "grid-virtual", "grid-physical"])
def test_speeds_that_are_negative_or_not_finite_are_rejected(call, speed):
    # A fresh interpreter under a timeout: a non-finite drift used to bounce
    # off the borders forever.
    proc = subprocess.run(
        [sys.executable, "-c", SPEED_PROBE, call, speed],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert proc.stdout.startswith("speed must be finite and >= 0")


def test_edge_line_exits_after_four_rounds():
    track = edge_line(100.0, 25.0)
    for expected_departed in (False, False, False, True):
        track.step()
        assert track.departed == expected_departed
    assert track.position == (100.0, 0.0)


def test_diagonal_line_geometry():
    track = diagonal_line(100.0, 10.0)
    assert track.length == pytest.approx(100.0 * math.sqrt(2))
    track.step()
    assert track.position[0] == pytest.approx(track.position[1])


def test_static_sink_never_moves():
    sink = StaticSink((3.0, 4.0))
    sink.step()
    assert sink.position == (3.0, 4.0)
    assert not sink.departed


def test_waypoint_track_positions():
    track = WaypointTrack([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)], speed_mps=1.0)
    assert track.total_length == pytest.approx(20.0)
    assert track.position_at(0) == (0.0, 0.0)
    assert track.position_at(5_000_000) == (5.0, 0.0)
    assert track.position_at(15_000_000) == (10.0, 5.0)
    assert track.position_at(10**9) == (10.0, 10.0)
    with pytest.raises(ValueError):
        WaypointTrack([(0.0, 0.0), (1.0, 0.0)], speed_mps=0.0)


# ---------------------------------------------------------------------------
# hop exchange timeline
# ---------------------------------------------------------------------------


def test_hop_timeline_partitions_the_exchange():
    responders = [(1, 2_000), (2, 8_000), (3, 20_000)]
    segments = hop_exchange_timeline(C, 0, responders, data_target=2, t0=0)
    window = C.d_rrp + C.w_rr + C.d_data
    assert timeline_coverage(segments) == {0: window, 1: window, 2: window, 3: window}


def test_hop_timeline_listen_budget():
    responders = [(1, 1_000), (2, 9_000)]
    segments = hop_exchange_timeline(C, 0, responders, data_target=1, t0=0)
    listen = sum(s.end_us - s.start_us for s in segments if s.node == 0 and s.state == "listen")
    rx = sum(s.end_us - s.start_us for s in segments if s.node == 0 and s.state == "rx")
    assert listen == C.w_rr - 2 * C.d_ack
    assert rx == 2 * C.d_ack
    target_rx = sum(s.end_us - s.start_us for s in segments if s.node == 1 and s.state == "rx")
    assert target_rx == C.d_cca + C.d_data


def test_hop_timeline_merges_overlapping_acks():
    responders = [(1, 1_000), (2, 1_100)]  # ACKs overlap on the air
    segments = hop_exchange_timeline(C, 0, responders, data_target=None, t0=0)
    timeline_coverage(segments)  # must not raise


def test_hop_timeline_without_ack_time_has_no_empty_segments():
    c = replace_constants(C, d_ack=0)
    segments = hop_exchange_timeline(c, 0, [(1, 2_000), (2, 8_000)], data_target=2, t0=0)
    assert all(s.end_us > s.start_us for s in segments)
    # the sender listens through the whole window, the responders sleep
    # through it, and no ACK leaves a trace
    assert [(s.state, s.start_us, s.end_us) for s in segments if s.node == 0] == [
        ("poll", 0, c.d_rrp),
        ("listen", c.d_rrp, c.d_rrp + c.w_rr),
        ("tx", c.d_rrp + c.w_rr, c.d_rrp + c.w_rr + c.d_data),
    ]
    assert not any(s.state == "tx" for s in segments if s.node != 0)
    window = c.d_rrp + c.w_rr + c.d_data
    assert timeline_coverage(segments) == {0: window, 1: window, 2: window}


# ---------------------------------------------------------------------------
# six-phase scenario
# ---------------------------------------------------------------------------


def scenario_config(**overrides):
    defaults = dict(
        topology=grid_topology(4, 25.0),
        query_node=10,
        seed=42,
        bs_position=(-80.0, 37.5),
        ms_speed_mps=7.0,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def test_scenario_phases_are_ordered():
    report = run_scenario(scenario_config())
    times = report.phase_times_us
    assert sorted(times) == [1, 2, 3, 4, 5, 6]
    assert times[1] < times[2] < times[4] < times[5] < times[6]
    assert not report.miss
    assert report.route.delivered


def test_two_node_network_end_to_end():
    topo = build_udg({0: (0.0, 0.0), 1: (20.0, 0.0)}, 25.0)
    report = run_scenario(
        ScenarioConfig(
            topology=topo,
            query_node=1,
            seed=2,
            bs_position=(-60.0, 0.0),
            ms_speed_mps=2.0,
        )
    )
    assert not report.miss
    assert report.route.delivered
    times = report.phase_times_us
    assert times[1] < times[2] <= times[3] < times[4] < times[5] < times[6]
    assert report.neighbors == [0]


def test_scenario_timeline_partitions_time():
    report = run_scenario(scenario_config())
    coverage = timeline_coverage(report.timeline)
    expected = set(range(16)) | {MS_ID, BS_ID}
    assert set(coverage) == expected
    assert all(total == report.horizon_us for total in coverage.values())


def test_scenario_reports_source_neighbors():
    report = run_scenario(scenario_config(query_node=5))
    assert report.neighbors == [1, 4, 6, 9]


def test_scenario_delivers_exactly_one_data_to_the_sink():
    # conservation: one query, one data reception at the sink, no duplicates
    report = run_scenario(scenario_config())
    data_rx = [
        seg
        for seg in report.timeline
        if seg.node == MS_ID and seg.state == "rx" and seg.end_us - seg.start_us == C.d_data
    ]
    assert len(data_rx) == 1


def test_scenario_deterministic():
    a = run_scenario(scenario_config())
    b = run_scenario(scenario_config())
    assert a.phase_times_us == b.phase_times_us
    assert a.route.path == b.route.path


def test_scenario_miss_at_excessive_speed():
    # the sink crosses so fast that the answer cannot catch it
    report = run_scenario(scenario_config(ms_speed_mps=100.0, seed=3))
    assert report.miss
    assert 4 not in report.phase_times_us


def test_scenario_enforces_the_header_bound():
    # a 15x15 grid on random virtual coordinates walks more distinct nodes
    # than the DATA payload can list
    g = grid_topology(15, 25.0)
    vc = init_virtual_coords(g, 0, ((0, 350), (0, 350)))
    cfg = scenario_config(
        topology=g,
        query_node=0,
        seed=0,
        coord_mode="virtual",
        virtual_coords=vc,
        ms_virtual_coord=(175.0, 175.0),
    )
    with pytest.raises(HeaderOverflow):
        run_scenario(cfg)


def test_isolated_query_node_misses_without_hops():
    # the sink hands the query to the lone node while flying over it, but is
    # out of range by the time the answer is ready and the node has no
    # neighbor to forward to: nothing moves, so nothing counts as a hop
    topo = build_udg({0: (0.0, 0.0), 1: (500.0, 0.0)}, 25.0)
    cfg = scenario_config(
        topology=topo, query_node=0, seed=1, bs_position=(-60.0, 0.0), ms_speed_mps=60.0
    )
    report = run_scenario(cfg)
    assert report.miss
    assert report.route.outcome == "failed"
    assert report.route.hops == len(report.route.path) - 1 == 0
    assert 4 not in report.phase_times_us


def sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# Recorded before the timeline was assembled from per-node buckets with the
# base-station train built in final form and the hearer scan prefiltered by
# the bounding box; every output must stay bit for bit.  Segments,
# transmissions and energies are pinned by count and the SHA-256 of their repr.
# The energies were recorded again once they were priced from per-state
# totals rather than summed segment by segment, which moves their last bits.
PINNED_ROTATIONS = {
    # nodes 4 and 8 hear the first request preamble at the same instant; the
    # one injected first (the lower id) draws the first relay backoff
    "two-first-hearers": dict(
        side=4,
        config=dict(query_node=10, seed=42),
        phases={
            1: 144_480, 2: 8_688_480, 3: 9_593_763,
            4: 10_672_025, 5: 10_672_505, 6: 44_748_000,
        },
        path=[10, 9, 8],
        segments=(660, "ac42f740e19d2010b94cd7a29753fdc9e416c47bf13538e9d4b09e28e0da0c16"),
        transmissions=(15, "a6a9c739fde53323d288af9a9455ecc711be1bce9bb5fdbe2497c8e54afcee46"),
        energy="c3b43bb7a9034005e4d0edc58336f544176136ef46eca2cc383489f508603719",
    ),
    "loss-free": dict(
        side=6,
        config=dict(query_node=21, seed=3),
        phases={
            1: 144_480, 2: 8_688_480, 3: 10_038_926,
            4: 11_003_960, 5: 11_004_440, 6: 59_748_000,
        },
        path=[21, 20, 19, 18],
        segments=(905, "9c592b1301b6ad147b23e5f5d51e0a5f7da2e1ae5f0be693ff2040555ddb055f"),
        transmissions=(35, "ac11199015477e6a9507d1f0fea43262e930d28bcc39c0b08068ddbfc9a75215"),
        energy="890bc919cf25e6a77a722c75063e198a5ab6ec0fde46fb483902ce28255a94d8",
    ),
    # six of the 36 nodes lose every copy of the query to collisions
    "collisions": dict(
        side=6,
        config=dict(query_node=28, seed=5, collisions=True),
        phases={
            1: 144_480, 2: 8_688_480, 3: 10_601_022,
            4: 11_635_591, 5: 11_636_071, 6: 59_748_000,
        },
        path=[28, 27, 26, 25, 19, 18],
        segments=(957, "8a5bc8425d76ae88632661ac7a1cf71d17b0cce20b91bcbba39e263392b8f340"),
        transmissions=(29, "73247b065f4267595ee5eb9fb6bb15ecf6066f651ceeca44e7a88a216ce7af27"),
        energy="5226694f75dce2b1626bfa18c2542f6878f68241d1fb19d93af2e764b1e90a85",
    ),
    "virtual": dict(
        side=6,
        config=dict(query_node=21, seed=4, coord_mode="virtual"),
        phases={
            1: 144_480, 2: 8_688_480, 3: 10_043_550,
            4: 11_706_370, 5: 11_706_850, 6: 59_748_000,
        },
        path=[21, 20, 26, 25, 31, 30, 24, 18],
        segments=(1005, "90e03e24b55c63219872cde3e36d31248ed522d56314ed0cae341d5035eebe20"),
        transmissions=(35, "23036bec0a8eac517e051067a900852a246e10abc84df616ecc59db774140af8"),
        energy="a9728a58fc9a11d9489a1bc4cdccfa19fb1a8b9e02daf2b9f954012a447c9e6e",
    ),
}


def run_pinned(name):
    pinned = PINNED_ROTATIONS[name]
    g = grid_topology(pinned["side"], 25.0)
    config = dict(pinned["config"])
    if config.get("coord_mode") == "virtual":
        config["virtual_coords"] = init_virtual_coords(g, config["seed"], ((0, 125), (0, 125)))
        config["ms_virtual_coord"] = (62.5, 62.5)
    return run_scenario(ScenarioConfig(topology=g, **config))


@pytest.mark.parametrize("name", sorted(PINNED_ROTATIONS))
def test_rotation_outputs_are_pinned(name):
    pinned = PINNED_ROTATIONS[name]
    report = run_pinned(name)
    assert not report.miss
    assert report.phase_times_us == pinned["phases"]
    assert report.horizon_us == pinned["phases"][6]
    assert report.route.path == pinned["path"]
    segments = [(s.node, s.state, s.start_us, s.end_us) for s in report.timeline]
    assert (len(segments), sha256(segments)) == pinned["segments"]
    transmissions = report.flood.transmissions
    assert (len(transmissions), sha256(transmissions)) == pinned["transmissions"]
    energy = integrate_timeline(report.timeline, power_table(-25))
    assert sha256(sorted(energy.items())) == pinned["energy"]


@pytest.mark.parametrize("name", sorted(PINNED_ROTATIONS))
def test_timeline_view_agrees_with_its_segments(name):
    report = run_pinned(name)
    view = report.timeline
    assert isinstance(view, Timeline)
    segments = list(view)
    assert len(view) == len(segments)
    assert view.clipped_us == {}
    assert timeline_coverage(view) == timeline_coverage(segments)
    for dbm in (0, -25):
        powers = power_table(dbm)
        by_segment = {}
        for s in segments:
            by_segment[s.node] = by_segment.get(s.node, 0.0) + (
                (s.end_us - s.start_us) / 1e6 * powers.power_mw(s.state)
            )
        energy = integrate_timeline(view, powers)
        assert energy.keys() == by_segment.keys()
        for node, e in energy.items():
            assert e == pytest.approx(by_segment[node], rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "query, seed, clipped",
    [
        # node 49 is still relaying the flood when node 48's delivering hop
        # exchange, in which 49 is a responder, begins: its relay and its
        # sleep in the exchange overlap by 53,707 us
        (48, 48, {49: 53_707}),
        (47, 47, {}),
    ],
)
def test_overlapping_active_spans_are_counted(query, seed, clipped):
    g = grid_topology(12, 25.0)
    report = run_scenario(ScenarioConfig(topology=g, query_node=query, seed=seed))
    assert report.timeline.clipped_us == clipped
    coverage = timeline_coverage(report.timeline)
    assert set(coverage.values()) == {report.horizon_us}


def earlier_base_station_timeline(c, horizon):
    """The base station's train as it was built before: the preambles through
    `_fill_gaps` with listening in the gaps, then once more through the idle
    fill that every node's timeline passes."""
    polls = []
    k = 0
    while k * c.t_dr < horizon:
        polls.append((k * c.t_dr, min(k * c.t_dr + c.d_drp, horizon), "poll"))
        k += 1
    train = _fill_gaps(BS_ID, polls, 0, horizon, "listen")
    return _fill_gaps(BS_ID, [(s.start_us, s.end_us, s.state) for s in train], 0, horizon, "poll")


TRAIN_HORIZONS = pytest.mark.parametrize(
    "horizon",
    [
        0,
        1_000,  # before the first preamble ends
        C.d_drp,  # exactly at the first preamble's end
        3 * C.t_dr + 1_000,  # inside a preamble
        3 * C.t_dr + C.d_drp + 1_000,  # inside a listen stretch
        5 * C.t_dr,  # exactly on a period boundary
        298 * C.t_dr + 12_345,
    ],
)
TRAIN_CONSTANTS = pytest.mark.parametrize(
    "constants",
    [
        C,
        replace_constants(C, d_drp=0),
        replace_constants(C, d_drp=C.t_dr),
        replace_constants(C, d_drp=C.t_dr + 70_000),  # preambles overlap
    ],
    ids=["default", "no-preamble", "preamble-fills-period", "preambles-overlap"],
)


@TRAIN_HORIZONS
@TRAIN_CONSTANTS
def test_base_station_train_equals_the_gap_filled_one(constants, horizon):
    train = _base_station_timeline(constants, horizon)
    assert train == earlier_base_station_timeline(constants, horizon)
    assert timeline_coverage(train) == ({BS_ID: horizon} if horizon else {})


def state_totals(segments):
    totals = {}
    for s in segments:
        totals[s.state] = totals.get(s.state, 0) + s.end_us - s.start_us
    return totals


@TRAIN_HORIZONS
@TRAIN_CONSTANTS
def test_base_station_totals_equal_the_built_train(constants, horizon):
    train = _base_station_timeline(constants, horizon)
    assert _base_station_totals(constants, horizon) == (state_totals(train), len(train))


SPAN = st.tuples(st.integers(-50, 450), st.integers(0, 120), st.sampled_from(RADIO_STATES))


@given(
    spans=st.lists(SPAN, max_size=12),
    start=st.integers(-20, 100),
    length=st.integers(0, 300),
)
@example(spans=[(10, 0, "rx"), (40, 0, "tx")], start=0, length=100)  # zero-length, after the cursor
@example(spans=[(0, 50, "poll"), (20, 50, "tx"), (30, 10, "rx")], start=0, length=100)
@example(spans=[(-30, 20, "rx"), (90, 40, "tx"), (150, 5, "tx")], start=0, length=100)
def test_span_totals_equal_the_filled_segments(spans, start, length):
    end = start + length
    active = [(s, s + d, state) for s, d, state in spans]
    segments = _fill_gaps(7, active, start, end, "idle")  # an idle state no span has
    assert all(s.end_us > s.start_us for s in segments)
    # the clipped time is the active time inside [start, end] that no segment kept
    inside = sum(max(0, min(e, end) - max(s, start)) for s, e, _ in active)
    kept = sum(s.end_us - s.start_us for s in segments if s.state != "idle")
    assert _span_totals(active, start, end, "idle") == (
        state_totals(segments),
        len(segments),
        inside - kept,
    )


def test_sink_exactly_at_range_diagonally_off_a_corner_is_heard():
    g = grid_topology(3, 25.0)
    nodes = sorted(g.positions.items())
    box = _network_bbox(g)
    r2 = g.range_m**2
    # a 15-20-25 triangle off a corner node, outside the box in x and in y
    assert _hearers(nodes, box, r2, (-15.0, -20.0)) == [0]
    assert _hearers(nodes, box, r2, (70.0, 65.0)) == [8]
    assert _hearers(nodes, box, r2, (-15.0, -20.001)) == []
    assert _hearers(nodes, box, r2, (25.0, -25.0)) == [1]  # below the box, no x offset


# whole numbers make exact-range ties (Pythagorean offsets) likely
COORD = st.integers(-60, 60).map(float) | st.floats(-60.0, 60.0)
POINT = st.integers(-120, 120).map(float) | st.floats(-120.0, 120.0)


@given(
    positions=st.dictionaries(st.integers(0, 40), st.tuples(COORD, COORD), min_size=1, max_size=12),
    range_m=st.integers(0, 40).map(float) | st.floats(0.0, 40.0),
    point=st.tuples(POINT, POINT),
)
@example(positions={0: (0.0, 0.0), 1: (10.0, 10.0)}, range_m=5.0, point=(-3.0, -4.0))
@example(positions={3: (10.0, 10.0), 1: (0.0, 0.0)}, range_m=5.0, point=(14.0, 13.0))
def test_prefiltered_hearers_equal_the_in_range_scan(positions, range_m, point):
    topo = build_udg(positions, range_m)
    expected = [nid for nid in sorted(topo.positions) if topo.in_range(nid, point)]
    nodes = sorted(topo.positions.items())
    assert _hearers(nodes, _network_bbox(topo), topo.range_m**2, point) == expected


def test_scenario_config_errors():
    with pytest.raises(ConfigError):
        run_scenario(scenario_config(query_node=99))
    with pytest.raises(ConfigError):
        run_scenario(scenario_config(coord_mode="virtual"))
    with pytest.raises(ConfigError):
        run_scenario(scenario_config(coord_mode="warp"))


def test_discovered_graph_union():
    assert discovered_graph([]) == {}
    reports = [run_scenario(scenario_config(query_node=q, seed=50 + q)) for q in range(16)]
    graph = discovered_graph([r for r in reports if not r.miss])
    g = grid_topology(4, 25.0)
    assert graph == {nid: g.adjacency[nid] for nid in sorted(g.positions)}


def test_discovered_graph_single_report():
    report = run_scenario(scenario_config(query_node=0, seed=9))
    graph = discovered_graph([report])
    assert graph[0] == (1, 4)
    assert graph[1] == (0,)
    assert graph[4] == (0,)


# ---------------------------------------------------------------------------
# statistics and sweep points
# ---------------------------------------------------------------------------


def test_mean_ci_basics():
    mean, half = mean_ci([1.0, 1.0, 1.0])
    assert mean == 1.0
    assert half == 0.0
    mean, half = mean_ci([0.0, 2.0])
    assert mean == 1.0
    assert half == pytest.approx(12.7062047361747, rel=1e-13)  # t(0.975, 1) * 1
    assert math.isnan(mean_ci([])[0])


@pytest.mark.parametrize("p", (0.01, 0.3, 0.6, 0.9, 0.95, 0.975, 0.995))
def test_t_quantile_closed_forms(p):
    # tan(pi (p - 1/2)) itself loses digits as p nears 0 or 1, so p stays inside [0.01, 0.995]
    assert _t_quantile(p, 1) == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=1e-13)
    assert _t_quantile(p, 2) == pytest.approx((2 * p - 1) / math.sqrt(2 * p * (1 - p)), rel=1e-13)


@pytest.mark.parametrize("df", [1, 2, 3, 7, 30, 199, 9999, 1e5, 2.5])
def test_t_quantile_is_odd_about_one_half(df):
    assert _t_quantile(0.5, df) == 0.0
    for p in (0.6, 0.9, 0.95, 0.975, 0.995, 0.9999):
        assert _t_quantile(1 - p, df) == -_t_quantile(p, df)
        assert _t_quantile(p, df) > 0.0


def test_t_quantile_approaches_the_normal_quantile():
    z = NormalDist().inv_cdf(0.975)
    df = 1e8  # first Cornish-Fisher term; the next one is below 1e-16
    assert _t_quantile(0.975, df) == pytest.approx(z + (z**3 + z) / (4 * df), rel=1e-14)
    assert _t_quantile(0.975, 30) > _t_quantile(0.975, 300) > _t_quantile(0.975, 3000)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, float("nan")])
def test_t_quantile_rejects_p_outside_the_open_unit_interval(p):
    with pytest.raises(ValueError):
        _t_quantile(p, 10)


@pytest.mark.parametrize("df", [0, 0.5, -3, float("nan")])
def test_t_quantile_rejects_df_below_one(df):
    with pytest.raises(ValueError):
        _t_quantile(0.975, df)


def test_t_quantile_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    dfs = list(range(1, 301)) + sorted({round(10 ** (k / 8)) for k in range(20, 41)})
    worst = 0.0
    for p in (0.95, 0.975, 0.995):
        for df in dfs:
            expected = float(stats.t.ppf(p, df))
            worst = max(worst, abs(_t_quantile(p, df) - expected) / expected)
    assert worst <= 1e-12


def test_grid_point_smoke():
    pt = grid_point("edge", 4.0, 200, seed=5)
    assert pt.runs == 200
    assert 0.0 <= pt.miss_ratio <= 1.0
    assert pt.mean_hops > 0
    with pytest.raises(ValueError):
        grid_point("spiral", 4.0, 10, seed=5)


def test_random_graph_point_smoke():
    pt = random_graph_point(5, 10.0, 150, seed=6)
    assert pt.degree == 5
    assert pt.mean_restarts >= 0.0
    assert 0.0 <= pt.miss_ratio <= 1.0


# Recorded from the all-pairs topology build with a per-replication component
# BFS; the sweep must reproduce every field bit for bit.  The 30-run point,
# fewer runs than the 50 topologies, was recorded while every topology was
# still built.
PINNED_RANDOM_GRAPH_POINTS = {
    (4, 50, 30, 1): (
        0.26666666666666666, 0.5453945712353937, 2.6538461538461537, 1.754814268023123,
        0.13333333333333333,
    ),
    (7, 25, 60, 3): (0.0, 0.0, 17.107142857142858, 4.26612581848308, 0.06666666666666667),
    (4, 0, 60, 3): (0.0, 0.0, 4.431034482758621, 1.5777057368664746, 0.03333333333333333),
    (4, 50, 60, 3): (
        0.05, 0.07406539166837417, 4.2075471698113205, 1.7577514208941754, 0.11666666666666667
    ),
}


@pytest.mark.parametrize("args", sorted(PINNED_RANDOM_GRAPH_POINTS))
def test_random_graph_point_is_pinned(args):
    degree, speed, runs, seed = args
    pt = random_graph_point(degree, speed, runs, seed)
    assert (pt.mobility, pt.speed, pt.degree, pt.runs) == ("bounce", speed, degree, runs)
    restarts, restarts_ci, hops, hops_ci, miss = PINNED_RANDOM_GRAPH_POINTS[args]
    assert pt.mean_restarts == restarts
    assert pt.restarts_ci95 == restarts_ci
    assert pt.mean_hops == hops
    assert pt.hops_ci95 == hops_ci
    assert pt.miss_ratio == miss


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_random_graph_points_hold_from_a_cold_cache(order):
    scenario._SETUP_CACHE.clear()
    for args in sorted(PINNED_RANDOM_GRAPH_POINTS, reverse=order == "reversed"):
        pt = random_graph_point(*args)
        fields = (pt.mean_restarts, pt.restarts_ci95, pt.mean_hops, pt.hops_ci95, pt.miss_ratio)
        assert fields == PINNED_RANDOM_GRAPH_POINTS[args]
        assert len(scenario._SETUP_CACHE) == 1


def test_random_graph_set_up_reuse_matches_a_fresh_draw():
    # Each call differs from the one before it in one argument; the fields
    # and ranges chosen keep the node count of the default 1000 m / 200 m.
    wide = {"field": 1005.0}
    calls = [
        ((4, 10, 30, 5), {}),
        ((4, 50, 30, 5), {}),  # speed: the set-up is reused
        ((4, 50, 12, 5), {}),  # runs, fewer than topologies: only 12 are built
        ((4, 50, 12, 6), {}),  # seed
        ((4, 50, 12, 6), wide),  # field
        ((4, 50, 12, 6), {**wide, "range_m": 201.0}),  # range
        ((7, 50, 12, 6), {**wide, "range_m": 201.0}),  # degree
        ((7, 50, 12, 6), {**wide, "range_m": 201.0, "topologies": 3}),  # topologies
        ((7, 0, 12, 6), {**wide, "range_m": 201.0, "topologies": 3}),
        ((4, 25, 30, 5), {}),  # back to the first set-up
    ]
    interleaved = []
    for args, kwargs in calls:
        interleaved.append(random_graph_point(*args, **kwargs))
        assert len(scenario._SETUP_CACHE) == 1
    for (args, kwargs), pt in zip(calls, interleaved):
        scenario._SETUP_CACHE.clear()
        assert random_graph_point(*args, **kwargs) == pt


# Calls whose replications split unevenly over 2 and 3 workers, and counts
# below both the worker count and the default minimum slice.
WORKER_COUNT_CALLS = {
    "random-graph-37": lambda w: random_graph_point(4, 25, 37, 3, workers=w),
    "random-graph-2": lambda w: random_graph_point(5, 10, 2, 2, workers=w),
    "random-graph-static": lambda w: random_graph_point(7, 0, 41, 4, workers=w),
    "grid-virtual-250": lambda w: grid_point("edge", 4, 250, 9, workers=w),
    "grid-virtual-1": lambda w: grid_point("diagonal", 2, 1, 9, workers=w),
    "grid-physical-103": lambda w: grid_point("diagonal", 8, 103, 5, coord_mode="physical", workers=w),
    "grid-physical-5": lambda w: grid_point("edge", 1, 5, 5, coord_mode="physical", workers=w),
    "grid-crossing-301": lambda w: grid_crossing_hops(301, 4, workers=w),
    "grid-crossing-7": lambda w: grid_crossing_hops(7, 4, workers=w),
}


def _no_child_left():
    # Every worker was reaped: this process has no child at all.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.mark.parametrize("name", sorted(WORKER_COUNT_CALLS))
def test_sweep_points_do_not_depend_on_the_worker_count(name):
    call = WORKER_COUNT_CALLS[name]
    serial = call(1)
    for workers in (2, 3, None):
        assert call(workers) == serial
    assert _no_child_left()


# Recorded while the grid sweeps drew each replication's source and
# coordinate seed just before walking it, in one process.
PINNED_GRID_POINTS = {
    ("edge", 4, 250, 9, "virtual"): (
        0.0, 0.0, 7.919431279620853, 0.8556357329745711, 0.156,
    ),
    ("diagonal", 2, 120, 3, "virtual"): (
        0.008333333333333333, 0.016500832303807843, 11.725, 2.004624715710474, 0.0,
    ),
    ("diagonal", 8, 103, 5, "physical"): (
        0.0, 0.0, 2.2524271844660193, 0.31882099024055094, 0.0,
    ),
}


@pytest.mark.parametrize("workers", [1, 3])
def test_grid_points_are_pinned(workers):
    for (mobility, speed, runs, seed, mode), pinned in PINNED_GRID_POINTS.items():
        pt = grid_point(mobility, speed, runs, seed, coord_mode=mode, workers=workers)
        fields = (pt.mean_restarts, pt.restarts_ci95, pt.mean_hops, pt.hops_ci95, pt.miss_ratio)
        assert fields == pinned
    assert grid_crossing_hops(301, 4, workers=workers) == (8.643122676579926, 0.858149555686788)


@pytest.mark.parametrize("workers", [2, 3])
def test_pinned_points_hold_on_the_parallel_path_from_a_cold_cache(workers):
    scenario._SETUP_CACHE.clear()
    for args in sorted(PINNED_RANDOM_GRAPH_POINTS):
        pt = random_graph_point(*args, workers=workers)
        fields = (pt.mean_restarts, pt.restarts_ci95, pt.mean_hops, pt.hops_ci95, pt.miss_ratio)
        assert fields == PINNED_RANDOM_GRAPH_POINTS[args]


def test_a_child_error_is_raised_in_the_caller(monkeypatch):
    parent = os.getpid()
    real_route = scenario.route

    def route_failing_in_children(*args, **kwargs):
        if os.getpid() != parent:
            raise RoutingError("walk failed in a worker")
        return real_route(*args, **kwargs)

    monkeypatch.setattr(scenario, "route", route_failing_in_children)
    with pytest.raises(RoutingError, match="^walk failed in a worker$"):
        grid_point("edge", 4, 9, 1, workers=3)
    assert _no_child_left()


def test_a_caller_error_ends_the_children(monkeypatch):
    parent = os.getpid()
    real_route = scenario.route

    def route_failing_in_the_caller(*args, **kwargs):
        if os.getpid() == parent:
            raise RoutingError("walk failed in the caller")
        return real_route(*args, **kwargs)

    monkeypatch.setattr(scenario, "route", route_failing_in_the_caller)
    with pytest.raises(RoutingError, match="walk failed in the caller"):
        random_graph_point(4, 10, 30, 1, workers=2)
    assert _no_child_left()


@pytest.mark.parametrize(
    "call, argument",
    [
        (lambda: random_graph_point(4, 10, 0, 1), "runs"),
        (lambda: random_graph_point(4, 10, 20, 1, topologies=0), "topologies"),
        (lambda: random_graph_point(4, 10, 20, 1, field=0), "field"),
        (lambda: random_graph_point(4, 10, 20, 1, field=-1000.0), "field"),
        (lambda: random_graph_point(4, 10, 20, 1, range_m=0), "range_m"),
        (lambda: random_graph_point(4, 10, 20, 1, range_m=-200.0), "range_m"),
        (lambda: grid_point("edge", 2, 0, 1), "runs"),
        (lambda: grid_point("edge", 2, 10, 1, workers=0), "workers"),
    ],
    ids=[
        "random-graph-runs",
        "random-graph-topologies",
        "random-graph-zero-field",
        "random-graph-negative-field",
        "random-graph-zero-range",
        "random-graph-negative-range",
        "grid-runs",
        "grid-workers",
    ],
)
def test_sweep_points_reject_an_empty_count(call, argument):
    with pytest.raises(ValueError, match=argument):
        call()


def test_grid_crossing_reference_band():
    mean, half = grid_crossing_hops(1_500, seed=10)
    assert 7.5 <= mean <= 10.0
    assert half < 0.5
