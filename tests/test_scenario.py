import math

import pytest

from sinksim.core import DEFAULT_CONSTANTS
from sinksim.radio import build_udg, grid_topology
from sinksim.routing import HeaderOverflow, init_virtual_coords
from sinksim.scenario import (
    BS_ID,
    MS_ID,
    BounceTrack,
    ConfigError,
    LineTrack,
    ScenarioConfig,
    StaticSink,
    WaypointTrack,
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
    assert half > 0.0
    assert math.isnan(mean_ci([])[0])


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


def test_grid_crossing_reference_band():
    mean, half = grid_crossing_hops(1_500, seed=10)
    assert 7.5 <= mean <= 10.0
    assert half < 0.5
