import dataclasses
import hashlib
import math
import os
import random
from itertools import islice, repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fresh_python import run_python
from sinksim import flight, forkmap, radio, routing, scenario, timelines
from sinksim.core import DEFAULT_CONSTANTS
from sinksim.energy import integrate_timeline
from sinksim.flight import _hearers
from sinksim.flood import simulate_flood
from sinksim.forkmap import close_workers, default_workers
from sinksim.frames import MAX_ADDRESS_COUNT, DataPayload, ListOverflow, encode_data_payload
from sinksim.presets import GRID_FIELD_M, GRID_SIDE, MAX_NODES, discovered_graph
from sinksim.radio import RADIO_STATES, Timeline, build_udg, euclid, grid_topology, power_table
from sinksim.routing import HeaderOverflow, RoutingError, Tour, init_virtual_coords
from sinksim.scenario import (
    BS_ID,
    MAX_ROUND_TRIP_S,
    MS_ID,
    ConfigError,
    ScenarioConfig,
    grid_crossing_hops,
    grid_point,
    hop_exchange_timeline,
    nodes_for_degree,
    random_graph_point,
    run_scenario,
    timeline_coverage,
)
from sinksim.stats import mean_ci
from sinksim.timelines import _base_station_totals, _fill_gaps
from sinksim.tracks import WaypointTrack, _fold, bounce, line_crossing

C = DEFAULT_CONSTANTS


@pytest.fixture
def fresh_workers():
    """End the sweep workers before the test patches a name they look up,
    and after it: a worker runs the code as it stood when it was forked."""
    close_workers()
    yield
    close_workers()


@pytest.fixture
def workers(monkeypatch):
    """Set the count of processes a sweep point splits over; None restores
    the default."""

    def use(count):
        monkeypatch.setattr(forkmap, "default_workers", default_workers if count is None else lambda items: count)

    return use


# ---------------------------------------------------------------------------
# sink tracks
# ---------------------------------------------------------------------------


def test_bounce_reflects_at_the_border():
    # past either border the coordinate folds back inside and its direction
    # flips to point away from that border
    assert _fold(1020.0, 1, 1000.0) == (980.0, -1)
    assert _fold(-20.0, -1, 1000.0) == (20.0, 1)
    # a fold across both borders ends with the direction of the last bounce
    assert _fold(2030.0, 1, 1000.0) == (30.0, 1)
    assert _fold(-1030.0, -1, 1000.0) == (970.0, -1)


def test_bounce_zero_speed_stays_put():
    states = bounce((400.0, 600.0), 0.0, 1000.0, seed=1)
    assert list(islice(states, 6)) == [((400.0, 600.0), False)] * 6


def test_bounce_stays_inside_the_field():
    for (x, y), departed in islice(bounce((2.0, 998.0), 120.0, 1000.0, seed=5), 501):
        assert 0.0 <= x <= 1000.0 and 0.0 <= y <= 1000.0
        assert not departed


class ReferenceBounce:
    """The bounce as the sweeps stepped it before it became an iterator: a
    uniform draw of speed * random() per axis along a random diagonal
    direction, each coordinate past a border folded back with `fmod` and its
    direction sign flipped."""

    def __init__(self, position, speed_max, field_size, seed):
        self.position = (float(position[0]), float(position[1]))
        self.speed_max = float(speed_max)
        self.field_size = float(field_size)
        self.rng = random.Random(seed)
        self.direction = (self.rng.choice((-1, 1)), self.rng.choice((-1, 1)))

    def _reflect(self, value, sign):
        while not 0.0 <= value <= self.field_size:
            if not -self.field_size <= value <= 2 * self.field_size:
                value = math.fmod(value, 2 * self.field_size)
            if value > self.field_size:
                value = 2 * self.field_size - value
                sign = -1
            elif value < 0.0:
                value = -value
                sign = 1
        return value, sign

    def step(self):
        dx = self.speed_max * self.rng.random()
        dy = self.speed_max * self.rng.random()
        (x, y), (sx, sy) = self.position, self.direction
        x += sx * dx
        y += sy * dy
        if not 0.0 <= x <= self.field_size:
            x, sx = self._reflect(x, sx)
        if not 0.0 <= y <= self.field_size:
            y, sy = self._reflect(y, sy)
        self.position = (x, y)
        self.direction = (sx, sy)

    def states(self, rounds):
        """The position before the first round and after each of `rounds`."""
        positions = [self.position]
        for _ in range(rounds):
            self.step()
            positions.append(self.position)
        return [(position, False) for position in positions]


@st.composite
def bounce_cases(draw):
    field = draw(st.sampled_from([1000.0, 300.0, 100.0]) | st.floats(1e-3, 1e6))
    # start coordinates on a border, inside the field or outside it
    coord = st.sampled_from([0.0, field]) | st.floats(0.0, field) | st.floats(-3 * field, 4 * field)
    start = (draw(coord), draw(coord))
    speed = draw(st.sampled_from([0.0, 120.0, 1e300]) | st.floats(0.0, 1.0) | st.floats(0.0, 1e3))
    return start, speed, field, draw(st.integers(0, 2**31 - 1)), draw(st.integers(0, 60))


@given(bounce_cases())
@example(((1000.0, 500.0), 50.0, 1000.0, 8, 20))  # starts on a border
@example(((0.0, 0.0), 120.0, 1000.0, 3, 60))  # in a corner
@example(((500.0, 500.0), 1e300, 1000.0, 1, 40))  # folds whole periods at once
@example(((2.0, 998.0), 0.5, 1000.0, 5, 60))  # fractional
@example(((400.0, 600.0), 0.0, 1000.0, 1, 10))  # still
@example(((-2500.0, 4100.0), 7.0, 1000.0, 2, 10))  # off the field
def test_bounce_states_equal_the_reference_stepper(case):
    start, speed, field, seed, rounds = case
    got = list(islice(bounce(start, speed, field, seed=seed), rounds + 1))
    # bit for bit: a float's repr round-trips and tells -0.0 from 0.0
    assert repr(got) == repr(ReferenceBounce(start, speed, field, seed).states(rounds))


SPEED_PROBE = """
import sys
from itertools import islice
from sinksim.scenario import grid_point, random_graph_point
from sinksim.tracks import bounce, line_crossing

def bounced(v, x=500.0, field=1000.0):
    for position, _ in islice(bounce((x, 500.0), v, field, seed=1), 101):
        assert all(0.0 <= p <= field for p in position), position

calls = {
    "bounce": bounced,
    "random-graph": lambda v: random_graph_point(4, v, 3, 1),
    "grid-virtual": lambda v: grid_point("edge", v, 3, 1),
    "grid-physical": lambda v: grid_point("diagonal", v, 3, 1, coord_mode="physical"),
    "line": lambda v: line_crossing((0.0, 0.0), (100.0, 0.0), v, 1),
}
try:
    calls[sys.argv[1]](*map(float, sys.argv[2:]))
except ValueError as exc:
    print(exc)
"""


@pytest.mark.parametrize("speed", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("call", ["bounce", "random-graph", "grid-virtual", "grid-physical", "line"])
def test_speeds_that_are_negative_or_not_finite_are_rejected(call, speed):
    # A fresh interpreter under a timeout: a non-finite drift used to bounce
    # off the borders forever.
    proc = run_python(
        ["-c", SPEED_PROBE, call, speed],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert proc.stdout.startswith("speed must be finite and >= 0")


@pytest.mark.parametrize("call", ["bounce", "random-graph", "grid-virtual", "grid-physical", "line"])
def test_a_huge_finite_speed_ends_inside_the_field(call):
    # The bounce reflected one field width per pass, and at 1e300, where
    # 2 * field - value rounds to -value, it never came back inside.
    proc = run_python(
        ["-c", SPEED_PROBE, call, "1e300"],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "x, field, message",
    [
        ("nan", "1000", "start must be finite"),
        ("inf", "1000", "start must be finite"),
        ("500", "nan", "field size must be finite and > 0"),
        ("500", "-5", "field size must be finite and > 0"),
        ("500", "0", "field size must be finite and > 0"),
        ("500", "inf", "field size must be finite and > 0"),
    ],
)
def test_a_bounce_that_would_never_fold_back_is_rejected(x, field, message):
    # A start or a field size that is not finite, or a field that is not
    # > 0, kept the fold looping forever; a fresh interpreter under a timeout.
    proc = run_python(
        ["-c", SPEED_PROBE, "bounce", "1", x, field],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert proc.stdout.startswith(message)


def test_edge_line_exits_after_four_rounds():
    positions, departed = map(list, zip(*line_crossing((0.0, 0.0), (100.0, 0.0), 25.0, 4)))
    assert departed == [False, False, False, False, True]
    assert positions[-1] == (100.0, 0.0)


def test_diagonal_line_geometry():
    positions, departed = map(list, zip(*line_crossing((0.0, 0.0), (100.0, 100.0), 10.0, 15)))
    # 10 of a length of 100 * sqrt(2) per round: the far corner after 15 rounds
    assert departed.index(True) == math.ceil(100.0 * math.sqrt(2) / 10.0) == 15
    assert positions[1][0] == pytest.approx(positions[1][1])
    assert positions[1][0] == pytest.approx(10.0 / math.sqrt(2))
    assert positions[-1] == (100.0, 100.0)


def reference_line(start, end, speed, steps):
    """(position, departed) before and after each step, by the formula the
    line track was first written with, deltas taken anew at every step."""
    start, end, speed = (float(start[0]), float(start[1])), (float(end[0]), float(end[1])), float(speed)
    length = euclid(start, end)
    traveled, position, departed = 0.0, start, length == 0.0
    states = [(position, departed)]
    for _ in range(steps):
        traveled += speed
        frac = min(traveled / length, 1.0) if length else 1.0
        position = (
            start[0] + (end[0] - start[0]) * frac,
            start[1] + (end[1] - start[1]) * frac,
        )
        if traveled >= length:
            departed = True
        states.append((position, departed))
    return states


LINE_COORD = st.integers(-200, 200) | st.floats(-1e4, 1e4)


@given(
    start=st.tuples(LINE_COORD, LINE_COORD),
    end=st.tuples(LINE_COORD, LINE_COORD),
    speed=st.integers(0, 50) | st.floats(0.0, 1e3),
    steps=st.integers(0, 40),
)
@example(start=(0.0, 0.0), end=(100.0, 0.0), speed=4.0, steps=30)  # edge
@example(start=(0.0, 0.0), end=(100.0, 100.0), speed=3.0, steps=50)  # diagonal
@example(start=(5.0, -3.0), end=(5.0, -3.0), speed=2.0, steps=3)  # zero length
@example(start=(0.0, 0.0), end=(100.0, 100.0), speed=0.1, steps=40)  # fractional
@example(start=(0.0, 0.0), end=(100.0, 0.0), speed=0.7, steps=40)
@example(start=(0.0, 0.0), end=(10.0, 0.0), speed=3.0, steps=8)  # overshoots the far end
@example(start=(0.0, 0.0), end=(100.0, 0.0), speed=0.0, steps=5)
def test_line_track_steps_equal_the_reference_formula(start, end, speed, steps):
    # bit for bit: a float's repr round-trips
    assert repr(line_crossing(start, end, speed, steps)) == repr(reference_line(start, end, speed, steps))


# The ends of the grid sweeps' two crossings, which start at the origin.
CROSSING_ENDS = {"edge_line": (GRID_FIELD_M, 0.0), "diagonal_line": (GRID_FIELD_M, GRID_FIELD_M)}


@pytest.mark.parametrize("speed", [0.7, 1, 3, 4, 8])
@pytest.mark.parametrize("crossing", CROSSING_ENDS)
def test_a_replayed_crossing_is_the_line_track_stepped(crossing, speed):
    # Every walk of a grid point iterates the one recording: each iteration
    # reads the line track stepped, bit for bit, and ends after the round
    # limit's last state.
    limit = 4 * GRID_SIDE**2  # the grid sweeps' round limit
    end = CROSSING_ENDS[crossing]
    recording = line_crossing((0.0, 0.0), end, speed, limit)
    expected = repr(reference_line((0.0, 0.0), end, speed, limit))
    for _ in range(2):
        states = iter(recording)
        assert repr(list(islice(states, limit + 1))) == expected
        with pytest.raises(StopIteration):
            next(states)


def test_the_grid_sweeps_make_one_line_track_per_crossing(fresh_workers, monkeypatch, workers):
    made = []

    def counted(start, end, speed, steps):
        made.append((start, end, speed))
        return line_crossing(start, end, speed, steps)

    monkeypatch.setattr(scenario, "line_crossing", counted)
    for count, point in (
        (1, lambda: grid_point("edge", 3, 250, 1)),
        (1, lambda: grid_point("diagonal", 0.7, 120, 2, coord_mode="physical")),
        (2, lambda: grid_point("diagonal", 4, 101, 3)),
    ):
        workers(count)
        made.clear()
        point()
        assert len(made) == 1
    made.clear()
    grid_crossing_hops(301, 4)
    assert sorted(end for _, end, _ in made) == [(GRID_FIELD_M, 0.0), (GRID_FIELD_M, GRID_FIELD_M)]


def test_static_sink_never_moves():
    # The random-graph sweep walks against one repeated state at speed 0
    # instead of a bounce that draws and stays put: the walks are the same.
    rnd = random.Random(4)
    for _ in range(30):
        n = rnd.randrange(2, 40)
        topo = build_udg({i: (rnd.uniform(0, 300), rnd.uniform(0, 300)) for i in range(n)}, 60.0)
        start = (rnd.uniform(0, 300), rnd.uniform(0, 300))
        source, dest = rnd.randrange(n), (150.0, 150.0)
        still = bounce(start, 0.0, 300.0, seed=rnd.randrange(100))
        static = repeat((start, False))
        walks = [routing.route(topo, topo.positions, source, sink, sink_coord=dest) for sink in (still, static)]
        assert walks[0] == walks[1]


def test_waypoint_track_positions():
    track = WaypointTrack([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)], speed_mps=1.0)
    assert track.total_length == pytest.approx(20.0)
    assert track.position_at(0) == (0.0, 0.0)
    assert track.position_at(5_000_000) == (5.0, 0.0)
    assert track.position_at(15_000_000) == (10.0, 5.0)
    assert track.position_at(10**9) == (10.0, 10.0)
    with pytest.raises(ValueError):
        WaypointTrack([(0.0, 0.0), (1.0, 0.0)], speed_mps=0.0)


def position_by_scan(track, dt_us):
    """WaypointTrack.position_at as it was: a walk from the first segment."""
    d = track.distance_at(dt_us)
    for i in range(len(track.points) - 1):
        if d <= track.cum[i + 1] or i == len(track.points) - 2:
            seg = track.cum[i + 1] - track.cum[i]
            frac = (d - track.cum[i]) / seg if seg else 1.0
            frac = min(max(frac, 0.0), 1.0)
            ax, ay = track.points[i]
            bx, by = track.points[i + 1]
            return (ax + (bx - ax) * frac, ay + (by - ay) * frac)
    return track.points[-1]


def test_waypoint_positions_equal_the_scan_from_the_start():
    # Zero-length segments first, in the middle and last.  Two segments end
    # where a + (b - a) * 1.0 rounds away from b, so a scan that takes the
    # segment after an end instead of the one before reads another float.
    track = WaypointTrack(
        [(0.1, 0.7), (0.1, 0.7), (0.3, 0.1), (0.3, 0.1), (0.7, 0.9), (1.3, 0.2), (1.3, 0.2)],
        speed_mps=7.0,
    )
    times = list(range(-10_000, 400_000, 997))
    for end in track.cum:
        t = end * 1e6 / 7.0
        near = [t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf)]
        exact = [t for t in near if track.distance_at(t) == end]
        assert exact  # the end itself is sampled
        times += near
    # the six-phase run's track over the benchmark grid
    flight = WaypointTrack([(-80.0, 37.5), (0.0, 137.5), (275.0, 137.5), (-80.0, 37.5)], 7.0)
    rng = random.Random(3)
    samples = [(track, t) for t in times]
    samples += [(flight, rng.randrange(flight.duration_us() + 10**6)) for _ in range(2_000)]
    for track, t in samples:
        assert repr(track.position_at(t)) == repr(position_by_scan(track, t))


@pytest.mark.parametrize(
    "points, speed",
    [
        ([(0.0, 0.0), (1.0, 0.0)], math.nan),
        ([(0.0, 0.0), (1.0, 0.0)], math.inf),
        ([(0.0, 0.0), (math.nan, 0.0)], 1.0),
        ([(0.0, 0.0), (math.inf, 0.0)], 1.0),
    ],
)
def test_waypoint_track_rejects_what_would_never_arrive(points, speed):
    # A sink whose flight has no finite length or duration flew a million
    # request retries before the rotation gave up.
    with pytest.raises(ValueError):
        WaypointTrack(points, speed_mps=speed)


# ---------------------------------------------------------------------------
# hop exchange timeline
# ---------------------------------------------------------------------------


def test_hop_timeline_partitions_the_exchange():
    responders = [(1, 2_000), (2, 8_000), (3, 20_000)]
    spans = hop_exchange_timeline(C, 0, responders, data_target=2, t0=0)
    window = C.d_rrp + C.w_rr + C.d_data
    assert timeline_coverage(spans) == {0: window, 1: window, 2: window, 3: window}


def test_hop_timeline_listen_budget():
    responders = [(1, 1_000), (2, 9_000)]
    spans = hop_exchange_timeline(C, 0, responders, data_target=1, t0=0)
    listen = sum(e - s for s, e, state in spans[0] if state == "listen")
    rx = sum(e - s for s, e, state in spans[0] if state == "rx")
    assert listen == C.w_rr - 2 * C.d_ack
    assert rx == 2 * C.d_ack
    target_rx = sum(e - s for s, e, state in spans[1] if state == "rx")
    assert target_rx == C.d_cca + C.d_data


def test_hop_timeline_merges_overlapping_acks():
    responders = [(1, 1_000), (2, 1_100)]  # ACKs overlap on the air
    spans = hop_exchange_timeline(C, 0, responders, data_target=None, t0=0)
    timeline_coverage(spans)  # must not raise


def test_hop_timeline_without_ack_time_has_no_empty_segments():
    c = dataclasses.replace(C, d_ack=0)
    spans = hop_exchange_timeline(c, 0, [(1, 2_000), (2, 8_000)], data_target=2, t0=0)
    assert all(e > s for node_spans in spans.values() for s, e, _ in node_spans)
    # the sender listens through the whole window, the responders sleep
    # through it, and no ACK leaves a trace
    assert [(state, s, e) for s, e, state in spans[0]] == [
        ("poll", 0, c.d_rrp),
        ("listen", c.d_rrp, c.d_rrp + c.w_rr),
        ("tx", c.d_rrp + c.w_rr, c.d_rrp + c.w_rr + c.d_data),
    ]
    assert not any(state == "tx" for node in (1, 2) for _, _, state in spans[node])
    window = c.d_rrp + c.w_rr + c.d_data
    assert timeline_coverage(spans) == {0: window, 1: window, 2: window}


def gap_filled_exchange(c, sender, responders, data_target, t0, cca_offsets):
    """A hop exchange as it was built before its spans were written filled:
    each node's active spans through `_fill_gaps`."""
    t_win = t0 + c.d_rrp
    t_data = t_win + c.w_rr
    t_end = t_data + (c.d_data if data_target is not None else 0)
    rx_spans = []
    for s, e in sorted((t_win + b, t_win + b + c.d_ack) for _, b in responders):
        e = min(e, t_data)
        if s >= t_data:
            continue
        if rx_spans and s <= rx_spans[-1][1]:
            rx_spans[-1] = (rx_spans[-1][0], max(rx_spans[-1][1], e))
        else:
            rx_spans.append((s, e))
    active = [(t0, t_win, "poll")] + [(s, e, "rx") for s, e in rx_spans]
    if data_target is not None:
        active.append((t_data, t_end, "tx"))
    timeline = {sender: _fill_gaps(active, t0, t_end, "listen")[0]}
    for node, backoff in responders:
        offset = min(max(cca_offsets.get(node, 0), 0), c.d_rrp - c.d_cca)
        active = [(t0 + offset, t0 + offset + c.d_cca, "rx")]
        active.append((t_win + backoff, t_win + backoff + c.d_ack, "tx"))
        if node == data_target:
            active.append((t_data, t_end, "rx"))
        timeline.setdefault(node, []).extend(_fill_gaps(active, t0, t_end, "sleep")[0])
    return timeline


EXCHANGE_CONSTANTS = st.fixed_dictionaries({
    "d_rrp": st.integers(0, 3_000),
    "d_cca": st.integers(0, 3_000),
    "w_rr": st.integers(0, 3_000),
    "d_ack": st.integers(0, 1_000),
    "d_data": st.integers(0, 2_000),
})


@given(constants=EXCHANGE_CONSTANTS, data=st.data())
@example(constants=dict(d_rrp=1_000, d_cca=200, w_rr=3_000, d_ack=0, d_data=500), data=None)
@example(constants=dict(d_rrp=1_000, d_cca=200, w_rr=0, d_ack=100, d_data=500), data=None)
@example(constants=dict(d_rrp=1_000, d_cca=200, w_rr=300, d_ack=480, d_data=500), data=None)
@example(constants=dict(d_rrp=1_000, d_cca=1_000, w_rr=3_000, d_ack=100, d_data=500), data=None)
@example(constants=dict(d_rrp=0, d_cca=0, w_rr=0, d_ack=0, d_data=0), data=None)
def test_written_exchange_spans_equal_the_gap_filled_ones(constants, data):
    c = dataclasses.replace(C, **constants)
    if data is None:
        # an explicit example: responders at each end of the window and one
        # before it, which no metric gives
        t0, target_kind = 5_000, "neighbor"
        responders = [(1, 0), (2, c.w_rr), (3, c.w_rr // 2), (4, max(0, c.w_rr - c.d_ack)), (5, -50)]
        cca = {1: 0, 2: c.d_rrp - c.d_cca, 3: c.d_rrp, 4: -1}
    else:
        t0 = data.draw(st.integers(0, 10**7), label="t0")
        nodes = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=6, unique=True), label="nodes")
        responders = [(n, data.draw(st.integers(0, c.w_rr), label=f"backoff {n}")) for n in nodes]
        cca = {
            n: data.draw(st.integers(-10, c.d_rrp + 10), label=f"cca {n}")
            for n in nodes
            if data.draw(st.booleans(), label=f"has cca {n}")
        }
        target_kind = data.draw(st.sampled_from(["none", "neighbor", "sink"]), label="target")
    target = {"none": None, "neighbor": responders[0][0], "sink": MS_ID}[target_kind]
    if target == MS_ID:  # the sink answers at once, as in the delivering exchange
        responders.append((MS_ID, 0))
    written = hop_exchange_timeline(c, 0, list(responders), target, t0, dict(cca))
    expected = gap_filled_exchange(c, 0, responders, target, t0, cca)
    assert list(written.items()) == list(expected.items())


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
        (s, e) for s, e, state in report.timeline.spans()[MS_ID] if state == "rx" and e - s == C.d_data
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
        virtual_coords=vc,
        ms_virtual_coord=(175.0, 175.0),
    )
    with pytest.raises(HeaderOverflow):
        run_scenario(cfg)


def test_scenario_bounds_the_answer_with_the_source_neighbors(fresh_workers, monkeypatch):
    # From corner node 210 (2 neighbors) on these coordinates the walk
    # reaches the sink with 117 ids traversed: with the neighbors, one more
    # than the DATA payload holds.  The bound counts the neighbors, 116 here.
    g = grid_topology(15, 25.0)
    vc = init_virtual_coords(g, 10, ((0, 350), (0, 350)))
    cfg = scenario_config(topology=g, query_node=210, seed=10, virtual_coords=vc, ms_virtual_coord=(175.0, 175.0))
    with pytest.raises(HeaderOverflow, match="exceed 116 ids"):
        run_scenario(cfg)
    # Bounded on the traversed list alone, the walk delivers an answer that
    # no DATA frame can carry.
    walk = scenario.route
    monkeypatch.setattr(scenario, "route", lambda *a, **kw: walk(*a, **{**kw, "max_traversed": MAX_ADDRESS_COUNT}))
    report = run_scenario(cfg)
    assert report.route.delivered and report.route.restarts == 0
    traversed = list(dict.fromkeys(report.route.path[:-1]))
    assert (len(traversed), len(report.neighbors)) == (117, 2)
    with pytest.raises(ListOverflow):
        encode_data_payload(DataPayload(traversed, report.neighbors))


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


def segments(view):
    """A timeline view's spans as the (node, state, start, end) rows that
    the pins were recorded from."""
    return [(nid, state, s, e) for nid, spans in view.spans().items() for s, e, state in spans]


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
        virtual=True,
        config=dict(query_node=21, seed=4),
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
    if pinned.get("virtual"):
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
    rows = segments(report.timeline)
    assert (len(rows), sha256(rows)) == pinned["segments"]
    transmissions = report.flood.transmissions
    assert (len(transmissions), sha256(transmissions)) == pinned["transmissions"]
    energy = integrate_timeline(report.timeline, power_table(-25))
    assert sha256(sorted(energy.items())) == pinned["energy"]


def clipping_rotation():
    """The rotation of the benchmark grid whose node 49 clips 53,707 us (see
    test_overlapping_active_spans_are_counted)."""
    return run_scenario(ScenarioConfig(topology=grid_topology(12, 25.0), query_node=48, seed=48))


@pytest.mark.parametrize("name", [*sorted(PINNED_ROTATIONS), "clipping"])
def test_timeline_view_agrees_with_its_segments(name):
    report = clipping_rotation() if name == "clipping" else run_pinned(name)
    side = 12 if name == "clipping" else PINNED_ROTATIONS[name]["side"]
    view = report.timeline
    assert isinstance(view, Timeline)
    spans = view.spans()
    # the base station, the sink, then the node ids ascending
    assert list(spans) == [BS_ID, MS_ID, *range(side**2)]
    assert sum(map(len, spans.values())) == len(view)
    for nid, node_spans in spans.items():
        # in key order too: the energy adds the states in that order
        assert list(view.totals[nid].items()) == list(radio.state_totals(node_spans).items())
    assert view.clipped_us == ({49: 53_707} if name == "clipping" else {})
    assert timeline_coverage(view) == timeline_coverage(spans)
    for dbm in (0, -25):
        powers = power_table(dbm)
        by_span = {
            nid: sum((e - s) / 1e6 * powers.power_mw(state) for s, e, state in node_spans)
            for nid, node_spans in spans.items()
        }
        energy = integrate_timeline(view, powers)
        assert energy.keys() == by_span.keys()
        for node, e in energy.items():
            assert e == pytest.approx(by_span[node], rel=1e-12, abs=0)


def test_a_rotation_fills_spans_only_when_they_are_asked_for(monkeypatch):
    involved = exchange_nodes(monkeypatch)
    report = run_pinned("collisions")
    calls = []
    fill = timelines._fill_gaps

    def counting_fill(*args, **kwargs):
        calls.append(args)
        return fill(*args, **kwargs)

    monkeypatch.setattr(timelines, "_fill_gaps", counting_fill)
    view = report.timeline
    integrate_timeline(view, power_table(0))
    timeline_coverage(view)
    assert calls == []
    spans = view.spans()
    outside = set(range(PINNED_ROTATIONS["collisions"]["side"] ** 2)) - involved
    assert 0 < len(outside) and len(calls) == 1 + len(outside)
    assert sum(map(len, spans.values())) == len(view) == PINNED_ROTATIONS["collisions"]["segments"][0]


# Recorded before timelines were assembled from per-node spans: every
# rotation of the benchmark grid (12x12 at 25 m, seed = query node, without
# and with collisions), its phase times, horizon, segment count, clipped
# time and 0 dBm energies, or the ConfigError that ended it.
GRID_ROTATIONS_SHA256 = "618b5a15361a67eb2c0da99cb297f0db5fd2dc7dfbc42c0a2f83ff41268989e4"


def test_benchmark_grid_rotations_are_pinned():
    g = grid_topology(12, 25.0)
    powers = power_table(0)
    rows = []
    for query in sorted(g.positions):
        for collisions in (False, True):
            config = ScenarioConfig(topology=g, query_node=query, seed=query, collisions=collisions)
            try:
                report = run_scenario(config)
            except ConfigError as exc:
                rows.append((query, collisions, str(exc)))
                continue
            view = report.timeline
            rows.append((
                query, collisions, sorted(report.phase_times_us.items()), report.horizon_us,
                len(view), sorted(view.clipped_us.items()),
                sorted(integrate_timeline(view, powers).items()),
            ))
    assert sum(len(row) == 3 for row in rows) == 34  # the flood misses the queried node
    assert sha256(rows) == GRID_ROTATIONS_SHA256


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


def exchange_nodes(monkeypatch):
    """The set that collects every node a hop exchange involves, once
    `scenario.hop_exchange_timeline` is wrapped to fill it."""
    involved = set()
    exchange = scenario.hop_exchange_timeline

    def recording(*args, **kwargs):
        timeline = exchange(*args, **kwargs)
        involved.update(timeline)
        return timeline

    monkeypatch.setattr(scenario, "hop_exchange_timeline", recording)
    return involved


@pytest.mark.parametrize(
    "overrides, kinds",
    [
        # a sink too fast to be caught: the horizon is where the walk gave up
        (dict(query_node=0, ms_speed_mps=45.0), {"missed", "relay"}),
        # one round only (the walk's round_limit): the horizon falls inside
        # some relays and before others
        (
            dict(query_node=0, collisions=True, round_limit=1),
            {"missed", "relay", "relay crosses the horizon", "relay after the horizon", "no span"},
        ),
        # nodes that lost every copy of the query to collisions hold no span
        (dict(query_node=1, collisions=True), {"relay", "no span"}),
    ],
)
def test_relay_only_nodes_in_closed_form_equal_their_fill(fresh_workers, monkeypatch, overrides, kinds):
    g = grid_topology(12, 25.0)
    involved = exchange_nodes(monkeypatch)
    overrides = dict(overrides)
    if "round_limit" in overrides:
        walk, limit = scenario.route, overrides.pop("round_limit")
        monkeypatch.setattr(scenario, "route", lambda *a, **kw: walk(*a, **{**kw, "round_limit": limit}))
    report = run_scenario(ScenarioConfig(topology=g, seed=overrides["query_node"], **overrides))
    horizon, view, flood = report.horizon_us, report.timeline, report.flood
    relay_start = dict(flood.transmissions)
    spans = view.spans()
    assert len(view) == sum(map(len, spans.values()))
    seen = {"missed"} if report.miss else set()
    for nid in set(g.positions) - involved:
        relay = []
        if nid in relay_start:
            start = relay_start[nid]
            end = start + C.d_brp
            relay = [(start, end, "poll")]
            seen.add("relay")
            if start < horizon < end:
                seen.add("relay crosses the horizon")
            if start >= horizon:
                seen.add("relay after the horizon")
        else:
            seen.add("no span")
        filled, totals, clipped = _fill_gaps(relay, 0, horizon, "poll")
        assert list(view.totals[nid].items()) == list(totals.items())
        assert spans[nid] == filled
        assert nid not in view.clipped_us and clipped == 0
    assert seen == kinds


@st.composite
def synthetic_rotations(draw):
    """(d_brp, horizon, active, relay_start, ids) of a made-up rotation: relay
    starts from 0 to past the horizon, in any order, and some nodes with
    active spans of their own."""
    d_brp = draw(st.integers(0, 300_000))
    horizon = draw(st.integers(0, 1_000_000))
    ids = list(range(draw(st.integers(0, 8))))
    edges = sorted({0, max(0, horizon - d_brp), horizon, horizon + 1})
    start = st.integers(0, 1_300_000) | st.sampled_from(edges)
    relay_start = draw(st.dictionaries(st.sampled_from(ids), start)) if ids else {}
    span = st.tuples(st.integers(-1_000, 1_100_000), st.integers(0, 200_000), st.sampled_from(RADIO_STATES))
    active = draw(st.dictionaries(st.sampled_from([MS_ID, *ids]), st.lists(span, max_size=4)))
    active = {nid: [(s, s + d, state) for s, d, state in spans] for nid, spans in active.items()}
    return d_brp, horizon, active, relay_start, ids


EDGE_RELAYS = (
    # relays at 0, ending exactly at the horizon, crossing it, after it and
    # at it; node 1 also takes part in an exchange
    500_000,
    {MS_ID: [(100, 580, "tx")], 1: [(300_000, 310_000, "rx")]},
    {0: 0, 1: 356_000, 2: 400_000, 3: 500_001, 4: 500_000, 5: 0},
    list(range(7)),
)


@given(case=synthetic_rotations())
@example(case=(C.d_brp, *EDGE_RELAYS))
@example(case=(0, *EDGE_RELAYS))
@example(case=(C.d_brp, 0, {MS_ID: []}, {0: 0, 1: 5}, [0, 1, 2]))
def test_a_rotation_counts_the_spans_it_builds(case):
    d_brp, horizon, active, relay_start, ids = case
    view = timelines.rotation_timeline(
        dataclasses.replace(C, d_brp=d_brp), horizon, active, relay_start, ids
    )
    spans = view.spans()
    assert list(view.totals) == list(spans) == [BS_ID, MS_ID, *ids]
    assert len(view) == sum(map(len, spans.values()))
    for nid, node_spans in spans.items():
        assert list(view.totals[nid].items()) == list(radio.state_totals(node_spans).items())


def shared_totals_view():
    """A view whose nodes 0, 2 and 3 share one mapping of three states."""
    shared = {"sleep": 123_457, "poll": 987_654_321, "rx": 7}
    totals = {BS_ID: {"listen": 5, "poll": 3}, 0: shared, 1: {"rx": 5, "poll": 9}, 2: shared, 3: shared}
    return Timeline(totals, {}, dict)


@pytest.mark.parametrize("name", ["loss-free", "synthetic"])
def test_nodes_sharing_one_totals_mapping_price_as_their_copies(name):
    view = run_pinned(name).timeline if name == "loss-free" else shared_totals_view()
    assert len({id(states) for states in view.totals.values()}) < len(view.totals)
    before = {nid: list(states.items()) for nid, states in view.totals.items()}
    copies = Timeline({nid: dict(states) for nid, states in view.totals.items()}, view.clipped_us, view.spans)
    for dbm in (0, -25):
        powers = power_table(dbm)
        energy = integrate_timeline(view, powers)
        assert list(energy.items()) == list(integrate_timeline(copies, powers).items())
    assert list(timeline_coverage(view).items()) == list(timeline_coverage(copies).items())
    assert {nid: list(states.items()) for nid, states in view.totals.items()} == before


def test_each_exchange_and_each_backoff_goes_through_its_traced_name(monkeypatch):
    # The traced benchmark wraps these two module attributes; a kernel that
    # stopped calling them there would leave its layers empty.
    g = grid_topology(12, 25.0)
    senders, backoffs = [], []
    exchange, backoff = scenario.hop_exchange_timeline, scenario.ack_backoff

    def counting_exchange(c, sender, *args, **kwargs):
        senders.append(sender)
        return exchange(c, sender, *args, **kwargs)

    def counting_backoff(*args, **kwargs):
        backoffs.append(args)
        return backoff(*args, **kwargs)

    monkeypatch.setattr(scenario, "hop_exchange_timeline", counting_exchange)
    monkeypatch.setattr(scenario, "ack_backoff", counting_backoff)
    report = run_scenario(ScenarioConfig(topology=g, query_node=40, seed=40))
    route = report.route
    assert route.delivered and route.hops > 1
    # one exchange per moving round, forward, backtrack or the delivery, sent
    # by the node that holds the packet; one backoff per neighbor answering it
    assert senders == route.path
    assert len(backoffs) == sum(len(g.adjacency[nid]) for nid in route.path)


@pytest.mark.parametrize(
    "d_rrp", [C.d_rrp, C.d_cca, C.d_cca + 1_023], ids=["default", "window-1", "window-1024"]
)
def test_channel_check_offsets_are_the_randrange_stream(monkeypatch, d_rrp):
    # The rotation's own generator draws phase 1's channel-check offset, the
    # flood's seed, then one offset per responder of each hop exchange in
    # ascending id order, each uniform in [0, d_rrp - d_cca].
    c = dataclasses.replace(C, d_rrp=d_rrp)
    exchanges = []
    exchange = scenario.hop_exchange_timeline

    def capturing_exchange(c, sender, responders, target, t0, cca_offsets):
        exchanges.append(([nid for nid, _ in responders], cca_offsets))
        return exchange(c, sender, responders, target, t0, cca_offsets)

    monkeypatch.setattr(scenario, "hop_exchange_timeline", capturing_exchange)
    report = run_scenario(ScenarioConfig(topology=grid_topology(12, 25.0), query_node=40, seed=40, constants=c))
    # one exchange per hop and the delivering one
    assert report.route.delivered and len(exchanges) == len(report.route.path) > 2
    rng = random.Random(40)
    rng.randrange(c.t_cca)
    rng.randrange(2**31)
    for responders, offsets in exchanges:
        expected = [(nid, rng.randrange(d_rrp - c.d_cca + 1)) for nid in sorted(responders)]
        assert list(offsets.items()) == expected


def base_station_train(c, horizon):
    """The base station's train as a rotation's timeline view builds it: a
    preamble every t_dr through `_fill_gaps`, listening in the gaps."""
    polls = [(k, k + c.d_drp, "poll") for k in range(0, horizon, c.t_dr)]
    return _fill_gaps(polls, 0, horizon, "listen")[0]


def earlier_base_station_timeline(c, horizon):
    """The base station's train as it was built before: the preambles through
    `_fill_gaps` with listening in the gaps, then once more through the idle
    fill that every node's timeline passes."""
    polls = []
    k = 0
    while k * c.t_dr < horizon:
        polls.append((k * c.t_dr, min(k * c.t_dr + c.d_drp, horizon), "poll"))
        k += 1
    train = _fill_gaps(polls, 0, horizon, "listen")[0]
    return _fill_gaps(train, 0, horizon, "poll")[0]


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
        dataclasses.replace(C, d_drp=0),
        dataclasses.replace(C, d_drp=C.t_dr),
        dataclasses.replace(C, d_drp=C.t_dr + 70_000),  # preambles overlap
    ],
    ids=["default", "no-preamble", "preamble-fills-period", "preambles-overlap"],
)


@TRAIN_HORIZONS
@TRAIN_CONSTANTS
def test_base_station_train_equals_the_gap_filled_one(constants, horizon):
    train = base_station_train(constants, horizon)
    assert train == earlier_base_station_timeline(constants, horizon)
    assert timeline_coverage({BS_ID: train} if train else {}) == (
        {BS_ID: horizon} if horizon else {}
    )


def state_totals(spans):
    totals = {}
    for s, e, state in spans:
        totals[state] = totals.get(state, 0) + e - s
    return totals


@TRAIN_HORIZONS
@TRAIN_CONSTANTS
def test_base_station_totals_equal_the_built_train(constants, horizon):
    train = base_station_train(constants, horizon)
    totals = _base_station_totals(constants, horizon)
    assert list(totals.items()) == list(state_totals(train).items())


SPAN = st.tuples(st.integers(-50, 450), st.integers(0, 120), st.sampled_from(RADIO_STATES))


@given(
    spans=st.lists(SPAN, max_size=12),
    start=st.integers(-20, 100),
    length=st.integers(0, 300),
)
@example(spans=[(10, 0, "rx"), (40, 0, "tx")], start=0, length=100)  # zero-length, after the cursor
@example(spans=[(0, 50, "poll"), (20, 50, "tx"), (30, 10, "rx")], start=0, length=100)
@example(spans=[(-30, 20, "rx"), (90, 40, "tx"), (150, 5, "tx")], start=0, length=100)
def test_fill_gaps_covers_the_window_and_counts_what_it_clips(spans, start, length):
    end = start + length
    active = [(s, s + d, state) for s, d, state in spans]
    filled, totals, clipped = _fill_gaps(active, start, end, "idle")  # an idle state no span has
    assert all(e > s for s, e, _ in filled)
    # the totals added up during the fill, keyed in the same order
    assert list(totals.items()) == list(radio.state_totals(filled).items())
    # contiguous, from start to end
    edges = [start] + [e for _, e, _ in filled]
    assert [s for s, _, _ in filled] == edges[:-1] and edges[-1] == end
    # the clipped time is the active time inside [start, end] that no span kept
    inside = sum(max(0, min(e, end) - max(s, start)) for s, e, _ in active)
    kept = sum(e - s for s, e, state in filled if state != "idle")
    assert clipped == inside - kept


def test_sink_exactly_at_range_diagonally_off_a_corner_is_heard():
    g = grid_topology(3, 25.0)
    # a 15-20-25 triangle off a corner node, outside the box in x and in y
    assert _hearers(g.positions, g.range_m, (-15.0, -20.0)) == [0]
    assert _hearers(g.positions, g.range_m, (70.0, 65.0)) == [8]
    assert _hearers(g.positions, g.range_m, (-15.0, -20.001)) == []
    assert _hearers(g.positions, g.range_m, (25.0, -25.0)) == [1]  # below the box, no x offset


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
@example(positions={0: (math.nan, 0.0), 1: (3.0, 0.0), 2: (-1.0, 0.0)}, range_m=5.0, point=(0.0, 0.0))
# the gap squares to 0, so the pair test passes it at range 0
@example(positions={0: (2.2250738585072014e-308, 0.0)}, range_m=0.0, point=(0.0, 0.0))
def test_hearers_equal_the_in_range_scan(positions, range_m, point):
    topo = build_udg(positions, range_m)
    expected = [nid for nid in sorted(topo.positions) if topo.in_range(nid, point)]
    assert _hearers(topo.positions, topo.range_m, point) == expected


@pytest.mark.parametrize("nid", [256, -1])
def test_an_id_beyond_the_payload_byte_is_a_config_error(nid):
    # -1 is also the sink's pseudo node
    topo = build_udg({0: (0.0, 0.0), nid: (20.0, 0.0)}, 25.0)
    cfg = ScenarioConfig(topology=topo, query_node=0, seed=2, bs_position=(-60.0, 0.0))
    with pytest.raises(ConfigError, match=f"node id {nid} does not fit"):
        run_scenario(cfg)


def rotation_outputs(report):
    return (
        sorted(report.phase_times_us.items()), report.route.path, report.neighbors,
        report.flood.transmissions, sha256(segments(report.timeline)),
    )


def test_rotations_on_two_topologies_in_turn_equal_each_alone():
    # The same ids on a box of another size, then other ids: a view kept from
    # the topology before would move the sink's track or the timeline order.
    topologies = [grid_topology(4, 25.0), grid_topology(4, 20.0), grid_topology(3, 25.0)]
    configs = [
        ScenarioConfig(topology=topologies[i % 3], query_node=q, seed=s)
        for i, (q, s) in enumerate([(5, 1), (5, 1), (4, 2), (7, 3), (6, 4), (2, 5)])
    ]
    alone = []
    for cfg in configs:
        clear_rotation_memos()
        alone.append(rotation_outputs(run_scenario(cfg)))
    assert [rotation_outputs(run_scenario(cfg)) for cfg in configs] == alone
    assert alone[0] != alone[1]


# Changes that must not move a rotation under any model: relabellings that
# keep the id order (draws and injections follow ascending ids), and a
# translation of the nodes and the base station.
ROTATION_CHANGES = {
    "id + 100": (lambda nid: nid + 100, (0.0, 0.0)),
    "3 id + 7": (lambda nid: 3 * nid + 7, (0.0, 0.0)),
    "translated": (lambda nid: nid, (1024.0, -512.0)),
}


def changed_rotations(positions, range_m, runs, bs_position, label=lambda nid: nid, shift=(0, 0)):
    """The rotations of `runs`, (query node, seed) pairs, each without and
    with collisions, on the UDG of `positions` relabelled by `label` and
    moved with its base station by `shift`: each one's phase stamps, path,
    relays, horizon, clipped time, totals and a hash of every span with the
    ids mapped back, or the ConfigError's message."""
    dx, dy = shift
    topo = build_udg({label(nid): (x + dx, y + dy) for nid, (x, y) in positions.items()}, range_m)
    back = {label(nid): nid for nid in positions}
    back.update({BS_ID: BS_ID, MS_ID: MS_ID})
    bs_x, bs_y = bs_position
    rows = []
    for query, seed in runs:
        for collisions in (False, True):
            cfg = ScenarioConfig(
                topology=topo, query_node=label(query), seed=seed, collisions=collisions,
                bs_position=(bs_x + dx, bs_y + dy),
            )
            try:
                report = run_scenario(cfg)
            except ConfigError as exc:
                rows.append(str(exc))
                continue
            view = report.timeline
            spans = sorted((back[nid], node_spans) for nid, node_spans in view.spans().items())
            rows.append((
                report.phase_times_us, [back[nid] for nid in report.route.path],
                [(back[nid], t) for nid, t in report.flood.transmissions], report.horizon_us,
                {back[nid]: us for nid, us in view.clipped_us.items()},
                [(back[nid], list(states.items())) for nid, states in view.totals.items()],
                hashlib.sha256(repr(spans).encode()).hexdigest(),
            ))
    return rows


def changed_grid_rotations(label=lambda nid: nid, shift=(0.0, 0.0)):
    """Every rotation of the 6x6 grid at 25 m, each query node with seed =
    query node, changed as :func:`changed_rotations` states."""
    g = grid_topology(6, 25.0)
    runs = [(query, query) for query in sorted(g.positions)]
    bs_position = ScenarioConfig(topology=g, query_node=0).bs_position
    return changed_rotations(g.positions, 25.0, runs, bs_position, label, shift)


@pytest.fixture(scope="module")
def unchanged_grid_rotations():
    rows = changed_grid_rotations()
    assert 0 < sum(isinstance(row, str) for row in rows) < len(rows)
    return rows


@pytest.mark.parametrize("change", sorted(ROTATION_CHANGES))
def test_a_rotation_does_not_depend_on_the_id_values_or_the_place(change, unchanged_grid_rotations):
    label, shift = ROTATION_CHANGES[change]
    assert changed_grid_rotations(label, shift) == unchanged_grid_rotations


@st.composite
def udg_rotation_cases(draw):
    # 3-30 nodes at integer coordinates of a 120 m square, ids spread over
    # 0-60, an integer range, a query node and a seed
    n = draw(st.integers(3, 30))
    ids = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))
    xy = st.tuples(st.integers(0, 120), st.integers(0, 120))
    positions = {nid: draw(xy) for nid in ids}
    return positions, draw(st.integers(15, 60)), draw(st.sampled_from(ids)), draw(st.integers(0, 2**16))


@pytest.mark.parametrize("change", sorted(ROTATION_CHANGES))
@settings(max_examples=60, deadline=None)
@given(case=udg_rotation_cases())
def test_a_rotation_on_a_random_udg_does_not_depend_on_the_id_values_or_the_place(change, case):
    positions, range_m, query, seed = case
    label, shift = ROTATION_CHANGES[change]
    unchanged = changed_rotations(positions, range_m, [(query, seed)], (-80, 40))
    assert changed_rotations(positions, range_m, [(query, seed)], (-80, 40), label, shift) == unchanged


def half_grid_outcomes(mirror, collisions, seeds, speed):
    """Each rotation's hop count, or None for a miss or a flood that never
    reaches the queried node, for every query node below the sink's line on
    the 6x6 grid at each seed.  With `mirror`, the grid and the base station
    are mirrored across that line first and the ids renumbered row-major, so
    that they follow the place as on any grid: the draws and injections,
    which follow ascending ids, then meet the nodes in another order."""
    side = 6
    g = grid_topology(side, 25.0)
    bs_x, bs_y = ScenarioConfig(topology=g, query_node=0).bs_position
    x0, y0, x1, y1 = g.view.bbox

    def label(nid):
        return (side - 1 - nid // side) * side + nid % side if mirror else nid

    def flip(y):
        return y0 + y1 - y if mirror else y

    topo = build_udg({label(nid): (x, flip(y)) for nid, (x, y) in g.positions.items()}, 25.0)
    rows = []
    for query in range(side * side // 2):
        for seed in seeds:
            cfg = ScenarioConfig(
                topology=topo, query_node=label(query), seed=seed, collisions=collisions,
                bs_position=(bs_x, flip(bs_y)), ms_speed_mps=speed,
            )
            try:
                report = run_scenario(cfg)
            except ConfigError as exc:
                assert str(exc) == "flood never reached the queried node"
                rows.append(None)
                continue
            rows.append(None if report.miss else report.route.hops)
    return rows


@pytest.mark.parametrize("collisions", [False, True])
def test_a_grid_mirrored_across_the_sink_line_keeps_the_miss_ratio_and_hops(collisions):
    # At 40 m/s the walk starts to miss on this grid, so the seeds move the
    # outcomes; the two maps must differ rotation by rotation, yet agree in
    # their statistics: each pair of 95% intervals overlaps.
    seeds = range(20)
    plain = half_grid_outcomes(False, collisions, seeds, 40.0)
    mirrored = half_grid_outcomes(True, collisions, seeds, 40.0)
    assert plain != mirrored

    def agree(a, b):
        (mean_a, half_a), (mean_b, half_b) = mean_ci(a), mean_ci(b)
        return abs(mean_a - mean_b) <= half_a + half_b

    assert agree([float(h is None) for h in plain], [float(h is None) for h in mirrored])
    assert agree([h for h in plain if h is not None], [h for h in mirrored if h is not None])


def clear_rotation_memos():
    flight._FLIGHT_CACHE.clear()


def fresh_passes(topo, bs_position, speed, t_brp, d_brp, fly_start=144_960):
    """The quiet count and the hearers of each later pass until the sink has
    left, as a rotation once tested every pass from pass 0: at the pass's end
    time, the departure first, then each node with Topology.in_range."""
    x0, y0, x1, y1 = topo.view.bbox
    entry, exit_ = (x0, (y0 + y1) / 2), (x1, (y0 + y1) / 2)
    track = WaypointTrack([bs_position, entry, exit_, bs_position], speed)
    exit_dist = euclid(bs_position, entry) + euclid(entry, exit_)
    passes = []
    for i in range(5_000):
        brp_end = fly_start + i * t_brp + d_brp
        if brp_end > fly_start and track.distance_at(brp_end - fly_start) >= exit_dist:
            quiet = next((k for k, heard in enumerate(passes) if heard), len(passes))
            return exit_dist, quiet, passes[quiet:]
        position = track.position_at(brp_end - fly_start) if brp_end > fly_start else bs_position
        passes.append([nid for nid in sorted(topo.positions) if topo.in_range(nid, position)])
    raise AssertionError("the sink never left")


@given(
    positions=st.dictionaries(st.integers(0, 40), st.tuples(COORD, COORD), min_size=1, max_size=8),
    range_m=st.integers(0, 40).map(float) | st.floats(0.0, 40.0),
    bs_position=st.tuples(POINT, POINT),
    speed=st.floats(2.0, 60.0),
    t_brp=st.integers(100_000, 400_000),
    d_brp=st.integers(0, 200_000),
)
# the gap squares to 0, so the node hears the sink at range 0 on pass 0
@example(
    positions={0: (1e-200, 0.0)},
    range_m=0.0,
    bs_position=(0.0, 0.0),
    speed=2.0,
    t_brp=100_000,
    d_brp=0,
)
def test_quiet_passes_are_unheard_and_before_the_exit(
    positions, range_m, bs_position, speed, t_brp, d_brp
):
    # the quiet count is the first pass that a scan from pass 0 finds heard
    # or past the exit, so every pass before it is unheard and in flight
    topo = build_udg(positions, range_m)
    memo = flight._flight(topo, bs_position, speed, t_brp, d_brp)
    assert memo.quiet == fresh_passes(topo, bs_position, speed, t_brp, d_brp)[1]
    assert all(memo.hearers(i) == [] for i in range(memo.quiet))
    assert memo.hearers(memo.quiet) != []


def test_quiet_passes_end_where_the_sink_can_first_be_heard():
    # straight at a lone node: at 1 m per pass, pass 75 is the first in range
    topo = build_udg({0: (0.0, 0.0)}, 25.0)
    memo = flight._flight(topo, (-100.0, 0.0), 1.0, 1_000_000, 0)
    assert memo.quiet == 75 and memo.hearers(75) == [0]
    # the benchmark grid, whose first 43 passes go unheard
    g = grid_topology(12, 25.0)
    memo = flight._flight(g, (-80.0, 37.5), 7.0, C.t_brp, C.d_brp)
    assert memo.quiet == 43 and memo.hearers(43)


def random_udg(seed, n=40, field=100.0, range_m=25.0):
    rng = random.Random(seed)
    return build_udg({i: (field * rng.random(), field * rng.random()) for i in range(n)}, range_m)


FLIGHTS = [
    ((-80.0, 37.5), 7.0, C.t_brp, C.d_brp),
    ((-80.0, 37.5), 7.0, C.t_brp, 0),  # pass 0 ends at set-off, at the base station
    ((137.5, -20.0), 20.0, 310_000, 100_000),
]


@pytest.mark.parametrize(
    "topo",
    [grid_topology(12, 25.0), random_udg(0), random_udg(1), random_udg(2, n=80)],
    ids=["grid-12", "udg-0", "udg-1", "udg-2"],
)
@pytest.mark.parametrize("bs_position, speed, t_brp, d_brp", FLIGHTS)
def test_the_flight_memo_equals_a_fresh_computation(topo, bs_position, speed, t_brp, d_brp):
    clear_rotation_memos()
    memo = flight._flight(topo, bs_position, speed, t_brp, d_brp)
    exit_dist, quiet, passes = fresh_passes(topo, bs_position, speed, t_brp, d_brp)
    assert (memo.exit_dist, memo.quiet) == (exit_dist, quiet)
    departed = quiet + len(passes)
    assert memo.hearers(departed) is None  # grows every pass before it
    assert [memo.hearers(i) for i in range(quiet, departed)] == passes
    assert any(passes)


@pytest.mark.parametrize("d_brp, passes", [(0, [[0]]), (C.d_brp, [])])
def test_a_flight_that_starts_on_its_only_node(d_brp, passes):
    # exit_dist is 0: pass 0 ends at set-off when d_brp is 0, so the sink is
    # still at the base station and has not left; any later pass has left
    topo = build_udg({0: (0.0, 0.0)}, 25.0)
    clear_rotation_memos()
    memo = flight._flight(topo, (0.0, 0.0), 7.0, C.t_brp, d_brp)
    assert fresh_passes(topo, (0.0, 0.0), 7.0, C.t_brp, d_brp) == (0.0, 0, passes)
    assert (memo.exit_dist, memo.quiet) == (0.0, 0)
    assert [memo.hearers(i) for i in range(len(passes) + 1)] == passes + [None]


def test_the_flight_memo_serves_no_stale_flight():
    # One topology under flights that differ in one input each, and back.
    g = grid_topology(4, 25.0)
    changes = [
        {},
        dict(bs_position=(-60.0, 20.0)),
        dict(ms_speed_mps=11.0),
        dict(constants=dataclasses.replace(C, t_brp=350_000)),
        dict(constants=dataclasses.replace(C, d_brp=120_000)),
        {},
    ]
    configs = [ScenarioConfig(topology=g, query_node=5, seed=1, **change) for change in changes]
    alone = []
    for cfg in configs:
        clear_rotation_memos()
        alone.append(rotation_outputs(run_scenario(cfg)))
    assert [rotation_outputs(run_scenario(cfg)) for cfg in configs] == alone
    assert all(outputs != alone[0] for outputs in alone[1:-1])


def test_a_rebuilt_topology_never_reads_the_flight_before():
    # Each grid is built, flown and dropped, so only the flight memo can keep
    # the grid before alive.  A grid of the same ids on another spacing could
    # otherwise take its view's identity.
    def on_a_new_grid(spacing):
        cfg = ScenarioConfig(topology=grid_topology(4, spacing), query_node=5, seed=1)
        return rotation_outputs(run_scenario(cfg))

    spacings = [25.0, 20.0, 25.0, 22.0]
    in_turn = [on_a_new_grid(spacing) for spacing in spacings]
    alone = []
    for spacing in spacings:
        clear_rotation_memos()
        alone.append(on_a_new_grid(spacing))
    assert in_turn == alone
    assert len(set(map(repr, alone))) == 3


def test_a_topology_builds_its_view_once(monkeypatch):
    # Rotations and floods on one topology share its view, whatever ran in
    # between; another topology builds its own.  The view is no field.
    builds = []
    build = radio._build_view
    monkeypatch.setattr(radio, "_build_view", lambda topo: builds.append(topo) or build(topo))

    def rotate(topology, query, collisions=False):
        cfg = ScenarioConfig(topology=topology, query_node=query, seed=query, collisions=collisions)
        try:
            run_scenario(cfg)
        except ConfigError:  # a lossy flood can miss the queried node
            assert collisions

    clear_rotation_memos()
    g, h = grid_topology(4, 25.0), grid_topology(3, 25.0)
    for q in range(8):
        rotate(g, q)
        rotate(g, q, collisions=True)
    simulate_flood(g, 0, source=15)
    assert builds == [g] and builds[0] is g
    rotate(h, 4)
    rotate(g, 5)
    assert builds == [g, h] and builds[1] is h
    fresh = grid_topology(4, 25.0)
    assert g == fresh and repr(g) == repr(fresh)
    assert builds == [g, h]


def test_scenario_config_errors():
    with pytest.raises(ConfigError):
        run_scenario(scenario_config(query_node=99))
    # virtual routing needs both the coordinates and the sink's coordinate
    g = grid_topology(4, 25.0)
    with pytest.raises(ConfigError, match="set together"):
        run_scenario(scenario_config(virtual_coords=init_virtual_coords(g, 0, ((0, 75), (0, 75)))))
    with pytest.raises(ConfigError, match="set together"):
        run_scenario(scenario_config(ms_virtual_coord=(37.5, 37.5)))


@pytest.mark.parametrize(
    "override, message",
    [
        ({"t_dr": 0}, "t_dr must be > 0, got 0"),
        ({"t_dr": -1}, "t_dr must be > 0, got -1"),
        ({"t_cca": 0}, "t_cca must be > 0, got 0"),
        ({"t_brp": 0}, "t_brp must be > 0, got 0"),
        ({"d_rrp": 1_000}, "d_rrp (1000) must be >= d_cca (1442)"),
    ],
)
def test_degenerate_timers_are_config_errors(override, message):
    # each once crashed or stalled the rotation: a division by t_dr, an empty
    # draw range for the channel-check offsets, a million retries at t_brp = 0
    c = dataclasses.replace(DEFAULT_CONSTANTS, **override)
    with pytest.raises(ConfigError) as excinfo:
        run_scenario(scenario_config(constants=c))
    assert str(excinfo.value) == message


def test_a_channel_check_as_long_as_the_request_preamble_runs():
    c = dataclasses.replace(DEFAULT_CONSTANTS, d_rrp=DEFAULT_CONSTANTS.d_cca)
    assert run_scenario(scenario_config(constants=c)).horizon_us > 0


def test_a_round_trip_longer_than_the_bound_is_a_config_error(monkeypatch):
    # 4x4 grid at 25 m: the round trip from (-80, 37.5) is 80 + 75 + 155 m.
    # At this speed the sink would need thousands of request passes to come
    # in range; the rejection comes before any of them is tested.
    tested = []
    hearers = flight._hearers
    monkeypatch.setattr(flight, "_hearers", lambda *args: tested.append(args) or hearers(*args))
    slowest = 310 / MAX_ROUND_TRIP_S
    clear_rotation_memos()
    with pytest.raises(ConfigError, match="round trip"):
        run_scenario(scenario_config(ms_speed_mps=slowest * 0.99))
    assert tested == []
    assert run_scenario(scenario_config(ms_speed_mps=slowest * 1.01)).horizon_us > 0
    assert len(tested) > 1_000


def test_a_sink_still_in_flight_after_the_last_pass_is_a_config_error(monkeypatch):
    # At a cap of 1,000 passes: the shortest t_brp whose last pass ends with
    # the sink gone runs; 1 us shorter is refused before any pass is tested.
    monkeypatch.setattr(scenario, "MAX_PASSES", 1_000)
    monkeypatch.setattr(flight, "MAX_PASSES", 1_000)
    departed = flight._flight(grid_topology(4, 25.0), (-80.0, 37.5), 7.0, C.t_brp, C.d_brp).departed
    lo, hi = 1, C.t_brp  # the sink is gone by pass 999 at the default t_brp
    assert departed(999 * hi + C.d_brp) and not departed(999 * lo + C.d_brp)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if departed(999 * mid + C.d_brp) else (mid, hi)
    tested = []
    hearers = flight._hearers
    monkeypatch.setattr(flight, "_hearers", lambda *args: tested.append(args) or hearers(*args))
    clear_rotation_memos()
    with pytest.raises(ConfigError, match=f"t_brp = {lo} us is too short: the sink's 1000 request passes"):
        run_scenario(scenario_config(constants=dataclasses.replace(C, t_brp=lo)))
    assert tested == []
    assert run_scenario(scenario_config(constants=dataclasses.replace(C, t_brp=hi))).horizon_us > 0
    assert tested


def test_discovered_graph_union():
    assert discovered_graph([]) == {}
    reports = [run_scenario(scenario_config(query_node=q, seed=50 + q)) for q in range(16)]
    graph = discovered_graph([(r.query_node, r.neighbors) for r in reports if not r.miss])
    g = grid_topology(4, 25.0)
    assert graph == {nid: g.adjacency[nid] for nid in sorted(g.positions)}


def test_discovered_graph_single_report():
    report = run_scenario(scenario_config(query_node=0, seed=9))
    graph = discovered_graph([(report.query_node, report.neighbors)])
    assert graph[0] == (1, 4)
    assert graph[1] == (0,)
    assert graph[4] == (0,)


# ---------------------------------------------------------------------------
# sweep points
# ---------------------------------------------------------------------------


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


def test_the_sweeps_decide_through_the_one_rule(monkeypatch, workers):
    # Counts of routing.next_hop_3rule calls recorded when every new tour entry
    # was one call of the module's rule.  A sweep that walked without it, or
    # called it for entries a tour already holds, would change them.  The
    # later random-graph speeds rescan the tours that the first one grew.
    calls = []
    rule = routing.next_hop_3rule

    def counted(*args, **kwargs):
        calls.append(args[0])
        return rule(*args, **kwargs)

    monkeypatch.setattr(routing, "next_hop_3rule", counted)
    monkeypatch.setattr(scenario, "_SETUP_CACHE", {})
    workers(1)
    points = [
        (lambda: grid_point("edge", 2, 150, 5), 1902),
        (lambda: grid_point("diagonal", 8, 150, 6), 1286),
        (lambda: grid_point("diagonal", 3, 100, 7, coord_mode="physical"), 272),
        (lambda: random_graph_point(6, 10, 60, 8), 1198),
        (lambda: random_graph_point(6, 25, 60, 8), 113),
        (lambda: random_graph_point(6, 0, 60, 8), 11),
    ]
    counts = []
    for point, _ in points:
        calls.clear()
        point()
        counts.append(len(calls))
    assert counts == [count for _, count in points]


# Recorded in one process from the per-topology and per-replication streams;
# the sweep must reproduce every field bit for bit.  The 30-run point has
# fewer runs than the 50 topologies.
PINNED_RANDOM_GRAPH_POINTS = {
    (4, 50, 30, 1): (
        0.03333333333333333, 0.06817432140442418, 5.84, 2.3762634939497067, 0.16666666666666666,
    ),
    (7, 25, 60, 3): (0.05, 0.1000497689044132, 18.84313725490196, 4.568589245004173, 0.15),
    (4, 0, 60, 3): (0.0, 0.0, 6.140350877192983, 1.695598874452089, 0.05),
    (4, 50, 60, 3): (0.2833333333333333, 0.2777049167934189, 5.791666666666667, 2.179488445913915, 0.2),
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
    # Each call differs from the one before it in one argument.
    calls = [
        (4, 10, 30, 5),
        (4, 50, 30, 5),  # speed: the set-up is reused
        (4, 50, 12, 5),  # runs, fewer than topologies: only 12 are built
        (4, 50, 12, 6),  # seed
        (7, 50, 12, 6),  # degree
        (7, 0, 12, 6),
        (4, 25, 30, 5),  # back to the first set-up
    ]
    interleaved = []
    for args in calls:
        interleaved.append(random_graph_point(*args))
        assert len(scenario._SETUP_CACHE) == 1
    for args, pt in zip(calls, interleaved):
        scenario._SETUP_CACHE.clear()
        assert random_graph_point(*args) == pt


def _naive_set_up(n, seed, t, i, field, range_m):
    """Topology `t` and replication `i`'s placement on it, each drawn from
    its own stream, with every node tested against every sink start."""
    rng = random.Random(f"{seed}/topology/{t}")
    topo = build_udg({v: (field * rng.random(), field * rng.random()) for v in range(n)}, range_m)
    label = scenario._component_labels(topo.adjacency)
    rng = random.Random(f"{seed}/placement/{i}")
    while True:
        sx, sy = field * rng.random(), field * rng.random()
        heard = {label[v] for v in topo.positions if topo.in_range(v, (sx, sy))}
        if heard:
            break
    source = rng.choice([v for v in range(n) if label[v] in heard])
    return topo, (source, (sx, sy), rng.randrange(2**31), rng.randrange(2**31))


@pytest.mark.parametrize(
    "n, field, range_m",
    [(33, 1000.0, 200.0), (81, 1000.0, 200.0), (12, 1000.0, 60.0), (12, 50.0, 3.0), (40, 1e7, 2e6)],
)
def test_the_set_up_draws_as_the_naive_set_up(n, field, range_m):
    # 120 replications over 7 topologies, replication i on topology i % 7.
    drawn = [scenario._draw_topology(n, 5, t, field, range_m) for t in range(7)]
    for i in range(120):
        topo, placement = _naive_set_up(n, 5, i % 7, i, field, range_m)
        assert drawn[i % 7].topology == topo
        assert scenario._place_sink(drawn[i % 7], 5, i, field) == placement


def test_a_replication_draws_from_its_node_count_seed_and_index_alone(workers):
    # The first 30 replications of a 60-run point are those of a 30-run
    # point: the same placements, grown into the same tours.
    workers(1)
    memos = []
    for runs in (60, 30):
        scenario._SETUP_CACHE.clear()
        random_graph_point(5, 10, runs, 4)
        memos.append(_memo_tours())
    assert [memos[0][i] for i in range(30)] == [memos[1][i] for i in range(30)]
    assert any(len(entries) > 1 for _, (entries, _) in memos[1].values())


# Calls whose replications split unevenly over 2 and 3 workers, and counts
# below both the worker count and the default minimum slice.
WORKER_COUNT_CALLS = {
    "random-graph-37": lambda: random_graph_point(4, 25, 37, 3),
    "random-graph-2": lambda: random_graph_point(5, 10, 2, 2),
    "random-graph-static": lambda: random_graph_point(7, 0, 41, 4),
    "grid-virtual-250": lambda: grid_point("edge", 4, 250, 9),
    "grid-virtual-1": lambda: grid_point("diagonal", 2, 1, 9),
    "grid-physical-103": lambda: grid_point("diagonal", 8, 103, 5, coord_mode="physical"),
    "grid-physical-5": lambda: grid_point("edge", 1, 5, 5, coord_mode="physical"),
    "grid-crossing-301": lambda: grid_crossing_hops(301, 4),
    "grid-crossing-7": lambda: grid_crossing_hops(7, 4),
}


def _no_child_left():
    # Ending the workers reaps every one: this process has no child left.
    close_workers()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.mark.parametrize("name", sorted(WORKER_COUNT_CALLS))
def test_sweep_points_do_not_depend_on_the_worker_count(workers, name):
    call = WORKER_COUNT_CALLS[name]
    workers(1)
    serial = call()
    for count in (2, 3, None):
        workers(count)
        assert call() == serial
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


@pytest.mark.parametrize("count", [1, 3])
def test_grid_points_are_pinned(workers, count):
    workers(count)
    for (mobility, speed, runs, seed, mode), pinned in PINNED_GRID_POINTS.items():
        pt = grid_point(mobility, speed, runs, seed, coord_mode=mode)
        fields = (pt.mean_restarts, pt.restarts_ci95, pt.mean_hops, pt.hops_ci95, pt.miss_ratio)
        assert fields == pinned
    assert grid_crossing_hops(301, 4) == (8.643122676579926, 0.858149555686788)


@pytest.mark.parametrize("count", [2, 3])
def test_pinned_points_hold_on_the_parallel_path_from_a_cold_cache(workers, count):
    workers(count)
    scenario._SETUP_CACHE.clear()
    for args in sorted(PINNED_RANDOM_GRAPH_POINTS):
        pt = random_graph_point(*args)
        fields = (pt.mean_restarts, pt.restarts_ci95, pt.mean_hops, pt.hops_ci95, pt.miss_ratio)
        assert fields == PINNED_RANDOM_GRAPH_POINTS[args]


def test_a_child_error_is_raised_in_the_caller(fresh_workers, monkeypatch, workers):
    parent = os.getpid()
    real_route = scenario.route

    def route_failing_in_children(*args, **kwargs):
        if os.getpid() != parent:
            raise RoutingError("walk failed in a worker")
        return real_route(*args, **kwargs)

    monkeypatch.setattr(scenario, "route", route_failing_in_children)
    workers(3)
    with pytest.raises(RoutingError, match="^walk failed in a worker$"):
        grid_point("edge", 4, 9, 1)
    assert _no_child_left()


def test_a_caller_error_ends_the_children(fresh_workers, monkeypatch, workers):
    parent = os.getpid()
    real_route = scenario.route

    def route_failing_in_the_caller(*args, **kwargs):
        if os.getpid() == parent:
            raise RoutingError("walk failed in the caller")
        return real_route(*args, **kwargs)

    monkeypatch.setattr(scenario, "route", route_failing_in_the_caller)
    workers(2)
    with pytest.raises(RoutingError, match="walk failed in the caller"):
        random_graph_point(4, 10, 30, 1)
    assert _no_child_left()


PAIRED_SPEEDS = (0, 10, 25, 50)


def _point_fields(pt):
    return repr(pt)  # the repr shows nan, which == would not match


def _memo_tours():
    """The memo's placements and tours by replication, as plain data, after
    checking that the one entry holds topologies and one flat tuple per
    replication: the sink start's floats, then ints and the tour."""
    (setup,) = scenario._SETUP_CACHE.values()
    assert all(isinstance(drawn.topology, radio.Topology) for drawn in setup.built.values())
    tours = {}
    for i, (sx, sy, track_seed, vc_seed, tour) in setup.replications.items():
        assert isinstance(tour, Tour)
        assert all(type(v) is int for v in (track_seed, vc_seed, *tour.entries))
        assert type(sx) is float and type(sy) is float and type(tour.complete) is bool
        assert not hasattr(tour, "__dict__")  # entries and complete only
        assert [f.name for f in dataclasses.fields(tour)] == ["entries", "complete"]
        placement = (tour.entries[0], (sx, sy), track_seed, vc_seed)
        tours[i] = (placement, (tuple(tour.entries), tour.complete))
    return tours


@pytest.mark.parametrize("count", [1, 2, 3, None])
def test_paired_speeds_do_not_depend_on_the_order_or_the_worker_count(workers, count):
    # 230 replications: the default splits them over 2 workers on 2 CPUs.
    degree, runs, seed = 6, 230, 12
    single = {}
    workers(1)
    for speed in PAIRED_SPEEDS:
        scenario._SETUP_CACHE.clear()
        single[speed] = _point_fields(random_graph_point(degree, speed, runs, seed))
    scenario._SETUP_CACHE.clear()
    for speed in PAIRED_SPEEDS:
        random_graph_point(degree, speed, runs, seed)
    serial_tours = _memo_tours()
    assert sorted(serial_tours) == list(range(runs))
    assert any(len(entries) > 1 for _, (entries, _) in serial_tours.values())
    # The caller walks the first slice of the walk order, and its memo holds
    # those replications only, their placements and tours as in the serial run.
    first = runs // min(count or default_workers(runs), runs)
    mine = set(scenario._walk_order(runs, scenario.RANDOM_TOPOLOGIES)[:first])
    workers(count)
    for speeds in (PAIRED_SPEEDS, PAIRED_SPEEDS[::-1]):
        scenario._SETUP_CACHE.clear()
        for speed in speeds:
            pt = random_graph_point(degree, speed, runs, seed)
            assert _point_fields(pt) == single[speed]
            assert len(scenario._SETUP_CACHE) == 1
        assert _memo_tours() == {i: serial_tours[i] for i in mine}
    assert _no_child_left()


def test_each_process_builds_only_the_topologies_its_slice_walks(monkeypatch, workers):
    # 200 replications on 2 processes: the caller walks the 4 replications
    # of each of the first 25 topologies, and builds those only, once for
    # all speeds.
    built = []
    build = scenario.build_udg

    def recorded(positions, range_m):
        built.append(build(positions, range_m))
        return built[-1]

    monkeypatch.setattr(scenario, "build_udg", recorded)
    monkeypatch.setattr(scenario, "_SETUP_CACHE", {})
    workers(2)
    for speed in PAIRED_SPEEDS:
        random_graph_point(6, speed, 200, 3)
    (setup,) = scenario._SETUP_CACHE.values()
    assert [next(t for t, d in setup.built.items() if d.topology is q) for q in built] == list(range(25))
    assert sorted(setup.built) == list(range(25))
    assert _no_child_left()


# (runs, processes): 230 on 3 and 210 on 2 cut a topology's replications at
# a slice bound; 37 and 12 runs are fewer than the 50 topologies.
CUT_SPLITS = [(230, 2), (230, 3), (210, 2), (37, 2), (37, 3), (12, 2), (12, 3)]


@pytest.mark.parametrize("runs, count", CUT_SPLITS)
def test_a_slice_bound_inside_a_topology_keeps_the_serial_point(workers, runs, count):
    degree, seed = 5, 21
    workers(1)
    scenario._SETUP_CACHE.clear()
    serial = [_point_fields(random_graph_point(degree, speed, runs, seed)) for speed in PAIRED_SPEEDS]
    workers(count)
    scenario._SETUP_CACHE.clear()
    assert [_point_fields(random_graph_point(degree, speed, runs, seed)) for speed in PAIRED_SPEEDS] == serial
    # The caller built the topologies and drew the placements of its slice only.
    (setup,) = scenario._SETUP_CACHE.values()
    topologies = scenario.RANDOM_TOPOLOGIES
    walked = scenario._walk_order(runs, topologies)[: runs // count]
    assert sorted(setup.built) == sorted({i % topologies for i in walked})
    assert sorted(setup.replications) == sorted(walked)
    assert _no_child_left()


def test_fresh_workers_build_the_topologies_they_walk(workers):
    # Workers closed between two speeds of one set-up hold no topology, so
    # the second speed's workers build theirs as they walk.
    workers(2)
    scenario._SETUP_CACHE.clear()
    for speed in (0, 50):
        close_workers()
        pt = random_graph_point(4, speed, 60, 3)
        fields = (pt.mean_restarts, pt.restarts_ci95, pt.mean_hops, pt.hops_ci95, pt.miss_ratio)
        assert fields == PINNED_RANDOM_GRAPH_POINTS[(4, speed, 60, 3)]
    assert _no_child_left()


@pytest.mark.parametrize("degree", [-5, 0, math.nan, math.inf, -math.inf, 1e6, 1e300])
def test_a_degree_that_is_not_positive_finite_and_bounded_is_rejected(degree):
    with pytest.raises(ValueError, match="degree"):
        nodes_for_degree(degree)
    with pytest.raises(ValueError, match="degree"):
        random_graph_point(degree, 10, 5, 1)


def test_the_node_bound_admits_degrees_up_to_it():
    largest = (MAX_NODES - 1) * math.pi * 200.0**2 / 1000.0**2
    assert nodes_for_degree(largest * (1 - 1e-9)) == MAX_NODES
    with pytest.raises(ValueError, match=f"more than {MAX_NODES}"):
        nodes_for_degree(largest * 1.001)
    assert nodes_for_degree(1e-9) == 2  # a 2-node floor for tiny degrees


def test_grid_point_rejects_an_unknown_coordinate_mode():
    with pytest.raises(ValueError, match="coordinate mode 'virtul'"):
        grid_point("edge", 4, 10, 1, coord_mode="virtul")


@pytest.mark.parametrize(
    "call, argument",
    [
        (lambda: random_graph_point(4, 10, 0, 1), "runs"),
        (lambda: grid_point("edge", 2, 0, 1), "runs"),
        (lambda: grid_crossing_hops(0, 1), "runs"),
        (lambda: grid_crossing_hops(-3, 1), "runs"),
        (lambda: random_graph_point(4, 10, 2.5, 1), "runs"),
        (lambda: random_graph_point(4, 10, True, 1), "runs"),
        (lambda: random_graph_point(4, 10, 5, None), "seed"),
        (lambda: random_graph_point(4, 10, 5, 1.0), "seed"),
        (lambda: random_graph_point(4, 10, 5, False), "seed"),
        (lambda: grid_point("edge", 2, 30.0, 1), "runs"),
        (lambda: grid_point("edge", 2, 5, None), "seed"),
        (lambda: grid_crossing_hops(True, 1), "runs"),
        (lambda: grid_crossing_hops(5, "1"), "seed"),
    ],
    ids=[
        "random-graph-runs",
        "grid-runs",
        "crossing-runs",
        "crossing-negative-runs",
        "random-graph-float-runs",
        "random-graph-bool-runs",
        "random-graph-none-seed",
        "random-graph-float-seed",
        "random-graph-bool-seed",
        "grid-float-runs",
        "grid-none-seed",
        "crossing-bool-runs",
        "crossing-str-seed",
    ],
)
def test_sweep_points_reject_an_empty_count(call, argument):
    # Before any draw: the set-up memo keeps the entry it held.  A seed or
    # count that is not an int is refused too: a None seed would draw each
    # slice from another entropy stream, and a bool count would run as 0 or 1.
    random_graph_point(4, 10, 5, 1)
    memo = dict(scenario._SETUP_CACHE)
    with pytest.raises(ValueError, match=argument):
        call()
    assert scenario._SETUP_CACHE.keys() == memo.keys()
    assert all(scenario._SETUP_CACHE[key] is setup for key, setup in memo.items())


def test_grid_crossing_reference_band():
    mean, half = grid_crossing_hops(1_500, seed=10)
    assert 7.5 <= mean <= 10.0
    assert half < 0.5
