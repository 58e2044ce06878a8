import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinksim.radio import (
    E_PREAMB_MJ,
    POWER_TABLES,
    DuplicateId,
    UnknownConfiguration,
    build_udg,
    euclid,
    grid_topology,
    load_topology_csv,
    power_table,
    to_dot,
)


def brute_force_adjacency(positions, range_m):
    """Every ordered pair through the unit-disk test on squared distances."""
    r2 = float(range_m) ** 2
    adj = {}
    for a in sorted(positions):
        ax, ay = positions[a]
        adj[a] = tuple(
            b
            for b in sorted(positions)
            if b != a and (ax - positions[b][0]) ** 2 + (ay - positions[b][1]) ** 2 <= r2
        )
    return adj


def test_boundary_distance_counts_as_connected():
    topo = build_udg({0: (0.0, 0.0), 1: (25.0, 0.0)}, 25.0)
    assert topo.adjacency[0] == (1,)
    assert topo.adjacency[1] == (0,)


def test_grid_average_neighbor_count():
    g = grid_topology(5, 25.0)
    assert sum(len(v) for v in g.adjacency.values()) / len(g) == pytest.approx(3.20)


def test_adjacency_matches_brute_force_on_random_fields():
    rnd = random.Random(11)
    for trial in range(120):
        n = rnd.randrange(2, 30)
        positions = {i: (rnd.uniform(0, 1000), rnd.uniform(0, 1000)) for i in range(n)}
        topo = build_udg(positions, 200.0)
        assert topo.adjacency == brute_force_adjacency(positions, 200.0)


# (positions, range) at the edges of the x sweep's pruning.
SWEEP_BOUNDARY_CASES = {
    "x gap equal to the range, dy = 0": ({0: (0.0, 0.0), 1: (25.0, 0.0)}, 25.0),
    "x gap equal to the range, dy > 0": (
        {0: (0.0, 0.0), 1: (25.0, 1e-3), 2: (25.0, 0.0), 3: (25.0, -3.0)},
        25.0,
    ),
    "many nodes sharing one x": (
        {**{i: (5.0, 7.0 * i) for i in range(20)}, 20: (30.0, 0.0), 21: (-20.0, 133.0)},
        25.0,
    ),
    "negative coordinates": (
        {i: (-50.0 + 13.0 * (i % 7), -40.0 + 11.0 * (i // 7)) for i in range(21)},
        20.0,
    ),
    "range 0": ({0: (1.0, 1.0), 1: (1.0, 1.0), 2: (1.0, 2.0), 3: (0.0, 1.0)}, 0.0),
    "ids out of x order": (
        {9: (0.0, 0.0), 2: (10.0, 0.0), 5: (-10.0, 0.0), 7: (10.0, 5.0)},
        10.0,
    ),
}


@pytest.mark.parametrize("case", sorted(SWEEP_BOUNDARY_CASES))
def test_adjacency_matches_brute_force_at_sweep_boundaries(case):
    positions, range_m = SWEEP_BOUNDARY_CASES[case]
    topo = build_udg(positions, range_m)
    assert list(topo.adjacency) == sorted(positions)
    assert topo.adjacency == brute_force_adjacency(positions, range_m)


def test_sweep_keeps_pairs_at_exactly_the_range():
    positions, range_m = SWEEP_BOUNDARY_CASES["x gap equal to the range, dy > 0"]
    assert build_udg(positions, range_m).adjacency[0] == (2,)
    positions, range_m = SWEEP_BOUNDARY_CASES["range 0"]
    assert build_udg(positions, range_m).adjacency[0] == (1,)


def test_nan_coordinate_isolates_only_that_node():
    # Sorted with the NaN x in place, 20.0 would land before 8.0 and end the sweep early.
    nan = float("nan")
    positions = {
        0: (0.0, 0.0), 1: (5.0, 0.0), 2: (20.0, 0.0), 3: (nan, 0.0), 4: (8.0, 0.0), 5: (1.0, nan)
    }
    topo = build_udg(positions, 10.0)
    assert topo.adjacency == brute_force_adjacency(positions, 10.0)
    assert topo.adjacency[0] == (1, 4)
    assert topo.adjacency[3] == () and topo.adjacency[5] == ()


# Whole numbers make shared x values and gaps of exactly the range common.
_coordinate = st.one_of(
    st.floats(-1000, 1000, allow_nan=False), st.integers(-20, 20).map(float)
)


@settings(max_examples=150)
@given(
    st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=25),
    st.one_of(st.floats(0, 500, allow_nan=False), st.integers(0, 10).map(float)),
)
def test_adjacency_equals_brute_force(points, range_m):
    positions = dict(enumerate(points))
    topo = build_udg(positions, range_m)
    assert topo.adjacency == brute_force_adjacency(positions, range_m)
    for a, nbrs in topo.adjacency.items():
        assert a not in nbrs
        for b in nbrs:
            assert a in topo.adjacency[b]


def test_duplicate_id_rejected():
    with pytest.raises(DuplicateId):
        build_udg([(0, (0.0, 0.0)), (0, (1.0, 1.0))], 10.0)


@pytest.mark.parametrize("range_m", [-25.0, -1e-9, float("nan"), float("inf"), -float("inf")])
def test_a_range_that_is_negative_or_not_finite_is_rejected(range_m):
    with pytest.raises(ValueError, match="range must be finite and >= 0"):
        build_udg({0: (0.0, 0.0), 1: (20.0, 0.0)}, range_m)


def test_power_table_state_values():
    assert power_table(-25).power_mw("poll") == pytest.approx(3.300)
    assert power_table(0).power_mw("listen") == pytest.approx(65.833)
    assert power_table(-25).power_mw("tx") == pytest.approx(32.807)
    assert power_table(0).power_mw("rx") == pytest.approx(70.686)
    assert power_table(-25).power_mw("sleep") == pytest.approx(2.735)


def test_power_table_ordering():
    for table in POWER_TABLES.values():
        assert 0 < table.sleep < table.poll < table.listen


def test_preamble_cost_inputs_present():
    assert set(E_PREAMB_MJ) == {0, -25}
    assert E_PREAMB_MJ[-25] == pytest.approx(0.467)
    assert E_PREAMB_MJ[0] == pytest.approx(1.243)


def test_unknown_power_setting():
    with pytest.raises(UnknownConfiguration):
        power_table(-10)
    with pytest.raises(KeyError):
        power_table(0).power_mw("warp")


def test_csv_loader_and_dot_export(tmp_path):
    csv = tmp_path / "topo.csv"
    csv.write_text("id,x,y\n0,0,0\n1,20,0\n2,40,0\n# comment\n")
    topo = load_topology_csv(str(csv), 25.0)
    assert topo.adjacency[1] == (0, 2)
    dot = to_dot(topo.adjacency)
    assert "0 -- 1;" in dot
    assert "1 -- 2;" in dot
    assert "0 -- 2;" not in dot


def test_csv_loader_names_the_line_of_a_short_row(tmp_path):
    csv = tmp_path / "short.csv"
    csv.write_text("id,x,y\n0,0,0\n\n1,10\n")
    with pytest.raises(ValueError, match=r"short\.csv line 4: need id,x,y, got '1,10'"):
        load_topology_csv(str(csv), 25.0)


@pytest.mark.parametrize("nid", [256, -1])
def test_csv_loader_names_the_line_of_an_id_beyond_one_byte(tmp_path, nid):
    csv = tmp_path / "ids.csv"
    csv.write_text(f"id,x,y\n0,0,0\n{nid},20,0\n")
    with pytest.raises(ValueError, match=rf"ids\.csv line 3: node id {nid} does not fit one byte"):
        load_topology_csv(str(csv), 25.0)


@pytest.mark.parametrize(
    "row, message",
    [
        # a node that once loaded and connected to nothing
        ("2,nan,0", r"x and y must be finite numbers, got 'nan', '0'"),
        ("2,0,-inf", r"x and y must be finite numbers, got '0', '-inf'"),
        ("2,1e400,0", r"x and y must be finite numbers, got '1e400', '0'"),
        # each once gave a bare int(), float() or DuplicateId message
        ("1.5,20,0", r"node id '1\.5' is not an integer"),
        ("2,abc,0", r"x and y must be finite numbers, got 'abc', '0'"),
        ("0,40,0", r"node id 0 appears twice, first on line 2"),
    ],
)
def test_csv_loader_names_the_line_of_a_malformed_row(tmp_path, row, message):
    csv = tmp_path / "rows.csv"
    csv.write_text(f"id,x,y\n0,0,0\n1,20,0\n{row}\n")
    with pytest.raises(ValueError, match=rf"rows\.csv line 4: {message}$"):
        load_topology_csv(str(csv), 25.0)


def test_in_range_uses_topology_range():
    g = grid_topology(3, 25.0)
    assert g.in_range(0, (12.0, 0.0))
    assert not g.in_range(0, (26.0, 0.0))
    assert g.in_range(0, (25.0, 0.0))


def test_euclid():
    assert euclid((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)
