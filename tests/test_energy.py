import dataclasses

import pytest

from sinksim.core import DEFAULT_CONSTANTS
from sinksim.energy import (
    RealTimeParams,
    WindowTooSmall,
    integrate_timeline,
    lifetime_hours,
    phase_energy,
    v_max_bs,
    v_max_network,
)
from sinksim.radio import E_PREAMB_MJ, grid_topology, power_table
from sinksim.scenario import ScenarioConfig, run_scenario

C = DEFAULT_CONSTANTS

# measured whole-hop energies (mJ) for the two power settings, five neighbors
MEASURED = {
    -25: {"e_tx": 2.440, "e_comp": 0.592, "e_rx": 0.843},
    0: {"e_tx": 3.494, "e_comp": 1.545, "e_rx": 1.796},
}


@pytest.mark.parametrize("dbm", [-25, 0])
def test_phase_energy_reproduces_measurements(dbm):
    pe = phase_energy(power_table(dbm), C, 5, E_PREAMB_MJ[dbm])
    assert pe.e_tx_mj == pytest.approx(MEASURED[dbm]["e_tx"], rel=0.005)
    assert pe.e_comp_mj == pytest.approx(MEASURED[dbm]["e_comp"], rel=0.005)
    assert pe.e_rx_mj == pytest.approx(MEASURED[dbm]["e_rx"], rel=0.005)
    assert pe.e_rx_mj > pe.e_comp_mj  # the elected receiver also takes the data


def test_phase_energy_window_too_small():
    with pytest.raises(WindowTooSmall):
        phase_energy(power_table(-25), C, 63, 0.467)
    with pytest.raises(ValueError):
        phase_energy(power_table(-25), C, 0, 0.467)


def test_phase_energy_listen_term_vanishes_at_the_packing_limit():
    # a window exactly filled by ACKs leaves no listening time
    c = dataclasses.replace(C, w_rr=5 * C.d_ack)
    pe = phase_energy(power_table(-25), c, 5, 0.0)
    row = power_table(-25)
    expected = (5 * C.d_ack * row.rx + C.d_data * row.tx) / 1e6
    assert pe.e_tx_mj == pytest.approx(expected, rel=1e-9)


def test_lifetime_reference_points():
    sampling = lifetime_hours(10_000, 3.300)
    always_on = lifetime_hours(10_000, 61.030)
    assert sampling == pytest.approx(841.75, abs=0.1)
    assert abs(sampling / 850.0 - 1.0) <= 0.02
    assert always_on == pytest.approx(45.52, abs=0.05)
    assert abs(always_on / 45.0 - 1.0) <= 0.02
    assert lifetime_hours(0, 3.300) == 0.0
    with pytest.raises(ValueError):
        lifetime_hours(10_000, 0.0)


def test_v_max_base_station_link():
    v = v_max_bs(C)
    assert v == pytest.approx(50.0 / 0.348 * 3.6, rel=1e-9)
    assert 500.0 <= v <= 520.0
    doubled = dataclasses.replace(C, t_dr=2 * C.t_dr, d_drp=2 * C.d_drp, d_data=2 * C.d_data)
    assert v_max_bs(doubled) == pytest.approx(v / 2)
    assert v_max_bs(C, chord_m=25.0) == pytest.approx(v / 2)
    with pytest.raises(ValueError):
        v_max_bs(C, chord_m=0.0)
    with pytest.raises(ValueError, match=r"^t_dr \+ d_drp \+ d_data must be > 0, got 0$"):
        v_max_bs(dataclasses.replace(C, t_dr=0, d_drp=0, d_data=0))


def test_v_max_network_traverse():
    v = v_max_network(C)
    window_s = (8 * (C.w_br + C.d_brp) + C.b_src + 10 * (C.d_rrp + C.w_rr + C.d_data)) / 1e6
    assert v == pytest.approx(150.0 / window_s * 3.6, rel=1e-9)
    assert 130.0 <= v <= 140.0
    diag = v_max_network(C, RealTimeParams(traverse_m=190.0))
    assert diag == pytest.approx(190.0 / window_s * 3.6, rel=1e-9)
    assert diag == pytest.approx(170.5, abs=0.1)


def test_v_max_network_degenerate_geometry():
    p = RealTimeParams(traverse_m=150.0, worst_hops=0, flood_hops=0)
    assert v_max_network(C, p) == pytest.approx(150.0 / (C.b_src / 1e6) * 3.6)
    message = r"^0 \(w_br \+ d_brp\) \+ b_src \+ 0 \(d_rrp \+ w_rr \+ d_data\) must be > 0, got 0$"
    with pytest.raises(ValueError, match=message):
        v_max_network(dataclasses.replace(C, b_src=0), p)


@pytest.mark.parametrize(
    "field", ["w_br", "d_brp", "b_src", "d_rrp", "w_rr", "d_data"]
)
def test_v_max_network_monotone_in_durations(field):
    slower = dataclasses.replace(C, **{field: getattr(C, field) + 10_000})
    assert v_max_network(slower) < v_max_network(C)


def test_demo_speeds_are_feasible():
    # both the actual flight speed and the design margin sit below the bound
    v = v_max_network(C)
    assert 25.0 < v
    assert 50.0 < v


def test_integrate_timeline_hand_check():
    row = power_table(-25)
    spans = {
        0: [(0, 1_000_000, "tx"), (1_000_000, 3_000_000, "sleep")],
        1: [(0, 500_000, "rx")],
    }
    energy = integrate_timeline(spans, row)
    assert energy[0] == pytest.approx(1.0 * 32.807 + 2.0 * 2.735)
    assert energy[1] == pytest.approx(0.5 * 65.444)


def test_integrate_timeline_rejects_an_unknown_state():
    spans = {0: [(0, 1_000, "tx"), (1_000, 2_000, "warp")]}
    with pytest.raises(KeyError, match="warp"):
        integrate_timeline(spans, power_table(0))


def test_a_rotation_schedule_is_idle_bound():
    # A finding, not a gate: one loss-free rotation per query node of a 4x4
    # grid (seed = query node) at 0 dBm, 713 s of flight.  Every node's
    # average draw lies 0.03-0.29% above the poll draw, so idle polling is
    # over 99.7% of its energy and its lifetime is the poll lifetime to 0.3%.
    g = grid_topology(4, 25.0)
    powers = power_table(0)
    poll = powers.power_mw("poll")
    assert poll == pytest.approx(8.629)
    energy_mj = dict.fromkeys(g.positions, 0.0)
    elapsed_us = 0
    for query in sorted(g.positions):
        report = run_scenario(ScenarioConfig(topology=g, query_node=query, seed=query))
        assert not report.miss
        elapsed_us += report.horizon_us
        for node, e in integrate_timeline(report.timeline, powers).items():
            if node in energy_mj:
                energy_mj[node] += e
    draws = [e / (elapsed_us / 1e6) for e in energy_mj.values()]
    assert all(poll <= draw <= 1.003 * poll for draw in draws)
    poll_lifetime = lifetime_hours(10_000, poll)
    assert poll_lifetime == pytest.approx(321.9, abs=0.05)
    assert all(0.997 * poll_lifetime <= lifetime_hours(10_000, draw) <= poll_lifetime for draw in draws)
