"""Closed-form energy and real-time calculators.

One routing hop splits its energy three ways.  The sender pays for the
preamble (a measured input, the per-state table has no entry for the
micro-frame train), listens through the contention window while receiving the
N neighbor ACKs, and transmits the data:

    E_tx = E_preamb + (W_RR - N*D_ACK) * P_listen + N*D_ACK * P_rx
           + D_DATA * P_tx

Every neighbor pays for one channel check during the preamble and one ACK,
sleeping through the rest of the exchange; the elected one additionally
receives the data:

    E_comp = (D_RRp + W_RR + D_DATA - D_cca - D_ACK) * P_sleep
             + D_cca * P_rx + D_ACK * P_tx
    E_rx   = (D_RRp + W_RR - D_cca - D_ACK) * P_sleep
             + D_cca * P_rx + D_ACK * P_tx + D_DATA * P_rx

The speed bounds answer how fast the sink may fly: it is connected to a node
for a 50 m stretch of its path, and the whole exchange (or, network side, the
flood plus the source wait plus a worst-case hop chain) must fit into that
stretch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Union

from .core import US_PER_S, NodeId, ProtocolConstants, seconds
from .radio import RadioPowerTable, Span, Timeline, state_totals

MPS_TO_KMH = 3.6


class WindowTooSmall(ValueError):
    """The contention window cannot hold the expected number of ACKs."""


@dataclass(frozen=True)
class PhaseEnergy:
    """Energy of one hop exchange, millijoules."""

    e_preamb_mj: float
    e_tx_mj: float
    e_comp_mj: float
    e_rx_mj: float


def phase_energy(
    powers: RadioPowerTable,
    c: ProtocolConstants,
    n_neighbors: int,
    e_preamb_mj: float,
) -> PhaseEnergy:
    """Evaluate the three per-hop energy expressions exactly."""
    if n_neighbors < 1:
        raise ValueError("need at least one neighbor")
    if c.w_rr < n_neighbors * c.d_ack:
        raise WindowTooSmall(
            f"{n_neighbors} ACKs of {c.d_ack} us do not fit a {c.w_rr} us window"
        )
    w_rr = seconds(c.w_rr)
    d_ack = seconds(c.d_ack)
    d_data = seconds(c.d_data)
    d_rrp = seconds(c.d_rrp)
    d_cca = seconds(c.d_cca)

    e_tx = (
        e_preamb_mj
        + (w_rr - n_neighbors * d_ack) * powers.listen
        + n_neighbors * d_ack * powers.rx
        + d_data * powers.tx
    )
    e_comp = (
        (d_rrp + w_rr + d_data - d_cca - d_ack) * powers.sleep
        + d_cca * powers.rx
        + d_ack * powers.tx
    )
    e_rx = (
        (d_rrp + w_rr - d_cca - d_ack) * powers.sleep
        + d_cca * powers.rx
        + d_ack * powers.tx
        + d_data * powers.rx
    )
    return PhaseEnergy(e_preamb_mj, e_tx, e_comp, e_rx)


def lifetime_hours(battery_joules: float, avg_power_mw: float) -> float:
    """Hours until a battery is drained at a constant average draw."""
    if battery_joules < 0 or avg_power_mw <= 0:
        raise ValueError("need battery_joules >= 0 and avg_power_mw > 0")
    return battery_joules / (avg_power_mw / 1000.0) / 3600.0


def v_max_bs(c: ProtocolConstants, chord_m: float = 50.0) -> float:
    """Top sink speed (km/h) for the base-station exchange to fit one pass.

    Worst case is the data return leg: a full request period, the preamble,
    and the longest data packet must fit while the sink crosses the chord.
    Raises ValueError when the chord or that window is not > 0.
    """
    if chord_m <= 0:
        raise ValueError("chord_m must be > 0")
    window_us = c.t_dr + c.d_drp + c.d_data
    if not window_us > 0:
        raise ValueError(f"t_dr + d_drp + d_data must be > 0, got {window_us}")
    return chord_m / seconds(window_us) * MPS_TO_KMH


@dataclass(frozen=True)
class RealTimeParams:
    """Geometry and worst-case hop counts for the network-side speed bound."""

    traverse_m: float = 150.0     # 190.0 on the diagonal crossing
    worst_hops: int = 10
    flood_hops: int = 8


def v_max_network(c: ProtocolConstants, p: RealTimeParams = RealTimeParams()) -> float:
    """Top sink speed (km/h) for query broadcast plus answer routing to fit
    the stretch of path along which the sink is connected to the network.

    Raises ValueError when the traverse or that window is not > 0."""
    if p.traverse_m <= 0:
        raise ValueError("traverse_m must be > 0")
    window_us = p.flood_hops * (c.w_br + c.d_brp) + c.b_src + p.worst_hops * (c.d_rrp + c.w_rr + c.d_data)
    if not window_us > 0:
        raise ValueError(
            f"{p.flood_hops} (w_br + d_brp) + b_src + {p.worst_hops} (d_rrp + w_rr + d_data)"
            f" must be > 0, got {window_us}"
        )
    return p.traverse_m / seconds(window_us) * MPS_TO_KMH


def integrate_timeline(
    timeline: Union[Timeline, Mapping[NodeId, Iterable[Span]]], powers: RadioPowerTable
) -> Dict[int, float]:
    """Energy per node (mJ) from radio-state timelines and a power table.

    Energy is time in each state times that state's draw.  A `Timeline` view
    already carries each node's microseconds per state; plain per-node spans
    are first folded into those integer totals.  Each distinct totals
    mapping is then priced once, its states added in key order, so nodes
    that share one mapping share its energy.  Raises KeyError for a state
    the power table does not know.
    """
    if isinstance(timeline, Timeline):
        totals = timeline.totals
    else:
        totals = {node: state_totals(spans) for node, spans in timeline.items()}
    energy: Dict[int, float] = {}
    power: Dict[str, float] = {}  # each state's draw, looked up once
    # each mapping's energy by its id(), which stays unique while `totals`
    # holds every mapping
    priced: Dict[int, float] = {}
    for node, states in totals.items():
        e = priced.get(id(states))
        if e is None:
            e = 0.0
            for state, us in states.items():
                p = power.get(state)
                if p is None:
                    p = power[state] = powers.power_mw(state)
                e += us / US_PER_S * p  # the same float as seconds(us) * p
            priced[id(states)] = e
        energy[node] = e
    return energy
