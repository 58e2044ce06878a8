"""Shared domain types and the protocol timing table.

All durations are integer microseconds.  Every timer value is an exact
microsecond multiple, so integer arithmetic keeps event ordering exact and
float drift out of the simulators.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Tuple

NodeId = int          # one byte is enough to identify each node
MAX_NODE_ID = 0xFF    # a DATA payload carries each id in one byte
Duration = int        # microseconds
Position = Tuple[float, float]
Metric = float        # non-negative virtual distance to the sink

US_PER_S = 1_000_000

# Target band for the idle duty cycle D_cca / T_cca.  The nominal rule is
# "T_cca = 100 x D_cca" but the compiled-in default (140 ms) is itself a
# rounded value, so the check accepts a 1.00%..1.05% band.
DUTY_CYCLE_MIN = 0.0100
DUTY_CYCLE_MAX = 0.0105


@dataclass(frozen=True)
class ProtocolConstants:
    """Timer and duration table shared by every protocol component.

    The defaults are the compiled-in values used on the real nodes.  Pass a
    modified copy (see :func:`dataclasses.replace`) to perturb a timer;
    nothing here is global state.
    """

    d_mf: Duration = 512          # one micro-frame on air
    t_mf: Duration = 930          # micro-frame period inside a preamble
    d_cca: Duration = 1_442       # clear channel assessment, d_mf + t_mf
    t_cca: Duration = 140_000     # CCA period, ~100 x d_cca
    d_ack: Duration = 480
    d_data: Duration = 4_000      # 120 payload bytes at 250 kbps
    d_drp: Duration = 144_000     # data-request preamble, 155 micro-frames
    t_dr: Duration = 200_000      # data-request period
    t_brp: Duration = 300_000     # broadcast-request retry period
    d_brp: Duration = 144_000     # broadcast-request preamble
    w_br: Duration = 10_000       # broadcast relay contention window
    b_src: Duration = 1_000_000   # source node wait for the flood to pass
    d_rrp: Duration = 144_000     # route-request preamble
    w_rr: Duration = 30_000       # ACK contention window
    b_rr: Duration = 500          # relay watchdog listen time
    d_rxtx: Duration = 192        # radio reception->transmission switch
    mf_count: int = 155           # micro-frames per preamble
    bitrate: int = 250_000        # bits per second on air


DEFAULT_CONSTANTS = ProtocolConstants()


def duty_cycle(c: ProtocolConstants) -> float:
    """Fraction of time the radio is on while the network sits idle."""
    return c.d_cca / c.t_cca


def b_src_min(max_degree: int, c: ProtocolConstants = DEFAULT_CONSTANTS) -> int:
    """Strict lower bound for the source wait: the worst case is every one of
    the source's neighbors holding an un-relayed copy, sent back to back."""
    return max_degree * (c.w_br + c.d_brp)


def validate_constants(c: ProtocolConstants) -> list:
    """Check the cross-field constraints of the timing table.

    Returns a list of violated constraint names, empty when the table is
    consistent.  Violations are data, not errors: callers decide whether a
    perturbed table is acceptable.
    """
    violations = []
    if any(getattr(c, f.name) < 0 for f in fields(c)):
        violations.append("durations >= 0")
    if c.d_cca < c.d_mf + c.t_mf:
        violations.append("D_cca >= D_mf + T_mf")
    if c.t_cca <= 0 or not (DUTY_CYCLE_MIN <= duty_cycle(c) <= DUTY_CYCLE_MAX):
        violations.append("T_cca = 100×D_cca")
    if c.t_dr <= c.d_data + c.d_drp:
        violations.append("T_DR > D_DATA + D_DRp")
    if c.t_brp <= 2 * c.d_brp + c.w_br:
        violations.append("T_BRp > 2·D_BRp + W_BR")
    if c.b_src <= b_src_min(6, c):
        violations.append("B_SRC > 6·(D_BRp+W_BR)")
    return violations


def seconds(value_us: float) -> float:
    """Microseconds to seconds."""
    return value_us / US_PER_S
