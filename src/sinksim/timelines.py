"""Radio-state timelines of a collection rotation.

Radio activity partitions each node's simulated time into (start, end,
state) spans; un-involved stretches are the idle sampling state.  A hop
exchange (:func:`hop_exchange_timeline`) writes each node's spans already
filled, in time order; `_fill_gaps`, the one routine that fills gaps and
clips overlaps, fills the rest.  The base station's request train is priced
in closed form (`_base_station_totals`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .core import NodeId, ProtocolConstants
from .radio import Span, Timeline

MS_ID = -1  # mobile sink pseudo node in timelines
BS_ID = -2  # base station pseudo node in timelines


def _fill_gaps(
    active: List[Span], start: int, end: int, idle: str
) -> Tuple[List[Span], Dict[str, int], int]:
    """Spans covering [start, end], the idle state in the gaps, each state's
    microseconds, and the active microseconds clipped where spans overlap.

    Active (start, end, state) spans are taken in sorted order and clipped to
    [start, end]; one left empty is skipped, and one that starts before the
    span before it ends keeps only its part after that end; the part cut off
    counts as clipped.  The totals are added up in the same pass, each state
    keyed in order of first appearance, as `radio.state_totals` keys them.
    """
    out: List[Span] = []
    totals: Dict[str, int] = {}
    clipped = 0
    t = start
    for s, e, state in sorted(active):
        if s < start:
            s = start
        if e > end:
            e = end
        if e <= s:
            continue
        if s < t:
            if e <= t:
                clipped += e - s
                continue
            clipped += t - s
            s = t
        elif s > t:
            out.append((t, s, idle))
            totals[idle] = totals.get(idle, 0) + (s - t)
        out.append((s, e, state))
        totals[state] = totals.get(state, 0) + (e - s)
        t = e
    if t < end:
        out.append((t, end, idle))
        totals[idle] = totals.get(idle, 0) + (end - t)
    return out, totals, clipped


def _base_station_totals(c: ProtocolConstants, horizon: int) -> Tuple[Dict[str, int], int]:
    """Microseconds per state and segment count of the base station's train,
    a data-request preamble (`poll`) every t_dr with listening in between, as
    `_fill_gaps` fills it, in closed form.

    Each full request period polls for min(d_drp, t_dr), the part before the
    horizon for min(d_drp, rest), and the base station listens for the
    remainder.  With d_drp = 0 that is one listening stretch.  Otherwise a
    preamble adds a segment unless the one before it already reached the
    horizon (with overlapping preambles each ends where the next begins), a
    listening stretch precedes every later preamble while d_drp < t_dr, and
    one follows the last preamble if it ends before the horizon.
    """
    if horizon <= 0:
        return {}, 0
    period, d_drp = c.t_dr, c.d_drp
    if d_drp == 0:
        return {"listen": horizon}, 1
    full, rest = divmod(horizon, period)
    preambles = full + (rest > 0)  # those starting before the horizon
    poll = full * min(d_drp, period) + min(d_drp, rest)
    # the first preamble, then those whose predecessor ends before the horizon
    polls = 1 + min(preambles - 1, max(0, -((d_drp - horizon) // period)))
    listens = (preambles - 1 if d_drp < period else 0) + (
        (preambles - 1) * period + d_drp < horizon
    )
    totals = {"listen": horizon - poll, "poll": poll}
    return {state: us for state, us in totals.items() if us}, polls + listens


def hop_exchange_timeline(
    c: ProtocolConstants,
    sender: NodeId,
    responders: Sequence[Tuple[NodeId, int]],
    data_target: Optional[NodeId],
    t0: int = 0,
    cca_offsets: Optional[Dict[NodeId, int]] = None,
) -> Dict[NodeId, List[Span]]:
    """Radio states of one routing hop: preamble, ACK window, data.

    `responders` are (node, ack backoff in us) pairs.  The sender runs the
    micro-frame train for d_rrp (recorded as the sampling-average `poll`
    state), listens through the whole contention window receiving each ACK,
    then transmits the data to `data_target`, which receives it.  Every
    responder wakes once during the preamble for a d_cca channel check and
    otherwise sleeps through the exchange apart from its own ACK.  Returns
    each node's spans, the sender's first.

    The spans are written filled, in time order, as `_fill_gaps` would fill
    them: no span is empty and each starts where the one before it ends.  A
    node whose spans could overlap or leave the exchange (a negative
    duration, a backoff below 0 or above w_rr - d_ack, or d_rrp < d_cca) is
    handed to `_fill_gaps` instead, so that its clip rule stays in one place.
    """
    cca_offsets = cca_offsets or {}
    d_cca, d_ack = c.d_cca, c.d_ack
    t_win = t0 + c.d_rrp
    t_data = t_win + c.w_rr
    t_end = t_data + (c.d_data if data_target is not None else 0)
    # every span below stays inside its own stretch of the exchange
    plain = min(d_cca, d_ack, c.d_rrp - d_cca, c.w_rr, c.d_data) >= 0

    acks = sorted(t_win + int(backoff) for _, backoff in responders)
    # sender: preamble train, then listen with rx during each (merged) ACK
    rx_spans: List[Tuple[int, int]] = []
    for s in acks:
        if s >= t_data:
            break
        e = min(s + d_ack, t_data)
        if rx_spans and s <= rx_spans[-1][1]:
            rx_spans[-1] = (rx_spans[-1][0], max(rx_spans[-1][1], e))
        else:
            rx_spans.append((s, e))
    if plain and (not acks or acks[0] >= t_win):
        spans = [(t0, t_win, "poll")] if t_win > t0 else []
        t = t_win
        for s, e in rx_spans:
            if e > s:
                if s > t:
                    spans.append((t, s, "listen"))
                spans.append((s, e, "rx"))
                t = e
        if t_data > t:
            spans.append((t, t_data, "listen"))
        if t_end > t_data:
            spans.append((t_data, t_end, "tx"))
    else:
        active = [(t0, t_win, "poll")] + [(s, e, "rx") for s, e in rx_spans]
        if data_target is not None:
            active.append((t_data, t_end, "tx"))
        spans = _fill_gaps(active, t0, t_end, "listen")[0]
    timeline = {sender: spans}

    last_ack = t_data - d_ack
    for node, backoff in responders:
        offset = cca_offsets.get(node, 0)
        offset = min(max(offset, 0), c.d_rrp - d_cca)
        cca = t0 + offset
        ack = t_win + int(backoff)
        if plain and offset >= 0 and t_win <= ack <= last_ack:
            # channel check, ACK and data in order, sleep in the gaps
            spans = []
            t = t0
            if d_cca:
                if cca > t:
                    spans.append((t, cca, "sleep"))
                t = cca + d_cca
                spans.append((cca, t, "rx"))
            if d_ack:
                if ack > t:
                    spans.append((t, ack, "sleep"))
                t = ack + d_ack
                spans.append((ack, t, "tx"))
            if node == data_target and t_end > t_data:
                if t_data > t:
                    spans.append((t, t_data, "sleep"))
                spans.append((t_data, t_end, "rx"))
            elif t_end > t:
                spans.append((t, t_end, "sleep"))
        else:
            active = [(cca, cca + d_cca, "rx"), (ack, ack + d_ack, "tx")]
            if node == data_target:
                active.append((t_data, t_end, "rx"))
            spans = _fill_gaps(active, t0, t_end, "sleep")[0]
        timeline.setdefault(node, []).extend(spans)
    return timeline


def timeline_coverage(
    timeline: Union[Timeline, Mapping[NodeId, Sequence[Span]]]
) -> Dict[NodeId, int]:
    """Total covered microseconds per node.

    A `Timeline` view's state totals are summed per node (its overlaps are
    counted in `clipped_us`); plain per-node spans raise ValueError where a
    node's spans overlap.
    """
    if isinstance(timeline, Timeline):
        return {node: sum(states.values()) for node, states in timeline.totals.items()}
    totals = {}
    for node, spans in timeline.items():
        total = 0
        last_end = None
        for s, e, _ in sorted(spans):
            if last_end is not None and s < last_end:
                raise ValueError(f"overlapping spans for node {node}")
            total += e - s
            last_end = e
        totals[node] = total
    return totals
