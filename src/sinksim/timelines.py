"""Radio-state timelines of a collection rotation.

Radio activity partitions each node's simulated time into (start, end,
state) spans; un-involved stretches are the idle sampling state.  A hop
exchange (:func:`hop_exchange_timeline`) writes each node's spans already
filled, in time order; :func:`rotation_timeline` assembles a rotation's
view (:class:`~sinksim.radio.Timeline`).  It fills each node that took part
in an exchange once with `_fill_gaps`, the one routine that fills gaps and
clips overlaps.  A node that took part in none holds at most its flood
relay, in the idle state too, so every such node shares one read-only
totals mapping.  The base station's request train is priced in closed form
(`_base_station_totals`).  None of these totals needs spans, which are
filled only when the view's `spans()` is called.
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


def _base_station_totals(c: ProtocolConstants, horizon: int) -> Dict[str, int]:
    """Microseconds per state of the base station's train, a data-request
    preamble (`poll`) every t_dr with listening in between, as `_fill_gaps`
    fills it and keys it, in closed form.

    Each full request period polls for min(d_drp, t_dr), the part before the
    horizon for min(d_drp, rest), and the base station listens for the
    remainder.
    """
    if horizon <= 0:
        return {}
    full, rest = divmod(horizon, c.t_dr)
    poll = full * min(c.d_drp, c.t_dr) + min(c.d_drp, rest)
    totals = {"poll": poll, "listen": horizon - poll}  # the train starts with a preamble
    return {state: us for state, us in totals.items() if us}


def rotation_timeline(
    c: ProtocolConstants,
    horizon: int,
    active: Dict[NodeId, List[Span]],
    relay_start: Mapping[NodeId, int],
    ids: Sequence[NodeId],
) -> Timeline:
    """The view of a rotation's timelines over [0, horizon]: the base
    station's request train, then the sink and each of `ids` in the idle
    `poll` around its spans in `active` and its relay of d_brp from
    `relay_start`.  Both mappings are keyed by the sink and `ids` only.

    Every node outside `active` polls all along, before and after its relay,
    so all of them share one totals mapping.
    """
    d_brp = c.d_brp
    order = [MS_ID, *ids]
    # the sink and the exchange nodes overwrite their entries below, in place
    idle = {"poll": horizon} if horizon > 0 else {}
    totals = {BS_ID: _base_station_totals(c, horizon), **dict.fromkeys(order, idle)}
    clipped: Dict[NodeId, int] = {}
    filled = {}
    for nid, spans in active.items():
        s = relay_start.get(nid)
        if s is not None:
            spans = spans + [(s, s + d_brp, "poll")]
        filled[nid], totals[nid], cut = _fill_gaps(spans, 0, horizon, "poll")
        if cut:
            clipped[nid] = cut

    def build() -> Dict[NodeId, List[Span]]:
        polls = [(k, k + c.d_drp, "poll") for k in range(0, horizon, c.t_dr)]
        out = {BS_ID: _fill_gaps(polls, 0, horizon, "listen")[0]}
        for nid in order:
            if nid in filled:
                out[nid] = filled[nid]
            else:
                s = relay_start.get(nid)
                relay = [] if s is None else [(s, s + d_brp, "poll")]
                out[nid] = _fill_gaps(relay, 0, horizon, "poll")[0]
        return out

    return Timeline(totals, clipped, build)


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
