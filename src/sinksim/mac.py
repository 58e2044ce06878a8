"""Contention mechanics of the on-demand preamble-sampling MAC.

A request triggers N neighbors to answer after backoffs drawn in a contention
window W.  The earliest answer is lost when another answer starts within a
blocking width D of it (the relay case blocks for the rx->tx switch time, the
ACK case for a full ACK duration).  For N independent uniform backoffs the
probability that the runner-up lands within D of the earliest is

    P = 1 - ((W - D) / W) ** N

which the Monte-Carlo simulator reproduces, in continuous backoff mode and in
the discrete mode of the node hardware's 362-level random generator.  It
draws one stream per seed from the standard library's random.Random and keeps
the two smallest backoffs of each run.

One reception rule serves the flood and the ACK election (`lost`): a
reception is lost when another transmission the receiver hears overlaps it.
The election applies it at the requester, which hears every answer for one
ACK duration from its backoff.  So any two answers that start within D of
each other are both lost, and the requester picks the earliest answer it
keeps, which may not carry the minimum metric; the closed form prices the
earliest answer only.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .core import Metric, NodeId


@dataclass(frozen=True)
class ContentionConfig:
    """One contention-window scenario.

    window_us: contention window W.
    block_us: blocking width D (d_rxtx for relay contention, d_ack for ACKs).
    n: number of contending neighbors.
    discrete_levels: when set, backoffs are drawn from this many evenly spaced
    values spanning [0, W] instead of the continuum.
    """

    window_us: float
    block_us: float
    n: int
    discrete_levels: Optional[int] = None

    def __post_init__(self):
        if not self.window_us >= self.block_us > 0:
            raise ValueError("need W >= D > 0")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        # the discrete draws compare in units of the step W / (levels - 1), a float
        if self.discrete_levels is not None and not 2 <= self.discrete_levels <= sys.float_info.max:
            raise ValueError("discrete_levels must be from 2 to the largest float")


def collision_probability(cfg: ContentionConfig) -> float:
    """Closed-form probability that the earliest answer collides.

    Covers both contention families: build cfg with block_us = d_rxtx for
    broadcast relays (a relay is hit when a neighbor starts within the
    rx->tx switch time after it) and with block_us = d_ack for the first ACK
    of a route request (hit when another ACK starts before it ends).
    """
    if cfg.n == 0:
        return 0.0
    return 1.0 - ((cfg.window_us - cfg.block_us) / cfg.window_us) ** cfg.n


def simulate_collision(cfg: ContentionConfig, runs: int, rng_seed: int = 0) -> float:
    """Monte-Carlo estimate of the earliest-answer collision probability.

    Each run draws one backoff per contender, n in order from one
    random.Random(rng_seed) stream, and keeps only the two smallest; a
    collision is the runner-up strictly within block_us of the minimum.
    Continuous backoffs are random() in units of the window, discrete ones
    randrange(levels) in units of the step window_us / (levels - 1).
    Deterministic for a given seed.

    With a single contender there is no pair, so the estimate is exactly 0;
    the closed form instead degenerates to D/W there (it prices one contender
    against an already-committed first sender).  The two readings coincide
    for every n >= 2.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if cfg.n < 2:
        return 0.0
    rng = random.Random(rng_seed)
    levels = cfg.discrete_levels
    if levels is None:
        draw, top, limit = rng.random, 1.0, cfg.block_us / cfg.window_us
    else:
        getrandbits, bits = rng.getrandbits, levels.bit_length()

        def draw() -> int:
            # randrange(levels)'s own rejection draw and stream, at less cost
            r = getrandbits(bits)
            while r >= levels:
                r = getrandbits(bits)
            return r

        top, limit = levels, (levels - 1) * (cfg.block_us / cfg.window_us)
    contenders = range(cfg.n)
    collided = 0
    for _ in range(runs):
        first = second = top  # above every draw
        for _ in contenders:
            x = draw()
            if x < second:
                if x < first:
                    first, second = x, first
                else:
                    second = x
        if second - first < limit:
            collided += 1
    return collided / runs


def ack_backoff(metric: Metric, metric_max: Metric, window_us: float) -> float:
    """Backoff before answering a request, proportional to the node's metric.

    The sink answers with metric 0, hence immediately; the worst metric maps
    to the full window.
    """
    if metric_max <= 0:
        raise ValueError("metric_max must be > 0")
    if not 0 <= metric <= metric_max:
        raise ValueError("need 0 <= metric <= metric_max")
    return window_us * metric / metric_max


def lost(heard: Iterable[Tuple[float, float]], start: float, end: float) -> bool:
    """Whether a reception of [start, end) is lost.

    `heard` holds the (start, end) of every transmission the receiver hears,
    the received one included; the reception is lost when a second one
    overlaps it.  Spans that only touch do not overlap.
    """
    overlapping = 0
    for s, e in heard:
        if s < end and e > start:
            overlapping += 1
    return overlapping > 1


def elect_next_hop(answers: Sequence[Tuple[NodeId, float]], ack_us: float) -> Optional[NodeId]:
    """Resolve a contention round at the requester; the winner or None.

    `answers` are (node, backoff_us) pairs, and the requester hears each
    answer from its backoff for `ack_us`.  The winner is the answer with the
    smallest (backoff, node) among those that `lost` keeps; None when every
    answer is lost.
    """
    heard = [(b, b + ack_us) for _, b in answers]
    kept = [(b, node) for node, b in answers if not lost(heard, b, b + ack_us)]
    return min(kept)[1] if kept else None
