"""Contention mechanics of the on-demand preamble-sampling MAC.

A request triggers N neighbors to answer after backoffs drawn in a contention
window W.  The earliest answer is lost when another answer starts within a
blocking width D of it (the relay case blocks for the rx->tx switch time, the
ACK case for a full ACK duration).  For N independent uniform backoffs the
probability that the runner-up lands within D of the earliest is

    P = 1 - ((W - D) / W) ** N

which the Monte-Carlo simulator reproduces, in continuous backoff mode and in
the discrete mode of the node hardware's 362-level random generator.

Election is harsher than the closed form on purpose: any pair of answers that
start within D of each other destroy each other, and the requester picks the
earliest survivor, which may not carry the minimum metric.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from .core import Duration, Metric, NodeId


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
        if self.discrete_levels is not None and self.discrete_levels < 2:
            raise ValueError("discrete_levels must be >= 2")


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

    Each run draws one backoff per contender (n draws); a collision is any
    other draw strictly within block_us of the minimum.  Deterministic for a
    given seed.

    With a single contender there is no pair, so the estimate is exactly 0;
    the closed form instead degenerates to D/W there (it prices one contender
    against an already-committed first sender).  The two readings coincide
    for every n >= 2.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if cfg.n < 2:
        return 0.0
    rng = np.random.default_rng(rng_seed)
    if cfg.discrete_levels is None:
        backoffs = rng.random((runs, cfg.n)) * cfg.window_us
    else:
        levels = cfg.discrete_levels
        step = cfg.window_us / (levels - 1)
        backoffs = rng.integers(0, levels, size=(runs, cfg.n)) * step
    two_smallest = np.partition(backoffs, 1, axis=1)
    collided = (two_smallest[:, 1] - two_smallest[:, 0]) < cfg.block_us
    return float(np.count_nonzero(collided)) / runs


def min_window(target_p: float, block_us: float, n: int) -> Duration:
    """Smallest integer-microsecond window keeping the closed form <= target_p."""
    if not 0 < target_p < 1:
        raise ValueError("target_p must be in (0, 1)")
    if n < 1:
        return int(block_us) + 1
    w = block_us / (1.0 - (1.0 - target_p) ** (1.0 / n))
    w_us = max(int(math.ceil(w)), int(block_us) + 1)

    def p(window_us: int) -> float:
        return collision_probability(ContentionConfig(window_us, block_us, n))

    while p(w_us) > target_p:
        w_us += 1
    while w_us - 1 > block_us and p(w_us - 1) <= target_p:
        w_us -= 1
    return w_us


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


@dataclass
class AckEvent:
    node: NodeId
    metric: Metric
    backoff_us: float
    lost: bool = False


@dataclass
class ElectionResult:
    winner: Optional[NodeId]
    acks: List[AckEvent] = field(default_factory=list)
    correct: bool = False


def elect_next_hop(
    acks: Sequence[AckEvent],
    block_us: float,
    capture_p: float = 0.0,
    rng: Optional[random.Random] = None,
) -> ElectionResult:
    """Resolve a contention round: pairwise losses, then earliest survivor.

    Any two answers starting strictly within block_us of each other are both
    lost; answers already flagged lost stay lost.  The winner is the
    surviving answer with the smallest backoff, and the election is `correct`
    when the winner also carries the minimum metric of the whole input.

    Real receivers sometimes decode the earliest of two overlapping answers
    anyway; `capture_p` is the probability that the earliest answer survives
    an overlap it would otherwise lose.  No measured distribution backs a
    default, so it stays off unless explicitly set.
    """
    resolved = [replace(a) for a in acks]
    pre_lost = {id(a) for a in resolved if a.lost}
    for i, a in enumerate(resolved):
        for b in resolved[i + 1 :]:
            if abs(a.backoff_us - b.backoff_us) < block_us:
                a.lost = True
                b.lost = True
    if capture_p > 0.0 and resolved:
        earliest = min(resolved, key=lambda a: (a.backoff_us, a.node))
        if earliest.lost and id(earliest) not in pre_lost:
            draw = (rng or random).random()
            if draw < capture_p:
                earliest.lost = False
    alive = [a for a in resolved if not a.lost]
    if not alive:
        return ElectionResult(winner=None, acks=resolved, correct=False)
    winner = min(alive, key=lambda a: (a.backoff_us, a.node))
    best_metric = min(a.metric for a in resolved)
    return ElectionResult(winner=winner.node, acks=resolved, correct=winner.metric == best_metric)
