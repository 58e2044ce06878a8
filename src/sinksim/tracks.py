"""Sink mobility: the round-based tracks of the routing sweeps and the
event-time flight path of the six-phase run.

A round-based track moves by one step per routing round and exposes its
`position` and whether it has `departed`; :func:`sinksim.routing.route`
reads both.  A grid crossing draws nothing per walk, so it takes the same
path in every walk: :func:`line_crossing` records that path once, as far as
a walk's round limit, and each walk steps a :class:`Replay` of the
recording.  :class:`WaypointTrack` is a piecewise-linear path flown at a
constant ground speed, read as a function of elapsed microseconds.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from typing import List, Sequence, Tuple

from .core import Position
from .radio import euclid


class StaticSink:
    """Sink that never moves; `route` fails instead of restarting against it."""

    def __init__(self, position: Position):
        self.position = (float(position[0]), float(position[1]))
        self.departed = False

    def step(self) -> None:
        pass


def _check_speed(speed: float) -> None:
    if not 0.0 <= speed < math.inf:
        raise ValueError(f"speed must be finite and >= 0, got {speed!r}")


class BounceTrack:
    """Random drift bouncing off the field borders like a billiard ball.

    Each round both coordinates advance by independent uniform draws in
    [0, speed_max] along the current diagonal direction; hitting a border
    flips that direction component.  A speed that is negative or not finite
    raises ValueError.
    """

    def __init__(
        self,
        position: Position,
        speed_max: float,
        field_size: float = 1000.0,
        seed: int = 0,
    ):
        _check_speed(speed_max)
        self.position = (float(position[0]), float(position[1]))
        self.speed_max = float(speed_max)
        self.field_size = float(field_size)
        self.rng = random.Random(seed)
        self.direction = (self.rng.choice((-1, 1)), self.rng.choice((-1, 1)))
        self.departed = False

    def _reflect(self, value: float, sign: int) -> Tuple[float, int]:
        """A coordinate past a border, folded back into the field, and its
        direction sign after the bounces."""
        while not 0.0 <= value <= self.field_size:
            if not -self.field_size <= value <= 2 * self.field_size:
                # The bounce repeats every two widths: drop whole periods at
                # once, not one width per pass.
                value = math.fmod(value, 2 * self.field_size)
            if value > self.field_size:
                value = 2 * self.field_size - value
                sign = -1
            elif value < 0.0:
                value = -value
                sign = 1
        return value, sign

    def step(self) -> None:
        # rng.uniform(0.0, s) is 0.0 + (s - 0.0) * rng.random(), i.e. s * rng.random().
        draw = self.rng.random
        dx = self.speed_max * draw()
        dy = self.speed_max * draw()
        (x, y), (sx, sy) = self.position, self.direction
        x += sx * dx
        y += sy * dy
        if not 0.0 <= x <= self.field_size:
            x, sx = self._reflect(x, sx)
        if not 0.0 <= y <= self.field_size:
            y, sy = self._reflect(y, sy)
        self.position = (x, y)
        self.direction = (sx, sy)


def line_crossing(
    start: Position, end: Position, speed: float, steps: int
) -> Tuple[List[Position], List[bool]]:
    """A straight crossing from `start` to `end` at a constant per-round
    `speed`, recorded for :class:`Replay`: the positions and `departed` flags
    before the first round and after each of `steps` rounds.

    Each round adds `speed` to the distance traveled; the position is
    start + (end - start) * frac, with frac that distance over the line's
    length, capped at 1 (and 1 on a line of length 0).  The sink has departed
    once the distance reaches the length.  The floats come from that running
    sum, not from a closed form in the round count.  A walk with round limit
    L reads L + 1 states.  A speed that is negative or not finite raises
    ValueError.
    """
    _check_speed(speed)
    start = (float(start[0]), float(start[1]))
    end = (float(end[0]), float(end[1]))
    speed = float(speed)
    length = euclid(start, end)
    (x0, y0), dx, dy = start, end[0] - start[0], end[1] - start[1]
    traveled, departed = 0.0, length == 0.0
    positions, flags = [start], [departed]
    for _ in range(steps):
        traveled += speed
        frac = min(traveled / length, 1.0) if length else 1.0
        positions.append((x0 + dx * frac, y0 + dy * frac))
        departed = departed or traveled >= length
        flags.append(departed)
    return positions, flags


class Replay:
    """A recorded sink path (:func:`line_crossing`) stepped again, state by
    state.

    Many walks can replay one recording, each with its own `Replay`; the
    recording is only read.  Stepping past its last state raises IndexError.
    """

    __slots__ = ("_positions", "_departed", "_i", "position", "departed")

    def __init__(self, recording: Tuple[Sequence[Position], Sequence[bool]]):
        self._positions, self._departed = recording
        self._i = 0
        self.position = self._positions[0]
        self.departed = self._departed[0]

    def step(self) -> None:
        i = self._i = self._i + 1
        self.position = self._positions[i]
        self.departed = self._departed[i]


# ---------------------------------------------------------------------------
# Event-time sink path
# ---------------------------------------------------------------------------


class WaypointTrack:
    """Piecewise-linear flight path traversed at constant ground speed."""

    def __init__(self, points: Sequence[Position], speed_mps: float):
        if len(points) < 2:
            raise ValueError("need at least two waypoints")
        if not 0 < speed_mps < math.inf:
            raise ValueError(f"speed must be finite and positive, got {speed_mps!r}")
        self.points = [(float(x), float(y)) for x, y in points]
        self.speed_mps = float(speed_mps)
        self.cum = [0.0]
        for a, b in zip(self.points, self.points[1:]):
            self.cum.append(self.cum[-1] + euclid(a, b))
        # a non-finite length would keep the sink from ever arriving or leaving
        if not math.isfinite(self.cum[-1]):
            raise ValueError("waypoints must be finite")

    @property
    def total_length(self) -> float:
        return self.cum[-1]

    def duration_us(self) -> int:
        return int(math.ceil(self.total_length / self.speed_mps * 1e6))

    def distance_at(self, dt_us: float) -> float:
        return min(self.speed_mps * dt_us / 1e6, self.total_length)

    def position_at(self, dt_us: float) -> Position:
        d = self.distance_at(dt_us)
        cum = self.cum
        # the first segment that ends at or past d, else the last one
        i = bisect_left(cum, d, 1, len(cum) - 1) - 1
        seg = cum[i + 1] - cum[i]
        frac = (d - cum[i]) / seg if seg else 1.0
        frac = min(max(frac, 0.0), 1.0)
        ax, ay = self.points[i]
        bx, by = self.points[i + 1]
        return (ax + (bx - ax) * frac, ay + (by - ay) * frac)
