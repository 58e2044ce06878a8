"""Sink mobility: the round-based tracks of the routing sweeps and the
event-time flight path of the six-phase run.

A round-based track moves by one step per routing round and exposes its
`position` and whether it has `departed`; :func:`sinksim.routing.route`
reads both.  A track that draws nothing per walk, such as a grid crossing,
takes the same path in every walk: :func:`record` steps it once, as far as
a walk's round limit, and each walk steps a :class:`Replay` of that
recording instead of a track of its own.  :class:`WaypointTrack` is a
piecewise-linear path flown at a constant ground speed, read as a function
of elapsed microseconds.
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


class LineTrack:
    """Constant-speed straight line; departed once the far end is reached.

    A speed that is negative or not finite raises ValueError.
    """

    def __init__(self, start: Position, end: Position, speed: float):
        _check_speed(speed)
        self.start = (float(start[0]), float(start[1]))
        self.end = (float(end[0]), float(end[1]))
        self.speed = float(speed)
        self.length = euclid(self.start, self.end)
        self.traveled = 0.0
        self.position = self.start
        self.departed = self.length == 0.0
        # The constant parts of a step's position, start + (end - start) * frac.
        self._x0, self._y0 = self.start
        self._dx, self._dy = self.end[0] - self._x0, self.end[1] - self._y0

    def step(self) -> None:
        self.traveled += self.speed
        if self.length:
            frac = self.traveled / self.length
            if frac > 1.0:  # min(frac, 1.0) without the call
                frac = 1.0
        else:
            frac = 1.0
        self.position = (self._x0 + self._dx * frac, self._y0 + self._dy * frac)
        if self.traveled >= self.length:
            self.departed = True


def edge_line(field: float, speed: float) -> LineTrack:
    """Crossing along one side of the square field (shortest connected time)."""
    return LineTrack((0.0, 0.0), (field, 0.0), speed)


def diagonal_line(field: float, speed: float) -> LineTrack:
    """Corner-to-corner crossing (longest connected time)."""
    return LineTrack((0.0, 0.0), (field, field), speed)


def record(track, steps: int) -> Tuple[List[Position], List[bool]]:
    """The positions and `departed` flags of a round-based track before its
    first step and after each of `steps` steps.

    They come from stepping the track itself, not from a closed form: a
    :class:`LineTrack` adds its speed up step by step, and only that sum
    gives its floats.  A walk with round limit L reads L + 1 of them.
    """
    positions, departed = [track.position], [track.departed]
    for _ in range(steps):
        track.step()
        positions.append(track.position)
        departed.append(track.departed)
    return positions, departed


class Replay:
    """A recorded track (:func:`record`) stepped again, state by state.

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
