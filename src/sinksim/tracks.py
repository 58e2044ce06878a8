"""Sink mobility: the round-based tracks of the routing sweeps and the
event-time flight path of the six-phase run.

A sink, as :func:`sinksim.routing.route` reads it, is an iterator of its
:data:`State`, (position, departed), one per round: the walk takes the
first before round 0 and the next at the end of every round that does not
end the walk.  A static sink is ``itertools.repeat`` of one state.
:func:`bounce` drifts at random off the field borders.  A grid crossing
draws nothing per walk, so it takes the same path in every walk:
:func:`line_crossing` records that path once, as far as a walk's round
limit, as a list of states that each walk iterates.
:class:`WaypointTrack` is a piecewise-linear path flown at a constant
ground speed, read as a function of elapsed microseconds.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from typing import Callable, Iterator, List, Sequence, Tuple

from .core import Position
from .radio import euclid

# The sink as one round of a routing walk reads it: its position, and
# whether it has left the field.
State = Tuple[Position, bool]


def _check_speed(speed: float) -> None:
    if not 0.0 <= speed < math.inf:
        raise ValueError(f"speed must be finite and >= 0, got {speed!r}")


def _fold(value: float, sign: int, field: float) -> Tuple[float, int]:
    """A coordinate past a border of the `field`-wide square, folded back
    into it, and its direction sign after the bounces."""
    while not 0.0 <= value <= field:
        if not -field <= value <= 2 * field:
            # The bounce repeats every two widths: drop whole periods at
            # once, not one width per pass.
            value = math.fmod(value, 2 * field)
        if value > field:
            value = 2 * field - value
            sign = -1
        elif value < 0.0:
            value = -value
            sign = 1
    return value, sign


def bounce(
    position: Position, speed_max: float, field_size: float = 1000.0, seed: int = 0
) -> Iterator[State]:
    """Random drift bouncing off the borders of the `field_size`-wide square
    like a billiard ball, from `position` on; the sink never departs.

    The direction starts as a random diagonal.  Each round both coordinates
    advance by independent uniform draws in [0, speed_max] along it, and
    hitting a border flips that direction component.  A speed that is
    negative or not finite, a start that is not finite, or a field size
    that is not finite and > 0 raises ValueError here, before the first
    state: the fold would never end on them.
    """
    _check_speed(speed_max)
    x, y = float(position[0]), float(position[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"start must be finite, got {position!r}")
    field = float(field_size)
    if not 0.0 < field < math.inf:
        raise ValueError(f"field size must be finite and > 0, got {field_size!r}")
    rng = random.Random(seed)
    sx, sy = rng.choice((-1, 1)), rng.choice((-1, 1))
    return _bouncing(x, y, sx, sy, float(speed_max), field, rng.random)


def _bouncing(
    x: float, y: float, sx: int, sy: int, speed: float, field: float, draw: Callable[[], float]
) -> Iterator[State]:
    """The states of :func:`bounce`, from its checked start and drawn direction on."""
    while True:
        yield (x, y), False
        # rng.uniform(0.0, s) is 0.0 + (s - 0.0) * rng.random(), i.e. s * rng.random().
        dx = speed * draw()
        dy = speed * draw()
        x += sx * dx
        y += sy * dy
        if not 0.0 <= x <= field:
            x, sx = _fold(x, sx, field)
        if not 0.0 <= y <= field:
            y, sy = _fold(y, sy, field)


def line_crossing(start: Position, end: Position, speed: float, steps: int) -> List[State]:
    """A straight crossing from `start` to `end` at a constant per-round
    `speed`, recorded: the states before the first round and after each of
    `steps` rounds.

    Each round adds `speed` to the distance traveled; the position is
    start + (end - start) * frac, with frac that distance over the line's
    length, capped at 1 (and 1 on a line of length 0).  The sink has departed
    once the distance reaches the length.  The floats come from that running
    sum, not from a closed form in the round count.  A walk with round limit
    L reads L + 1 states, and many walks can iterate one recording.  A speed
    that is negative or not finite raises ValueError.
    """
    _check_speed(speed)
    start = (float(start[0]), float(start[1]))
    end = (float(end[0]), float(end[1]))
    speed = float(speed)
    length = euclid(start, end)
    (x0, y0), dx, dy = start, end[0] - start[0], end[1] - start[1]
    traveled, departed = 0.0, length == 0.0
    states = [(start, departed)]
    for _ in range(steps):
        traveled += speed
        frac = min(traveled / length, 1.0) if length else 1.0
        departed = departed or traveled >= length
        states.append(((x0 + dx * frac, y0 + dy * frac), departed))
    return states


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
