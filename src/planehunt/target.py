"""Target motion: inert, flee-then-freeze and waypoint strategies.

A strategy is a finite piecewise-linear description of infinite motion:
after its last breakpoint the target stays put.  The engine relies on
this: it walks the breakpoints forward once per block and splits every
searcher leg at them into intervals where both parties move at constant
velocity, each at the strategy's velocity.  position finds a time's
segment by bisection.
"""

import math
from bisect import bisect_left
from typing import NamedTuple

from .geometry import Point

SPEED_TOL = 1e-9
# most ulps radial_flee steps its rounded end point back toward the start
FLEE_STEPS = 8


class _TargetStrategy(NamedTuple):
    times: tuple  # strictly increasing, times[0] == 0
    points: tuple  # Point at each breakpoint
    v: float  # declared speed bound (>= any segment speed)


class TargetStrategy(_TargetStrategy):
    """Piecewise-linear target motion with a declared speed bound v."""

    __slots__ = ()

    def __new__(cls, times, points, v):
        self = super().__new__(cls, times, points, v)
        if len(self.times) != len(self.points) or not self.times:
            raise ValueError("times and points must be nonempty and equal length")
        if self.times[0] != 0:
            raise ValueError("first breakpoint must be at t = 0")
        if not (math.isfinite(self.v) and self.v >= 0):
            raise ValueError(f"speed bound must be finite and nonnegative, got {self.v}")
        for t, p in zip(self.times, self.points):
            if not (math.isfinite(t) and math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValueError(f"breakpoint (t={t}, {p.x}, {p.y}) must be finite")
        for idx in range(1, len(self.times)):
            dt = self.times[idx] - self.times[idx - 1]
            if dt <= 0:
                raise ValueError("breakpoint times must be strictly increasing")
            speed = (self.points[idx] - self.points[idx - 1]).norm() / dt
            if speed > self.v + SPEED_TOL:
                raise ValueError(
                    f"segment {idx} moves at speed {speed:.6g} "
                    f"exceeding the declared bound {self.v:.6g}"
                )
        return self

    def position(self, t):
        """Target position at time t >= 0 (inert after the last breakpoint)."""
        if t <= 0:
            return self.points[0]
        if t >= self.times[-1]:
            return self.points[-1]
        idx = bisect_left(self.times, t)  # times[0] == 0 < t, so idx >= 1
        t0, t1 = self.times[idx - 1], self.times[idx]
        frac = (t - t0) / (t1 - t0)
        p0, p1 = self.points[idx - 1], self.points[idx]
        return p0 + (p1 - p0).scaled(frac)

    def velocity(self, b):
        """Velocity on the segment that ends at breakpoint b; zero past the last one."""
        if b == len(self.times):
            return Point(0.0, 0.0)
        dt = self.times[b] - self.times[b - 1]
        d = self.points[b] - self.points[b - 1]
        inv = 1.0 / dt
        if math.isinf(inv):
            # a subnormal dt: 0 * inf would be NaN, while d / dt is finite
            # (the speed check bounds |d| / dt)
            return Point(d.x / dt, d.y / dt)
        return d.scaled(inv)


def inert(p):
    """A target that never moves."""
    return TargetStrategy(times=(0.0,), points=(p,), v=0.0)


def radial_flee(origin, start, v, t_freeze):
    """Flee from `origin` along the ray origin->start at speed v, then freeze.

    The flee-then-freeze adversary of the dynamic lower bound: move
    radially away until t_freeze, stay inert at the reached point forever.
    """
    if v <= 0:
        raise ValueError("flee speed must be positive")
    if t_freeze < 0:
        raise ValueError("freeze time must be nonnegative")
    d = start - origin
    dist = d.norm()
    if dist == 0:
        raise ValueError("start must differ from origin (flee direction undefined)")
    if t_freeze == 0:
        return TargetStrategy(times=(0.0,), points=(start,), v=v)
    inv = 1.0 / dist
    if math.isinf(inv):  # a subnormal dist: scale d by a power of two, exactly
        d = d.scaled(2.0**1000)
        inv = 1.0 / d.norm()
    end = start + d.scaled(inv).scaled(v * t_freeze)
    # rounding the end point to its coordinates' ulp may overshoot v t_freeze,
    # which a short flee turns into a speed past the bound: step it back
    # toward start, which takes a few ulps (the loop stops at FLEE_STEPS)
    steps = 0
    while (
        steps < FLEE_STEPS
        and math.isfinite(end.x)
        and math.isfinite(end.y)
        and (end - start).norm() / t_freeze > v + SPEED_TOL
    ):
        end = Point(math.nextafter(end.x, start.x), math.nextafter(end.y, start.y))
        steps += 1
    return TargetStrategy(times=(0.0, t_freeze), points=(start, end), v=v)


def waypoints(points, times, v):
    """Piecewise-linear motion through waypoints, inert after the last one."""
    return TargetStrategy(times=tuple(times), points=tuple(points), v=v)


def load_waypoints(path):
    """Read a waypoint strategy from a text file.

    Format: header line `v <bound>`, then one line `t x y` per waypoint.
    Blank lines and lines starting with '#' are ignored.
    """
    v = None
    times = []
    points = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                values = [float(field) for field in (parts[1:] if parts[0] == "v" else parts)]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc} in line {line!r}") from None
            if parts[0] == "v":
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: malformed header line {line!r}, expected `v <bound>`")
                if v is not None:
                    raise ValueError(f"{path}:{lineno}: second header line {line!r}")
                v = values[0]
                continue
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: malformed waypoint line {line!r}")
            t, x, y = values
            times.append(t)
            points.append(Point(x, y))
    if v is None:
        raise ValueError(f"{path}: missing `v <bound>` header line")
    return waypoints(points, times, v)
