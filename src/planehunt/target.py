"""Target motion: inert, flee-then-freeze and waypoint strategies.

A strategy is a finite piecewise-linear description of infinite motion:
after its last breakpoint the target stays put.  The engine relies on
this: it splits every searcher leg that starts before the last
breakpoint at the breakpoints into intervals where both parties move at
constant velocity.  One accessor, TargetStrategy.state, gives a time's
position (its segment found by bisection) and a segment's velocity as
numbers; position and the engine's moving pieces read it.
"""

import math
from bisect import bisect_left
from typing import NamedTuple

from .geometry import Point

SPEED_TOL = 1e-9
# most ulps radial_flee steps its rounded end point back toward the start
FLEE_STEPS = 8
# field types a strategy keeps as given (np.float64 is a float): the goldens
# pin their reprs.  Any other number, a numpy float32 say, would compute at
# its own precision
_KEPT = (float, int)


def _kept(x):
    """x if it is a float or an int, else the float of its value."""
    return x if isinstance(x, _KEPT) else float(x)


class _TargetStrategy(NamedTuple):
    times: tuple  # strictly increasing, times[0] == 0
    points: tuple  # Point at each breakpoint
    v: float  # declared speed bound (>= any segment speed)


class TargetStrategy(_TargetStrategy):
    """Piecewise-linear target motion with a declared speed bound v.

    Fields that are floats or ints are kept as given; any other number is
    stored as the float of its value.
    """

    __slots__ = ()

    def __new__(cls, times, points, v):
        self = super().__new__(cls, times, points, v)
        times, points, v = self
        if len(times) != len(points) or not times:
            raise ValueError("times and points must be nonempty and equal length")
        if times[0] != 0:
            raise ValueError("first breakpoint must be at t = 0")
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"speed bound must be finite and nonnegative, got {v}")
        convert = not isinstance(v, _KEPT)
        for t, p in zip(times, points):
            if not isinstance(p, Point):
                raise ValueError(f"breakpoint {p!r} must be a Point, not {type(p).__name__}")
            if not (math.isfinite(t) and math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValueError(f"breakpoint (t={t}, {p.x}, {p.y}) must be finite")
            convert = convert or not (isinstance(t, _KEPT) and isinstance(p.x, _KEPT) and isinstance(p.y, _KEPT))
        if convert:
            return cls(tuple(map(_kept, times)), tuple(Point(_kept(x), _kept(y)) for x, y in points), _kept(v))
        for idx in range(1, len(times)):
            dt = times[idx] - times[idx - 1]
            if dt <= 0:
                raise ValueError("breakpoint times must be strictly increasing")
            p0, p1 = points[idx - 1], points[idx]
            speed = math.hypot(p1.x - p0.x, p1.y - p0.y) / dt
            if speed > v + SPEED_TOL:
                raise ValueError(f"segment {idx} moves at speed {speed:.6g} exceeding the declared bound {v:.6g}")
        return self

    # _replace builds through _make, so a replaced field is checked as a new one is
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def position(self, t):
        """Target position at time t >= 0 (inert after the last breakpoint)."""
        if t >= self.times[-1]:
            return self.points[-1]  # where a hunt mostly stops: no Point to build
        x, y, _, _ = self.state(t, len(self.times))
        return Point(x, y)

    def state(self, t, b):
        """(x, y, vx, vy): the position at time t, and the velocity on the segment that ends at breakpoint b.

        The numbers are those of the fields' type (float or int),
        unconverted.  b is len(times) past the last breakpoint, where the
        velocity is zero.
        """
        times, points = self.times, self.points
        if t <= 0:
            x, y = points[0]
        elif t >= times[-1]:
            x, y = points[-1]
        else:
            idx = bisect_left(times, t)  # times[0] == 0 < t, so idx >= 1
            t0 = times[idx - 1]
            frac = (t - t0) / (times[idx] - t0)
            (x0, y0), (x1, y1) = points[idx - 1], points[idx]
            x, y = x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac
        if b == len(times):
            return x, y, 0.0, 0.0
        dt = times[b] - times[b - 1]
        (x0, y0), (x1, y1) = points[b - 1], points[b]
        dx, dy = x1 - x0, y1 - y0
        inv = 1.0 / dt
        if math.isinf(inv):
            # a subnormal dt: 0 * inf would be NaN, while d / dt is finite
            # (the speed check bounds |d| / dt)
            return x, y, dx / dt, dy / dt
        return x, y, dx * inv, dy * inv


def inert(p):
    """A target that never moves.

    A Point of two finite Python floats passes every check of
    TargetStrategy.__new__ and needs no conversion, so its strategy is
    built directly; any other p goes through those checks.
    """
    if isinstance(p, Point) and type(p.x) is type(p.y) is float and math.isfinite(p.x) and math.isfinite(p.y):
        return tuple.__new__(TargetStrategy, ((0.0,), (p,), 0.0))
    return TargetStrategy(times=(0.0,), points=(p,), v=0.0)


def radial_flee(origin, start, v, t_freeze):
    """Flee from `origin` along the ray origin->start at speed v, then freeze.

    The flee-then-freeze adversary of the dynamic lower bound: move
    radially away until t_freeze, stay inert at the reached point forever.
    The end point is start + (d / |d|) v t_freeze for d = start - origin,
    formed coordinate by coordinate on the numbers of start and origin,
    each a float or an int as given and any other number the float of its
    value, as a TargetStrategy stores it.
    """
    for name, p in (("origin", origin), ("start", start)):
        if not isinstance(p, Point):
            raise ValueError(f"{name} {p!r} must be a Point, not {type(p).__name__}")
    if v <= 0:
        raise ValueError("flee speed must be positive")
    if t_freeze < 0:
        raise ValueError("freeze time must be nonnegative")
    # a numpy float32 would round the end point in float32, past what the
    # float64 step-back below undoes, or overflow there
    sx, sy, ox, oy, vf, tf = start.x, start.y, origin.x, origin.y, v, t_freeze
    if not type(sx) is type(sy) is type(ox) is type(oy) is type(vf) is type(tf) is float:
        sx, sy, ox, oy, vf, tf = map(_kept, (sx, sy, ox, oy, vf, tf))
    dx, dy = sx - ox, sy - oy
    dist = math.hypot(dx, dy)
    if dist == 0:
        raise ValueError("start must differ from origin (flee direction undefined)")
    if t_freeze == 0:
        return TargetStrategy(times=(0.0,), points=(start,), v=v)
    inv = 1.0 / dist
    if math.isinf(inv):  # a subnormal dist: scale d by a power of two, exactly
        dx, dy = dx * 2.0**1000, dy * 2.0**1000
        inv = 1.0 / math.hypot(dx, dy)
    reach = vf * tf
    ex, ey = sx + dx * inv * reach, sy + dy * inv * reach
    # rounding the end point to its coordinates' ulp may overshoot v t_freeze,
    # which a short flee turns into a speed past the bound: step it back
    # toward start, which takes a few ulps (the loop stops at FLEE_STEPS)
    steps = 0
    while (
        steps < FLEE_STEPS
        and math.isfinite(ex)
        and math.isfinite(ey)
        and math.hypot(ex - sx, ey - sy) / tf > vf + SPEED_TOL
    ):
        ex, ey = math.nextafter(ex, sx), math.nextafter(ey, sy)
        steps += 1
    return TargetStrategy(times=(0.0, t_freeze), points=(start, Point(ex, ey)), v=v)


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
