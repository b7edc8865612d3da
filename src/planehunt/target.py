"""Target motion strategies and the adversarial placement finder.

A strategy is a finite piecewise-linear description of infinite motion:
after its last breakpoint the target stays put.  The engine relies on
this: it walks the breakpoints forward once per block and splits every
searcher leg at them into intervals where both parties move at constant
velocity.  position finds a time's segment by bisection.
"""

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass

from .coverage import MAX_GRID_RES, PAIR_BUDGET, _covered_cells, _dist2, _segments
from .geometry import Point

SPEED_TOL = 1e-9
# most ulps radial_flee steps its rounded end point back toward the start
FLEE_STEPS = 8
# most unmarked witness candidates confirmed per exact distance check; the
# chunks grow 1, 2, 4, ... up to it, as the first candidate is often the witness
WITNESS_CHUNK = 256


@dataclass(frozen=True)
class TargetStrategy:
    """Piecewise-linear target motion with a declared speed bound v."""

    times: tuple  # strictly increasing, times[0] == 0
    points: tuple  # Point at each breakpoint
    v: float  # declared speed bound (>= any segment speed)

    def __post_init__(self):
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


def _min_dist2(px, py, segments):
    """Squared distance from each point (px, py) to the nearest of the segments."""
    import numpy as np

    best = np.full(len(px), np.inf)
    px, py = px[:, None], py[:, None]
    # chunk over segments to bound the (points x segments) temporaries
    step = max(1, PAIR_BUDGET // max(len(px), 1))
    for s in range(0, len(segments[0]), step):
        dist2 = _dist2(px, py, *(c[None, s : s + step] for c in segments))
        np.minimum(best, dist2.min(axis=1), out=best)
    return best


def _min_distance_to_polyline(pts, polyline):
    """Min distance from each row of pts (n, 2) to an (m+1, 2) polyline.

    coverage._dist2 over every segment of coverage._segments, then the
    square root of the minimum.  len2 is d0*d0 + d1*d1 for every segment;
    the rasterizer differs from this only in the len2 of slanted segments
    (its fma).
    """
    import numpy as np

    pts = np.asarray(pts, dtype=np.float64)
    polyline = np.asarray(polyline, dtype=np.float64)
    return np.sqrt(_min_dist2(pts[:, 0], pts[:, 1], _segments(polyline)[0]))


def _in_ring(cheb, j):
    """True where the Chebyshev norm cheb lies in ring j: Q(2^j) minus Q(2^(j-1))."""
    outer = 2.0 ** (j - 1)  # half-side of Q(2^j)
    if j == 1:
        return cheb <= outer
    inner = 2.0 ** (j - 2)
    return (cheb > inner) & (cheb <= outer)


def annulus_membership(pts, j, center):
    """True where pts lie in ring j: Q(2^j) minus Q(2^(j-1)), Chebyshev norm."""
    import numpy as np

    return _in_ring(np.max(np.abs(pts - center), axis=1), j)


def _far(px, py, segments, boxes, r):
    """Which points (px, py) lie farther than r from every segment, exactly.

    The points are tested only against the segments whose bounding box
    meets the points' bounding box inflated by pad; with none left, every
    point is far.  The skip is exact.  By monotone rounding, the closest
    point a + t d that _dist2 computes lies inside the box of a and the
    rounded a + d, which boxes holds.  A skipped box lies more than about
    pad from every point along x or y, so each computed offset, square,
    sum and root there stays within a few ulps of that gap, which exceeds
    r.  pad is r plus one part in 1e9, plus 1e-12 of the points'
    coordinates for the rounding of the box test.  The bound needs r*r to
    be a normal float (a subnormal square loses its relative precision,
    and may round to 0); below that no segment is skipped.
    """
    import numpy as np

    lo_x, hi_x, lo_y, hi_y = boxes
    if r * r < sys.float_info.min:
        near = slice(None)
    else:
        x0, x1, y0, y1 = px.min(), px.max(), py.min(), py.max()
        pad = r * (1.0 + 1e-9) + 1e-12 * max(-x0, x1, -y0, y1)
        near = np.flatnonzero(
            (lo_x <= x1 + pad) & (hi_x >= x0 - pad) & (lo_y <= y1 + pad) & (hi_y >= y0 - pad)
        )
        if near.size == 0:
            return np.ones(len(px), dtype=bool)
    return np.sqrt(_min_dist2(px, py, [c[near] for c in segments])) > r


def adversarial_static_placement(polyline, i, grid_res=256):
    """Hidden-target witnesses against a partial search trajectory.

    For each ring index j in 1..i the adversary pairs distance scale
    D_j = 2^j with sensing radius r_j = 2^(-2(i-j+1)) and hides the target
    in the ring Q(2^j) \\ Q(2^(j-1)) around the searcher's start.  A grid
    of grid_res^2 candidates per ring is searched for a point farther than
    r_j from every point of the trajectory; the first such point (in grid
    order) is returned as the witness, or None when the grid is covered.
    grid_res runs from 16 to coverage.MAX_GRID_RES.

    The candidates that the trajectory covers are marked by the bounding-box
    rasterizer that tube_area uses (coverage._covered_cells), run at r_j
    shrunk by one part in 1e9 so that rounding can only leave a covered cell
    unmarked, never mark a far one.  The unmarked in-ring cells, as flat
    indices into the grid (no per-cell coordinates are built), are then
    confirmed in grid order, in chunks of 1, 2, 4, ... up to WITNESS_CHUNK
    candidates, by the exact _min_distance_to_polyline(...) > r_j, taken
    over only the segments near the chunk (_far, which skips the others
    exactly).  So the witness is the one a scan of every candidate through
    that exact check would return.  Both distances are coverage._dist2;
    they differ only in the len2 of slanted segments, so on axis-aligned
    legs (every schedule leg) they agree bit for bit, and on slanted ones
    in the last bits, which the shrunk radius covers while coordinates and
    segment lengths stay below about 1e6 r_j.

    Returns a list of (j, D_j, r_j, witness Point or None).
    """
    import numpy as np

    if i < 1:
        raise ValueError("require i >= 1")
    if not 16 <= grid_res <= MAX_GRID_RES:
        raise ValueError(f"require 16 <= grid_res <= {MAX_GRID_RES}, got {grid_res}")
    polyline = np.asarray(polyline, dtype=np.float64)
    if polyline.ndim != 2 or polyline.shape[0] < 1:
        raise ValueError("polyline must be an (n, 2) array with n >= 1")
    center = polyline[0]
    segments, boxes = _segments(polyline)
    results = []
    for j in range(1, i + 1):
        D_j = 2.0 ** j
        r_j = 2.0 ** (-2 * (i - j + 1))
        half = 2.0 ** (j - 1)
        xs = center[0] + (np.arange(grid_res) + 0.5) / grid_res * 2 * half - half
        ys = center[1] + (np.arange(grid_res) + 0.5) / grid_res * 2 * half - half
        covered = _covered_cells(xs, ys, polyline, r_j * (1.0 - 1e-9))
        ax, ay = np.abs(xs - center[0]), np.abs(ys - center[1])
        ring = _in_ring(np.maximum(ax[:, None], ay[None, :]), j)
        idx = np.flatnonzero(ring & ~covered)
        witness = None
        s, size = 0, 1
        while s < idx.size:
            cells = idx[s : s + size]
            px, py = xs[cells // grid_res], ys[cells % grid_res]
            far = np.flatnonzero(_far(px, py, segments, boxes, r_j))
            if far.size:
                witness = Point(float(px[far[0]]), float(py[far[0]]))
                break
            s, size = s + size, min(2 * size, WITNESS_CHUNK)
        results.append((j, D_j, r_j, witness))
    return results
