"""Target motion strategies and the adversarial placement finder.

A strategy is a finite piecewise-linear description of infinite motion:
after its last breakpoint the target stays put.  The engine relies on
this to split every searcher leg into intervals where both parties move
at constant velocity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coverage import _covered_cells
from .geometry import Point

SPEED_TOL = 1e-9
# unmarked witness candidates confirmed per exact distance check
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
        if not self.v >= 0:
            raise ValueError("speed bound must be nonnegative")
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
        idx = 1
        while self.times[idx] < t:
            idx += 1
        t0, t1 = self.times[idx - 1], self.times[idx]
        frac = (t - t0) / (t1 - t0)
        p0, p1 = self.points[idx - 1], self.points[idx]
        return p0 + (p1 - p0).scaled(frac)

    def constant_velocity_pieces(self, t_start, t_end):
        """Yield (ts, te, position at ts, velocity) covering [t_start, t_end]."""
        bounds = [t for t in self.times if t_start < t < t_end]
        cut_times = [t_start] + bounds + [t_end]
        for ts, te in zip(cut_times, cut_times[1:]):
            pos = self.position(ts)
            vel = self._velocity_after(ts)
            yield ts, te, pos, vel

    def _velocity_after(self, t):
        if t >= self.times[-1]:
            return Point(0.0, 0.0)
        idx = 1
        while self.times[idx] <= t:
            idx += 1
        dt = self.times[idx] - self.times[idx - 1]
        d = self.points[idx] - self.points[idx - 1]
        return d.scaled(1.0 / dt)

    @property
    def is_inert(self):
        return len(self.times) == 1 or self.v == 0


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
    direction = d.scaled(1.0 / dist)
    end = start + direction.scaled(v * t_freeze)
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
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v":
                v = float(parts[1])
                continue
            if len(parts) != 3:
                raise ValueError(f"{path}: malformed waypoint line {line!r}")
            t, x, y = map(float, parts)
            times.append(t)
            points.append(Point(x, y))
    if v is None:
        raise ValueError(f"{path}: missing `v <bound>` header line")
    return waypoints(points, times, v)


def _min_distance_to_polyline(pts, polyline):
    """Min distance from each row of pts (n, 2) to an (m+1, 2) polyline."""
    if len(polyline) == 1:
        return np.linalg.norm(pts - polyline[0], axis=1)
    a = polyline[:-1]
    d = polyline[1:] - a
    len2 = np.einsum("ij,ij->i", d, d)
    len2[len2 == 0] = 1.0  # degenerate legs: projection param stays 0
    best = np.full(len(pts), np.inf)
    # chunk over segments to bound the (points x segments) temporary
    chunk = max(1, int(4e6 // max(len(pts), 1)))
    for s in range(0, len(a), chunk):
        a_c = a[s : s + chunk]
        d_c = d[s : s + chunk]
        l2_c = len2[s : s + chunk]
        rel = pts[:, None, :] - a_c[None, :, :]
        t = np.einsum("pse,se->ps", rel, d_c) / l2_c
        np.clip(t, 0.0, 1.0, out=t)
        closest = a_c[None, :, :] + t[:, :, None] * d_c[None, :, :]
        dist2 = np.einsum("pse,pse->ps", pts[:, None, :] - closest, pts[:, None, :] - closest)
        best = np.minimum(best, dist2.min(axis=1))
    return np.sqrt(best)


def annulus_membership(pts, j, center):
    """True where pts lie in ring j: Q(2^j) minus Q(2^(j-1)), Chebyshev norm."""
    cheb = np.max(np.abs(pts - center), axis=1)
    outer = 2.0 ** (j - 1)  # half-side of Q(2^j)
    if j == 1:
        return cheb <= outer
    inner = 2.0 ** (j - 2)
    return (cheb > inner) & (cheb <= outer)


def adversarial_static_placement(polyline, i, grid_res=256):
    """Hidden-target witnesses against a partial search trajectory.

    For each ring index j in 1..i the adversary pairs distance scale
    D_j = 2^j with sensing radius r_j = 2^(-2(i-j+1)) and hides the target
    in the ring Q(2^j) \\ Q(2^(j-1)) around the searcher's start.  A grid
    of grid_res^2 candidates per ring is searched for a point farther than
    r_j from every point of the trajectory; the first such point (in grid
    order) is returned as the witness, or None when the grid is covered.

    The candidates that the trajectory covers are marked by the bounding-box
    rasterizer that tube_area uses (coverage._covered_cells), run at r_j
    shrunk by one part in 1e9 so that rounding can only leave a covered cell
    unmarked, never mark a far one.  The unmarked in-ring cells are then
    confirmed in grid order, in chunks, by the exact
    _min_distance_to_polyline(...) > r_j, so the witness is the one a scan of
    every candidate through that exact check would return.  On axis-aligned
    legs (every schedule leg) the two distance computations agree bit for
    bit; on slanted segments they differ in the last bits, which the margin
    covers while coordinates and segment lengths stay below about 1e6 r_j.

    Returns a list of (j, D_j, r_j, witness Point or None).
    """
    if i < 1:
        raise ValueError("require i >= 1")
    if grid_res < 16:
        raise ValueError("require grid_res >= 16")
    polyline = np.asarray(polyline, dtype=np.float64)
    if polyline.ndim != 2 or polyline.shape[0] < 1:
        raise ValueError("polyline must be an (n, 2) array with n >= 1")
    center = polyline[0]
    results = []
    for j in range(1, i + 1):
        D_j = 2.0 ** j
        r_j = 2.0 ** (-2 * (i - j + 1))
        half = 2.0 ** (j - 1)
        xs = center[0] + (np.arange(grid_res) + 0.5) / grid_res * 2 * half - half
        ys = center[1] + (np.arange(grid_res) + 0.5) / grid_res * 2 * half - half
        covered = _covered_cells(xs, ys, polyline, r_j * (1.0 - 1e-9))
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        candidates = pts[annulus_membership(pts, j, center) & ~covered.ravel()]
        witness = None
        for s in range(0, len(candidates), WITNESS_CHUNK):
            chunk = candidates[s : s + WITNESS_CHUNK]
            far = np.flatnonzero(_min_distance_to_polyline(chunk, polyline) > r_j)
            if far.size:
                witness = Point(float(chunk[far[0], 0]), float(chunk[far[0], 1]))
                break
        results.append((j, D_j, r_j, witness))
    return results
