"""Reference implementations that the tests pin the package against.

pi_arrays is a whole-block numpy view of the schedule, built without the
closed form in `planehunt.trajectory`: the tests compare that closed
form, the kernel, prefix_polyline and the oracle's walk with it.
pi_vertex, pi_leg_length and pi_arc_before are the per-vertex, per-leg
and per-arc closed forms that trajectory.pi_leg joins into one call; the
tests check pi_leg and pi_leg_at against them bit for bit.  The other
helpers are references that the tests pin and no package code uses: the
per-block gate whose grid-line test _may_reach implies, the distance and
ring checks behind the witness search, and the analytic bound on a
diagonal's length.

diagonal_length and dynamic_q are the diagonal sums as they were built
from one SpiralParams per term, with q summed through diagonal 48;
TargetStrategy and radial_flee are the flee target as it was built on
Point arithmetic.  The tests check the package's int and float versions
against them bit for bit.
"""

import math
from functools import lru_cache

import numpy as np

from planehunt.coverage import _min_dist2, _segments
from planehunt.geometry import Point
from planehunt.searcher import dynamic_plan
from planehunt.target import _KEPT, FLEE_STEPS, SPEED_TOL, _TargetStrategy
from planehunt.trajectory import _SIDES, diagonal_terms, pi_length


@lru_cache(maxsize=64)
def pi_arrays(k, j):
    """(vertices, leg lengths, cumulative lengths) of out_and_back(k, j).

    vertices has shape (n+1, 2) and starts/ends at the origin; lengths
    and cumulative lengths have shape (n,), n = 8(k+1).
    """
    step = 2.0 ** (-j)
    m = np.arange(1, 2 * k + 3, dtype=np.float64)
    dist = np.repeat(m, 2) * step  # spiral leg lengths in order
    n_half = dist.size
    dx = np.zeros(n_half)
    dy = np.zeros(n_half)
    odd = (np.repeat(m, 2) % 2) == 1
    first_of_pair = np.arange(n_half) % 2 == 0
    dx[odd & first_of_pair] = 1.0  # E
    dy[odd & ~first_of_pair] = -1.0  # S
    dx[~odd & first_of_pair] = -1.0  # W
    dy[~odd & ~first_of_pair] = 1.0  # N
    disp_out = np.column_stack([dx, dy]) * dist[:, None]
    disp = np.concatenate([disp_out, -disp_out[::-1]])
    verts = np.concatenate([np.zeros((1, 2)), np.cumsum(disp, axis=0)])
    lengths = np.concatenate([dist, dist[::-1]])
    return verts, lengths, np.cumsum(lengths)


def pi_vertex(params, legs_walked):
    """(x, y) after legs_walked legs of out_and_back(k, j), and after 8(k+1) - legs_walked legs."""
    back = 8 * (params.k + 1) - legs_walked
    s, off = divmod(back if back < legs_walked else legs_walked, 4)
    axis, sign, c_line, sign0, c0, _ = _SIDES[off]
    step = 2.0 ** (-params.j)
    perp, par = sign * (s + c_line) * step, sign0 * (s + c0) * step
    return (perp, par) if axis == 0 else (par, perp)


def pi_leg_length(params, leg):
    """Length of leg `leg` (0-based) of out_and_back(k, j)."""
    back = 8 * params.k + 7 - leg
    return ((back if back < leg else leg) // 2 + 1) * 2.0 ** (-params.j)


def pi_arc_before(params, leg):
    """Arc walked on out_and_back(k, j) before leg `leg` (0..8(k+1)).

    The first L legs out make ceil(L/2) (floor(L/2) + 1) steps; the return mirrors them.
    """
    back = 8 * (params.k + 1) - leg
    if back < leg:
        return pi_length(params) - pi_arc_before(params, back)
    return (leg - leg // 2) * (leg // 2 + 1) * 2.0 ** (-params.j)


def diagonal_length(i):
    """Length of diagonal i: pi_length summed over diagonal_terms(i), one SpiralParams per term."""
    return sum(pi_length(p) for p in diagonal_terms(i))


def dynamic_q():
    """The dynamic plan's q: the float sum of its traversal times through diagonal 48, plus 4^-48 / 3."""
    plan = dynamic_plan()
    partial = sum(diagonal_length(i) / plan.speed_of_diagonal(i) for i in range(1, 49))
    return partial + 4.0 ** (-48) / 3.0


class TargetStrategy(_TargetStrategy):
    """planehunt.target.TargetStrategy checking its fields through self, and each speed by Point subtraction."""

    __slots__ = ()

    def __new__(cls, times, points, v):
        self = super().__new__(cls, times, points, v)
        if len(self.times) != len(self.points) or not self.times:
            raise ValueError("times and points must be nonempty and equal length")
        if self.times[0] != 0:
            raise ValueError("first breakpoint must be at t = 0")
        if not (math.isfinite(self.v) and self.v >= 0):
            raise ValueError(f"speed bound must be finite and nonnegative, got {self.v}")
        convert = not isinstance(self.v, _KEPT)
        for t, p in zip(self.times, self.points):
            if not (math.isfinite(t) and math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValueError(f"breakpoint (t={t}, {p.x}, {p.y}) must be finite")
            convert = convert or not (isinstance(t, _KEPT) and isinstance(p.x, _KEPT) and isinstance(p.y, _KEPT))
        if convert:
            kept = lambda x: x if isinstance(x, _KEPT) else float(x)
            return cls(tuple(map(kept, self.times)), tuple(Point(kept(x), kept(y)) for x, y in self.points), kept(self.v))
        for idx in range(1, len(self.times)):
            dt = self.times[idx] - self.times[idx - 1]
            if dt <= 0:
                raise ValueError("breakpoint times must be strictly increasing")
            speed = math.hypot(*(self.points[idx] - self.points[idx - 1])) / dt
            if speed > self.v + SPEED_TOL:
                raise ValueError(
                    f"segment {idx} moves at speed {speed:.6g} "
                    f"exceeding the declared bound {self.v:.6g}"
                )
        return self


def radial_flee(origin, start, v, t_freeze):
    """planehunt.target.radial_flee on Point arithmetic, returning this module's TargetStrategy."""
    if v <= 0:
        raise ValueError("flee speed must be positive")
    if t_freeze < 0:
        raise ValueError("freeze time must be nonnegative")
    # a float or an int as given, any other number as the float of its value
    kept = lambda x: x if isinstance(x, _KEPT) else float(x)
    fstart, vf, tf = Point(kept(start.x), kept(start.y)), kept(v), kept(t_freeze)
    d = fstart - Point(kept(origin.x), kept(origin.y))
    dist = math.hypot(*d)
    if dist == 0:
        raise ValueError("start must differ from origin (flee direction undefined)")
    if t_freeze == 0:
        return TargetStrategy(times=(0.0,), points=(start,), v=v)
    inv = 1.0 / dist
    if math.isinf(inv):
        d = Point(d.x * 2.0**1000, d.y * 2.0**1000)
        inv = 1.0 / math.hypot(*d)
    reach = vf * tf
    end = fstart + Point(d.x * inv * reach, d.y * inv * reach)
    steps = 0
    while (
        steps < FLEE_STEPS
        and math.isfinite(end.x)
        and math.isfinite(end.y)
        and math.hypot(*(end - fstart)) / tf > vf + SPEED_TOL
    ):
        end = Point(math.nextafter(end.x, fstart.x), math.nextafter(end.y, fstart.y))
        steps += 1
    return TargetStrategy(times=(0.0, t_freeze), points=(start, end), v=v)


def diagonal_length_bound(i):
    """The analytic bound 40 * i * 2^(2i+2) on diagonal_length(i)."""
    return 40.0 * i * 2.0 ** (2 * i + 2)


def _near_grid_line(step, qx, qy, r):
    """Whether the target lies within r of an axis line x = m step or y = m step, with margin; False is exact.

    engine._first_flagged keeps a side's line s only if s is within
    w + pad of that side's mid, and mid is +-qx / step or +-qy / step
    shifted by an integer, so every side is empty when both qx / step and
    qy / step are farther than w + 10 pad from every integer (ten times
    the pad covers mid's rounding).
    """
    if r * r == math.inf:
        return True
    x, y, w = qx / step, qy / step, r / step
    tol = w + 1e-11 * (max(abs(x), abs(y)) + 1.0 + w)
    return abs(math.remainder(x, 1.0)) <= tol or abs(math.remainder(y, 1.0)) <= tol


def _may_flag(k, step, qx, qy, r):
    """Whether a leg of block (k, step) can pass the filter, in O(1); False is exact.

    False means one of two things.  The target is farther than r from the
    whole block, by a step of margin for rounding.  Or no axis line comes
    within r of it (_near_grid_line).  The engine's walk runs the same
    extent test per block and, once per term, _may_reach, which implies
    the grid-line test.
    """
    if r * r == math.inf:
        return True  # every finite distance passes the filter
    if max(abs(qx), abs(qy)) > (k + 2) * step + r * (1.0 + 1e-9):
        return False
    return _near_grid_line(step, qx, qy, r)


def _min_distance_to_polyline(pts, polyline):
    """Min distance from each row of pts (n, 2) to an (m+1, 2) polyline.

    coverage._dist2 over every segment of coverage._segments, then the
    square root of the minimum.  len2 is d0*d0 + d1*d1 for every segment;
    the rasterizer differs from this only in the len2 of slanted segments
    (its fma).
    """
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
    return _in_ring(np.max(np.abs(pts - center), axis=1), j)
