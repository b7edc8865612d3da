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
"""

import math
from functools import lru_cache

import numpy as np

from planehunt.coverage import _min_dist2, _segments
from planehunt.trajectory import _SIDES, pi_length


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
