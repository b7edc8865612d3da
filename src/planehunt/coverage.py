"""Lower-bound machinery: tube areas and closed-form cost certifiers.

The key geometric fact is the sausage bound: the set of points within r
of a curve of length x has area at most 2rx + pi r^2.  tube_area measures
that set with the grid rasterizer _covered_cells, which the adversary's
witness search (target.adversarial_static_placement) shares; the
certifier functions evaluate the closed-form lower bounds on search cost
that follow from it, plus the impossibility certificate for polynomially
accelerating searchers.
"""

import math
from dataclasses import dataclass

from .geometry import fma_dot

# (segment, cell) pairs per _covered_cells pass.  Each float temporary is
# then 64 KB: it stays in cache, and malloc reuses it from the heap instead
# of mapping and faulting in fresh pages for every pass.
PAIR_BUDGET = 2**13
# largest grid_res of tube_area and the witness grid: a witness search holds
# at most about 17 bytes per cell, so 4096^2 cells take about 300 MB
MAX_GRID_RES = 4096


@dataclass(frozen=True)
class CoverageReport:
    trajectory_length: float
    r: float
    estimated_area: float
    analytic_bound: float  # 2 r x + pi r^2
    grid_res: int
    cell_area: float
    cell_diagonal: float

    @property
    def slack(self):
        """Discretization allowance: 4 * cell diagonal * trajectory length."""
        return 4.0 * self.cell_diagonal * self.trajectory_length


@dataclass(frozen=True)
class PolySpeedCertificate:
    c: int
    v: float
    r: float
    min_catch_time: float
    min_cost: float
    optimal_cost: float
    exceeds: bool
    alpha: float
    beta: float


def area_bound(length, r):
    """Area bound 2 r x + pi r^2 for the r-tube around a curve of length x."""
    if not (math.isfinite(length) and length >= 0 and math.isfinite(r) and r > 0):
        raise ValueError("require finite length >= 0 and finite r > 0")
    return 2.0 * r * length + math.pi * r * r


def polyline_length(polyline):
    import numpy as np

    polyline = np.asarray(polyline, dtype=np.float64)
    if len(polyline) < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(polyline, axis=0), axis=1).sum())


def _ranges(starts, lengths):
    """Concatenated aranges: starts[k], ..., starts[k] + lengths[k] - 1 for each k."""
    import numpy as np

    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)


def _dist2(gx, gy, a0, a1, d0, d1, len2):
    """Squared distance from points (gx, gy) to segments a + [0, 1] d.

    The one point-to-segment formula of the package: t is the projection
    parameter clipped to [0, 1], and the result is ex*ex + ey*ey for the
    offset e from the closest point a + t d (numpy's float64 x**2 is x*x).  Elementwise only, so it gives
    the same bits on broadcast rows and columns as on flat arrays of
    (segment, point) pairs, whatever the BLAS.  len2 is the caller's
    |d|^2 with zero replaced by 1, so a zero-length segment gets t = 0 and
    is the point a.
    """
    import numpy as np

    t = ((gx - a0) * d0 + (gy - a1) * d1) / len2
    np.clip(t, 0.0, 1.0, out=t)
    return (gx - (a0 + t * d0)) ** 2 + (gy - (a1 + t * d1)) ** 2


def _segments(polyline):
    """The segment table of an (n, 2) polyline: its columns and its boxes.

    The columns are a0, a1, d0, d1, len2 for the segments a + [0, 1] d,
    where len2 is d0*d0 + d1*d1 with zero replaced by 1, so a zero-length
    segment gets t = 0 in _dist2 and is the point a.  The boxes are
    lo_x, hi_x, lo_y, hi_y of a and the rounded a + d.  A one-vertex
    polyline is one zero-length segment at its vertex.
    """
    import numpy as np

    if len(polyline) == 1:
        polyline = np.vstack([polyline, polyline])
    a = polyline[:-1]
    d = polyline[1:] - a
    a0, a1, d0, d1 = a[:, 0], a[:, 1], d[:, 0], d[:, 1]
    len2 = d0 * d0 + d1 * d1
    len2[len2 == 0.0] = 1.0
    b0, b1 = a0 + d0, a1 + d1
    boxes = (np.minimum(a0, b0), np.maximum(a0, b0), np.minimum(a1, b1), np.maximum(a1, b1))
    return (a0, a1, d0, d1, len2), boxes


def _within(gx, gy, a0, a1, d0, d1, len2, r):
    """dist^2 <= r^2 from cell centres (gx, gy) to segments a + [0, 1] d (_dist2)."""
    return _dist2(gx, gy, a0, a1, d0, d1, len2) <= r * r


def _covered_cells(xs, ys, polyline, r):
    """Mask of the grid cells whose centre lies within r of the polyline.

    xs and ys are the sorted cell-centre coordinates along each axis; the
    result is a bool array of shape (len(xs), len(ys)).  This is the one
    rasterizer behind tube_area and the adversary's witness search.  Each
    segment's r-inflated box (_segments) is located on xs and ys with
    searchsorted, and the exact point-to-segment test _dist2 <= r^2 is
    evaluated only on the (segment, cell) pairs of those boxes.  Segments
    are taken in order, in groups of at most PAIR_BUDGET pairs, and each
    group is one flat numpy pass over its pairs.  A group of one segment
    (its box alone may be larger) is broadcast over the box's rows and
    columns instead, at most PAIR_BUDGET cells of rows at a time.  A
    one-vertex polyline is a disc.

    len2 is each segment's |d|^2 rounded as one fma, fma(d1, d1, d0*d0)
    (geometry.fma_dot), so masks are the same bits on every CPU.  Where d0
    or d1 is zero that is the other square rounded once, which
    d0*d0 + d1*d1 gives too, so only slanted segments call fma_dot.  That
    rounding is the one difference from the witness confirmer
    (target._far, through target._min_dist2), which evaluates the same
    _dist2 with the len2 of _segments, d0*d0 + d1*d1, for every segment.
    A zero-length segment gets len2 = 1: its t is exactly 0 and the test
    is the disc around its vertex.
    """
    import numpy as np

    columns, (lo_x, hi_x, lo_y, hi_y) = _segments(polyline)
    ix0 = np.searchsorted(xs, lo_x - r, side="left")
    ix1 = np.searchsorted(xs, hi_x + r, side="right")
    iy0 = np.searchsorted(ys, lo_y - r, side="left")
    iy1 = np.searchsorted(ys, hi_y + r, side="right")

    marked = np.zeros((len(xs), len(ys)), dtype=bool)
    boxed = np.flatnonzero((ix0 < ix1) & (iy0 < iy1))
    columns = [c[boxed] for c in columns]
    d0, d1, len2 = columns[2:]
    ix0, iy0 = ix0[boxed], iy0[boxed]
    nx, ny = ix1[boxed] - ix0, iy1[boxed] - iy0
    cells = nx * ny
    slanted = np.flatnonzero((d0 != 0.0) & (d1 != 0.0))
    len2[slanted] = [fma_dot(x, y, x, y) for x, y in zip(d0[slanted].tolist(), d1[slanted].tolist())]
    len2[len2 == 0.0] = 1.0

    bounds = np.concatenate([[0], np.cumsum(cells)])
    start = 0
    while start < boxed.size:
        stop = int(np.searchsorted(bounds, bounds[start] + PAIR_BUDGET, side="right")) - 1
        stop = max(stop, start + 1)
        if stop == start + 1:
            # one segment: broadcast over its box, a band of rows at a time
            s = start
            by = slice(iy0[s], iy0[s] + ny[s])
            band = max(1, PAIR_BUDGET // ny[s])
            for x0 in range(ix0[s], ix0[s] + nx[s], band):
                bx = slice(x0, min(x0 + band, ix0[s] + nx[s]))
                marked[bx, by] |= _within(xs[bx, None], ys[None, by], *(c[s] for c in columns), r)
        else:
            g = slice(start, stop)
            # one row per (segment, x cell), one pair per (row, y cell)
            row_ny = np.repeat(ny[g], nx[g])
            ix = np.repeat(_ranges(ix0[g], nx[g]), row_ny)
            iy = _ranges(np.repeat(iy0[g], nx[g]), row_ny)
            hit = _within(xs[ix], ys[iy], *(np.repeat(c[g], cells[g]) for c in columns), r)
            marked[ix[hit], iy[hit]] = True
        start = stop
    return marked


def tube_area(polyline, r, grid_res=256):
    """Rasterized area of the set of points within r of the polyline.

    Counts the cells of a grid_res x grid_res grid over the r-inflated
    bounding box that the shared bounding-box rasterizer (_covered_cells)
    marks as within r of the polyline; the estimate carries a
    discretization slack of 4 * cell diagonal * length.
    """
    import numpy as np

    if not (math.isfinite(r) and r > 0):
        raise ValueError("r must be finite and positive")
    if not 32 <= grid_res <= MAX_GRID_RES:
        raise ValueError(f"grid_res must be in 32..{MAX_GRID_RES}, got {grid_res}")
    polyline = np.asarray(polyline, dtype=np.float64)
    if polyline.ndim != 2 or polyline.shape[0] < 1:
        raise ValueError("polyline must be an (n, 2) array with n >= 1")

    lo = polyline.min(axis=0) - r
    hi = polyline.max(axis=0) + r
    dx = (hi[0] - lo[0]) / grid_res
    dy = (hi[1] - lo[1]) / grid_res
    xs = lo[0] + (np.arange(grid_res) + 0.5) * dx
    ys = lo[1] + (np.arange(grid_res) + 0.5) * dy
    marked = _covered_cells(xs, ys, polyline, r)

    cell_area = dx * dy
    length = polyline_length(polyline)
    return CoverageReport(
        trajectory_length=length,
        r=r,
        estimated_area=float(marked.sum()) * cell_area,
        analytic_bound=area_bound(length, r),
        grid_res=grid_res,
        cell_area=cell_area,
        cell_diagonal=math.hypot(dx, dy),
    )


def _log_term(big, r):
    return math.log2(big) + math.log2(1.0 / r)


def static_lb(D, r):
    """Cost lower bound (1/16)(log2 D + log2 1/r) D^2 / r for inert targets."""
    if not (math.isfinite(D) and math.isfinite(r) and D > 0 and r > 0):
        raise ValueError("D and r must be finite and positive")
    term = _log_term(D, r)
    if term <= 0:
        raise ValueError(
            f"(D={D}, r={r}) lies outside the bound's regime: log2 D + log2 1/r <= 0"
        )
    return term * D * D / r / 16.0


def dynamic_lb(v, r, t0):
    """Cost lower bound (t0^2/128)(log2 v + log2 1/r) v^2 / r for moving targets.

    t0 is the time the flee-then-freeze adversary lets the target run; the
    witness region is a square of side v*t0/2.
    """
    if not all(math.isfinite(x) and x > 0 for x in (v, r, t0)):
        raise ValueError("v, r and t0 must be finite and positive")
    term = _log_term(v, r)
    if term <= 0:
        raise ValueError(
            f"(v={v}, r={r}) lies outside the bound's regime: log2 v + log2 1/r <= 0"
        )
    return t0 * t0 / 128.0 * term * v * v / r


def poly_speed_certificate(c, v, r, d):
    """Contradiction certificate for a searcher with speed at most t^c.

    Such a searcher needs time at least ((c+1) v^2 / 2r)^(1/(c-1)) to
    reach a fleeing target, hence cost at least
    (1/(c+1)) ((c+1) v^2 / 2r)^((c+1)/(c-1)) = alpha (v^2/r)^beta with
    beta = (c+1)/(c-1) > 1.  `exceeds` is set once that cost surpasses
    the optimal d (log2 v + log2 1/r) v^2 / r.  v, r and d must be finite,
    and so must every cost and min_cost / optimal_cost: past the float
    range it raises ValueError.
    """
    if not isinstance(c, int) or c < 2:
        raise ValueError("require integer speed exponent c >= 2 (c = 1 degenerates)")
    if not all(math.isfinite(x) for x in (v, r, d)):
        raise ValueError(f"v, r and d must be finite, got v={v}, r={r}, d={d}")
    if v < 1 or not (0 < r < 1) or d <= 0:
        raise ValueError("require v >= 1, 0 < r < 1, d > 0")
    base = (c + 1) * v * v / (2.0 * r)
    min_catch_time = base ** (1.0 / (c - 1))
    try:
        min_cost = base ** ((c + 1) / (c - 1)) / (c + 1)
    except OverflowError:  # float ** raises where * gives inf
        min_cost = math.inf
    optimal_cost = d * _log_term(v, r) * v * v / r
    finite = all(math.isfinite(x) for x in (base, min_cost, optimal_cost))
    if not (finite and optimal_cost > 0 and math.isfinite(min_cost / optimal_cost)):
        raise ValueError(f"(c={c}, v={v}, r={r}, d={d}) puts the certificate beyond the float range")
    beta = (c + 1) / (c - 1)
    alpha = ((c + 1) / 2.0) ** beta / (c + 1)
    return PolySpeedCertificate(
        c=c,
        v=v,
        r=r,
        min_catch_time=min_catch_time,
        min_cost=min_cost,
        optimal_cost=optimal_cost,
        exceeds=min_cost > optimal_cost,
        alpha=alpha,
        beta=beta,
    )
